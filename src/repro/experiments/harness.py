"""The one universe builder, and the single-run driver.

:func:`build_universe` builds every simulated :class:`Cluster` universe
the experiments run; they differ only in the workloads, manager config,
loss rate, cap recording and power traces they pass it.  A
:class:`RunSpec` fully describes one run of an application pair -- a
Fig. 2/3 cell, a §4.2 overhead run, a benefit-3 throughput run;
:func:`run_single` builds it with :func:`build_run`, runs to completion,
audits the §2.1 constraints and returns a :class:`RunResult`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.instrumentation import MetricsRecorder
from repro.managers.base import BudgetAudit, ManagerConfig, PowerManager
from repro.managers.fair import FairManager
from repro.managers.slurm import SlurmConfig, SlurmManager
from repro.managers.slurm_ha import HaSlurmConfig, HaSlurmManager
from repro.net.network import NetworkStats
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from repro.workloads.phases import Workload
from repro.workloads.traces import PowerTrace

#: manager name -> (factory taking an optional ManagerConfig,
#:                  dedicated server nodes withheld beyond the clients,
#:                  config class the factory expects)
MANAGER_FACTORIES: Dict[
    str, Tuple[Callable[..., PowerManager], int, type]
] = {
    "fair": (FairManager, 0, ManagerConfig),
    "penelope": (PenelopeManager, 0, PenelopeConfig),
    "slurm": (SlurmManager, 1, SlurmConfig),
    "slurm-ha": (HaSlurmManager, 2, HaSlurmConfig),
}


def expected_config_type(name: str) -> type:
    """The :class:`ManagerConfig` (sub)class ``name``'s factory expects."""
    return MANAGER_FACTORIES[name][2]


def make_manager(
    name: str,
    config: Optional[ManagerConfig] = None,
    recorder: Optional[MetricsRecorder] = None,
) -> PowerManager:
    """Instantiate a manager by name; a ``None`` config means its defaults.

    A config must be of the type :data:`MANAGER_FACTORIES` registers for
    ``name`` (or a subclass), or this raises :class:`TypeError`.
    """
    try:
        factory = MANAGER_FACTORIES[name][0]
    except KeyError:
        raise KeyError(
            f"unknown manager {name!r}; choose from {sorted(MANAGER_FACTORIES)}"
        ) from None
    _check_config(name, config)
    return factory(config=config, recorder=recorder)


def _check_config(name: str, config: Optional[ManagerConfig]) -> None:
    expected = expected_config_type(name)
    if config is not None and not isinstance(config, expected):
        raise TypeError(f"{name} requires a {expected.__name__}, got {type(config).__name__}")


def extra_nodes(name: str) -> int:
    """Dedicated server nodes a manager withholds beyond the clients."""
    return MANAGER_FACTORIES[name][1]


def needs_server_node(name: str) -> bool:
    return extra_nodes(name) > 0


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one experiment run."""

    manager: str
    pair: Tuple[str, str]
    cap_w_per_socket: float
    n_clients: int = 20
    seed: int = 0
    #: Shrinks class-D runtimes for quick tests (1.0 = paper-like).
    workload_scale: float = 1.0
    manager_config: Optional[ManagerConfig] = None
    fault_plan: Optional[FaultPlan] = None
    record_caps: bool = False
    time_limit_s: float = 1e6

    def __post_init__(self) -> None:
        if self.manager not in MANAGER_FACTORIES:
            raise ValueError(f"unknown manager {self.manager!r}")
        if self.n_clients < 2 and not (self.n_clients == 1 and self.pair[0] == self.pair[1]):
            raise ValueError("need at least two client nodes for a pair of different apps")
        if self.cap_w_per_socket <= 0:
            raise ValueError("cap must be positive")
        _check_config(self.manager, self.manager_config)

    @property
    def budget_w(self) -> float:
        """System-wide budget: the per-socket cap over all client sockets."""
        return self.cap_w_per_socket * 2 * self.n_clients


@dataclass
class RunResult:
    """Outcome of one run."""

    spec: RunSpec
    runtime_s: float
    recorder: MetricsRecorder
    audit: BudgetAudit
    network: NetworkStats
    #: node_id -> finish time for completed workloads.
    finish_times: Dict[int, float] = field(default_factory=dict)
    #: Nodes whose workload never finished (killed nodes).
    unfinished: Tuple[int, ...] = ()

    @property
    def performance(self) -> float:
        """The paper's performance metric, 1/runtime (§4.1)."""
        return 1.0 / self.runtime_s


#: Builds of at least this many clients first run one full collection,
#: so that a previous run's dead universe (reference cycles the young
#: generations never reach) is freed before the next one is allocated
#: and peak RSS stays near one universe.  Below the cut the collection
#: would cost more than the build it precedes.  ``build_run`` of a
#: Penelope EP:DC universe against one full collection of a heap holding
#: one dead universe of the same size (2-vCPU VM, CPython 3.11.7, five
#: runs each; a post-import heap alone takes ~4.5 ms):
#:
#: =======  ==========  ==============
#: clients  build ms    collection ms
#: =======  ==========  ==============
#: 20       1.2-1.7     4.9-5.0
#: 64       2.8-3.1     5.4
#: 128      5.1-5.4     6.0
#: 256      9.7-10.3    7.2-7.5
#: 512      19.3-20.2   10.7-11.8
#: 1 024    39.4-40.4   16.3-17.7
#: =======  ==========  ==============
_BUILD_COLLECT_MIN_CLIENTS = 256


#: Draws a universe's client workloads (node id -> workload) from its RNGs.
WorkloadDraw = Callable[[RngRegistry], Mapping[int, Workload]]


def pair_workloads(pair: Tuple[str, str], n_clients: int, scale: float) -> WorkloadDraw:
    """§4.1's split: the first half of the clients runs ``pair[0]``, the
    rest ``pair[1]``, each node its own jittered instance.  A pair of one
    app, ``(app, app)``, runs ``app`` on every client."""
    return lambda rngs: assign_pair_to_cluster(
        pair, range(n_clients), rng=rngs.stream("workload.jitter"), scale=scale
    ).workloads


def build_universe(
    manager_name: str,
    n_clients: int,
    budget_w: float,
    seed: int,
    workloads: WorkloadDraw,
    manager_config: Optional[ManagerConfig] = None,
    record_caps: bool = False,
    loss: float = 0.0,
    fault_plan: Optional[FaultPlan] = None,
    sim: Optional[SimConfig] = None,
    system_budget_w: Optional[float] = None,
    traces: Optional[Mapping[int, PowerTrace]] = None,
) -> Tuple[Engine, Cluster, PowerManager]:
    """Construct (engine, cluster, manager) for one run, installed but idle.

    The manager governs clients ``0 .. n_clients - 1`` under ``budget_w``;
    its server nodes, if any, come after them.  ``system_budget_w``
    defaults to ``budget_w`` scaled up to the servers' share.  Nodes named
    in ``traces`` play back those power profiles (the §4.5 scaling
    study).  Nothing is started: each caller starts the universe in its
    own order.

    The engine comes back holding the collector policy
    (:meth:`Engine.acquire_gc_hold`), so the caller's start runs under
    it too.  Its first run that drains, stops on its event or raises
    ends the hold; a caller that stops at a numeric horizon, or never
    runs the universe, ends it with :meth:`Engine.release_gc_hold` (or
    by dropping the engine).
    """
    # A build and the universe's start allocate almost only objects that
    # live as long as the universe, so a young collection during them
    # frees nothing (``sim/engine.py`` has the build-phase table).
    if n_clients >= _BUILD_COLLECT_MIN_CLIENTS and gc.isenabled():
        gc.collect()
    engine = Engine(sim=sim)
    engine.acquire_gc_hold()
    try:
        rngs = RngRegistry(seed=seed)
        extra = extra_nodes(manager_name)
        manager = make_manager(
            manager_name,
            config=manager_config,
            recorder=MetricsRecorder(record_caps=record_caps),
        )
        if system_budget_w is None:
            system_budget_w = budget_w * (n_clients + extra) / n_clients
        cluster_config = ClusterConfig(
            n_nodes=n_clients + extra,
            system_power_budget_w=system_budget_w,
            message_loss_probability=loss,
        )
        cluster = Cluster(engine, cluster_config, rngs, traces=traces)
        overhead = manager.config.overhead_factor
        for node_id, workload in workloads(rngs).items():
            cluster.nodes[node_id].assign_workload(workload, overhead_factor=overhead)
        manager.install(cluster, client_ids=list(range(n_clients)), budget_w=budget_w)
        if fault_plan is not None:
            fault_plan.install(cluster, manager)
    except BaseException:
        engine.release_gc_hold()
        raise
    return engine, cluster, manager


def build_run(spec: RunSpec, sim: Optional[SimConfig] = None):
    """Construct (engine, cluster, manager) for ``spec`` without running.

    Exposed separately so tests and examples can poke at a mid-flight
    simulation.  ``sim`` selects kernel knobs (e.g. batched ticks); it
    deliberately lives outside :class:`RunSpec` because it must never
    change what is simulated -- only how.
    """
    return build_universe(
        spec.manager,
        spec.n_clients,
        spec.budget_w,
        spec.seed,
        pair_workloads(spec.pair, spec.n_clients, spec.workload_scale),
        manager_config=spec.manager_config,
        record_caps=spec.record_caps,
        fault_plan=spec.fault_plan,
        sim=sim,
    )


def run_single(spec: RunSpec, sim: Optional[SimConfig] = None) -> RunResult:
    """Run one experiment to completion and audit it."""
    engine, cluster, manager = build_run(spec, sim=sim)
    manager.start()
    runtime = cluster.run_to_completion(time_limit_s=spec.time_limit_s)
    audit = manager.audit()
    audit.check()
    manager.stop()
    finish_times = {
        node.node_id: node.executor.finished_at
        for node in cluster.compute_nodes()
        if node.executor is not None and node.executor.finished_at is not None
    }
    unfinished = tuple(
        node.node_id
        for node in cluster.compute_nodes()
        if node.executor is not None and node.executor.finished_at is None
    )
    return RunResult(
        spec=spec,
        runtime_s=runtime,
        recorder=manager.recorder,
        audit=audit,
        network=cluster.network.stats,
        finish_times=finish_times,
        unfinished=unfinished,
    )
