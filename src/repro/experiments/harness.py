"""Single-run driver shared by the nominal, faulty and overhead experiments.

A :class:`RunSpec` fully describes one measurement: manager, application
pair, initial per-socket cap, cluster size, seed and optional fault plan.
:func:`run_single` builds a fresh simulation universe for it, runs to
completion, audits the §2.1 constraints and returns a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.instrumentation import MetricsRecorder
from repro.managers.base import BudgetAudit, ManagerConfig, PowerManager
from repro.managers.fair import FairManager
from repro.managers.podd import PoddManager
from repro.managers.slurm import SlurmConfig, SlurmManager
from repro.managers.slurm_ha import HaSlurmConfig, HaSlurmManager
from repro.net.network import NetworkStats
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster

#: manager name -> (factory taking an optional ManagerConfig,
#:                  dedicated server nodes withheld beyond the clients,
#:                  config class the factory expects)
MANAGER_FACTORIES: Dict[
    str, Tuple[Callable[..., PowerManager], int, type]
] = {
    "fair": (FairManager, 0, ManagerConfig),
    "penelope": (PenelopeManager, 0, PenelopeConfig),
    "slurm": (SlurmManager, 1, SlurmConfig),
    "podd": (PoddManager, 1, SlurmConfig),
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
    """Instantiate a manager by name, with a type-checked config.

    The config check is table-driven so every manager -- including Fair,
    whose factory previously sat outside the per-name isinstance ladder --
    gets the same treatment: a ``None`` config means factory defaults, a
    config of the registered type (or a subclass) is passed through, and
    anything else is a :class:`TypeError`.
    """
    try:
        factory, _, config_type = MANAGER_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown manager {name!r}; choose from {sorted(MANAGER_FACTORIES)}"
        ) from None
    if config is None:
        return factory(recorder=recorder)
    if not isinstance(config, config_type):
        raise TypeError(
            f"{name} requires a {config_type.__name__}, "
            f"got {type(config).__name__}"
        )
    return factory(config=config, recorder=recorder)


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
        if self.n_clients < 2:
            raise ValueError("need at least two client nodes for a pair")
        if self.cap_w_per_socket <= 0:
            raise ValueError("cap must be positive")
        if self.manager_config is not None:
            config_type = expected_config_type(self.manager)
            if not isinstance(self.manager_config, config_type):
                raise TypeError(
                    f"{self.manager} requires a {config_type.__name__}, "
                    f"got {type(self.manager_config).__name__}"
                )

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


def build_run(spec: RunSpec, sim: Optional[SimConfig] = None):
    """Construct (engine, cluster, manager) for ``spec`` without running.

    Exposed separately so tests and examples can poke at a mid-flight
    simulation.  ``sim`` selects kernel knobs (e.g. batched ticks); it
    deliberately lives outside :class:`RunSpec` because it must never
    change what is simulated -- only how.
    """
    engine = Engine(sim=sim)
    rngs = RngRegistry(seed=spec.seed)
    extra = extra_nodes(spec.manager)
    manager = make_manager(
        spec.manager,
        config=spec.manager_config,
        recorder=MetricsRecorder(record_caps=spec.record_caps),
    )
    cluster_config = ClusterConfig(
        n_nodes=spec.n_clients + extra,
        system_power_budget_w=spec.budget_w * (spec.n_clients + extra) / spec.n_clients,
    )
    cluster = Cluster(engine, cluster_config, rngs)
    assignment = assign_pair_to_cluster(
        spec.pair,
        range(spec.n_clients),
        rng=rngs.stream("workload.jitter"),
        scale=spec.workload_scale,
    )
    cluster.install_assignment(
        assignment, overhead_factor=manager.config.overhead_factor
    )
    manager.install(
        cluster, client_ids=list(range(spec.n_clients)), budget_w=spec.budget_w
    )
    if spec.fault_plan is not None:
        spec.fault_plan.install(cluster, manager)
    return engine, cluster, manager


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
