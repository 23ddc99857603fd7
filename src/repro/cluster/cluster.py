"""The cluster: nodes plus the network a power manager installs onto."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.cluster.node import SimNode
from repro.power.domain import SKYLAKE_6126_NODE, PowerDomainSpec
from repro.sim.engine import Engine
from repro.sim.events import Event, EventBase
from repro.sim.rng import RngRegistry
from repro.workloads.generator import PairAssignment
from repro.workloads.traces import PowerTrace


@dataclass(frozen=True)
class ClusterConfig:
    """Construction parameters for a simulated cluster.

    ``system_power_budget_w`` is the system-wide cap ``C_system`` of §2.1;
    managers derive initial node caps from it.  The default enforcement
    delay window matches RAPL's sub-0.5 s convergence.
    """

    n_nodes: int = 20
    spec: PowerDomainSpec = SKYLAKE_6126_NODE
    system_power_budget_w: float = 20 * 2 * 80.0  # 80 W/socket default sweep midpoint
    latency: LatencyModel = field(default_factory=LatencyModel)
    enforcement_delay_s: Tuple[float, float] = (0.2, 0.5)
    reading_noise: float = 0.01
    #: Probability of any message being lost in flight (lossy fabric).
    message_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.system_power_budget_w <= 0:
            raise ValueError("power budget must be positive")

    @property
    def fair_share_w(self) -> float:
        """The Fair per-node cap ``C_system / N``."""
        return self.system_power_budget_w / self.n_nodes

    def validate_budget(self) -> None:
        """The budget must admit a safe static allocation (§2.1)."""
        share = self.fair_share_w
        if not self.spec.is_safe_cap(share):
            raise ValueError(
                f"fair share {share:.1f} W outside safe window "
                f"[{self.spec.min_cap_w:.1f}, {self.spec.max_cap_w:.1f}] W"
            )


class Cluster:
    """Nodes, network and workload wiring for one simulation run.

    ``traces`` maps node ids to the power profiles those nodes play back
    (see :class:`SimNode`); every other node runs the RAPL model.
    """

    def __init__(
        self,
        engine: Engine,
        config: ClusterConfig,
        rng_registry: Optional[RngRegistry] = None,
        traces: Optional[Mapping[int, PowerTrace]] = None,
    ) -> None:
        config.validate_budget()
        self.engine = engine
        self.config = config
        self.rngs = rng_registry or RngRegistry(seed=0)
        self.topology = Topology(config.n_nodes, latency=config.latency)
        self.rngs.prepare(
            ["net.latency", *(f"node.{node_id}.rapl" for node_id in range(config.n_nodes))]
        )
        self.network = Network(
            engine,
            self.topology,
            self.rngs.stream("net.latency"),
            loss_probability=config.message_loss_probability,
        )
        traces = traces or {}
        self.nodes: List[SimNode] = [
            SimNode(
                engine,
                node_id,
                config.spec,
                self.rngs.stream(f"node.{node_id}.rapl"),
                initial_cap_w=config.fair_share_w,
                enforcement_delay_s=config.enforcement_delay_s,
                reading_noise=config.reading_noise,
                trace=traces.get(node_id),
            )
            for node_id in range(config.n_nodes)
        ]

    # -- lookups -----------------------------------------------------------

    def node(self, node_id: int) -> SimNode:
        return self.nodes[node_id]

    @property
    def node_ids(self) -> range:
        return range(self.config.n_nodes)

    def alive_nodes(self) -> List[SimNode]:
        return [n for n in self.nodes if n.alive]

    def compute_nodes(self) -> List[SimNode]:
        """Nodes with a workload attached."""
        return [n for n in self.nodes if n.executor is not None]

    # -- workloads ------------------------------------------------------------

    def install_assignment(
        self, assignment: PairAssignment, overhead_factor: float = 0.0
    ) -> None:
        """Attach the pair's workloads to their nodes (§4.1 half/half)."""
        for node_id, workload in assignment.workloads.items():
            self.nodes[node_id].assign_workload(
                workload, overhead_factor=overhead_factor
            )

    def start_workloads(self) -> None:
        for node in self.compute_nodes():
            node.start_workload()

    def completion_event(self) -> Event:
        """Fires when every workload has finished or its node was killed.

        §4.1: "the runtime of an experiment [is] the time necessary for all
        nodes to complete their workloads."  A killed node's workload can
        never finish, so its ``settled`` event (finish-or-kill) is what
        completion counts -- a kill *during* the run correctly unblocks
        the experiment (§4.4).

        The event fires, with value True, two same-instant hops after the
        last unsettled executor settles (one after the call, when none
        is left unsettled): entries queued at that instant before the
        second hop still run before a ``run(until=...)`` on it stops.
        """
        engine = self.engine
        done = engine.event(name="cluster.completion")
        pending = [
            node.executor.settled
            for node in self.compute_nodes()
            if node.executor is not None and not node.executor.settled.triggered
        ]
        unsettled = len(pending)

        def settle(event: EventBase) -> None:
            nonlocal unsettled
            unsettled -= 1
            if not unsettled:
                engine.call_later(0.0, _complete, done, True, name="cluster.settled")

        for settled in pending:
            assert settled.callbacks is not None
            settled.callbacks.append(settle)
        if not pending:
            engine.call_later(0.0, _complete, done, True, name="cluster.settled")
        return done

    def run_to_completion(
        self, time_limit_s: float = 1e7, start_workloads: bool = True
    ) -> float:
        """Run the simulation until all workloads finish; returns makespan.

        Unstarted workloads are started first (disable with
        ``start_workloads=False`` if you staged them manually).
        ``time_limit_s`` guards against livelock bugs: exceeding it raises.
        """
        for node in self.compute_nodes():
            assert node.executor is not None
            if start_workloads and node.alive and not node.executor.is_running \
                    and not node.executor.is_done:
                node.start_workload()
        engine = self.engine
        done = self.completion_event()
        guard = engine.call_cancellable(
            time_limit_s, _complete, done, False, name="cluster.time-limit"
        )
        if not engine.run(until=done):
            raise RuntimeError(
                f"cluster did not complete within {time_limit_s} simulated seconds"
            )
        # The livelock guard never fired: cancel it, or the queue keeps a
        # far-future timer and a later drain of this engine would leap
        # the clock to the guard's expiry.
        guard.cancel()
        makespans = [
            node.executor.finished_at
            for node in self.compute_nodes()
            if node.executor is not None and node.executor.finished_at is not None
        ]
        return max(makespans) if makespans else self.engine.now

    # -- power views --------------------------------------------------------------

    def total_requested_caps_w(self, only_alive: bool = True) -> float:
        nodes: Sequence[SimNode] = self.alive_nodes() if only_alive else self.nodes
        return sum(node.rapl.cap_w for node in nodes)

    def cap_snapshot(self) -> Dict[int, float]:
        return {node.node_id: node.rapl.cap_w for node in self.nodes}

    def power_snapshot(self) -> Dict[int, float]:
        return {node.node_id: node.rapl.instantaneous_power_w for node in self.nodes}

    # -- faults -------------------------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        """Crash ``node_id`` now: executor, daemons, and network endpoint."""
        node = self.nodes[node_id]
        node.kill()
        self.network.mark_dead(node_id)

    def revive_node(self, node_id: int, restart_workload: bool = True) -> None:
        """Restart a crashed node and rejoin it to the network.

        The workload (if any) restarts from scratch; manager daemons are
        *not* rebuilt here -- that is the power manager's job (it owns
        the accounting for what the crash destroyed; see
        ``PowerManager.revive_node``).  Partitions are independent state:
        a node that was both killed and partitioned stays partitioned
        until the partition heals.
        """
        node = self.nodes[node_id]
        node.revive()
        self.network.mark_alive(node_id)
        if restart_workload and node.executor is not None:
            node.start_workload()


def _complete(done: Event, settled: bool) -> None:
    """Fire a completion event: ``settled`` is False when the livelock
    guard got there first."""
    if not done.triggered:
        done.succeed(settled)
