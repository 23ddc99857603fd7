"""Fault injection: node kills, restarts, partitions, flapping and loss bursts.

The paper's faulty-environment experiment (§4.4) kills nodes and waits;
the chaos harness layers churn on top -- crashed nodes restart, links
flap, and the fabric's loss rate spikes in timed bursts -- so the
reliable-transfer layer can be audited under the full failure taxonomy.

The adversarial families extend the taxonomy beyond crashes and drops:
**duplication bursts** deliver messages twice (same ``msg_id``),
**reordering bursts** add latency-inversion jitter, **clock drift**
stretches or compresses one node's decider/detector timers, and
**gray-slow nodes** multiply one node's network latency without killing
it.  All four are default-off and draw from dedicated RNG streams
(``net.faults.*``), so plans without them replay byte-identically to
plans from before the families existed.

Every injector returns nothing: it queues calls on the engine and
keeps no handle.  Each takes an urgent zero-delay start hop first.  A
kill, restart, partition, heal or clock drift then queues its one call
``at - now`` later (:func:`~repro.sim.engine.run_callable_at`).  A
timed injector (flap, loss, duplication and reorder bursts, slow node)
acts in the start hop itself when its time is already ``now``, and
otherwise queues its first step ``at - now`` later; each later step is
queued one window (``down_s``, ``up_s`` or ``duration_s``) after the
step before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.sim.engine import Engine, run_callable_at
from repro.sim.events import PRIORITY_URGENT

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.managers.base import PowerManager


def kill_node_at(cluster: Cluster, node_id: int, at_time_s: float) -> None:
    """Schedule a crash of ``node_id`` at simulated time ``at_time_s``.

    The paper's faulty-environment experiment (§4.4) kills SLURM's server
    node "partway through execution"; the same injector kills any client
    node for Penelope's resilience tests.
    """
    run_callable_at(
        cluster.engine, at_time_s, lambda: cluster.kill_node(node_id), name="fault.kill"
    )


def restart_node_at(
    cluster: Cluster,
    manager: "PowerManager",
    node_id: int,
    at_time_s: float,
) -> None:
    """Schedule a crash-restart of ``node_id`` through ``manager``.

    The manager owns the restart (it must rebuild daemons and spend the
    node's write-off); a restart firing while the node is still alive --
    a schedule whose kill never happened or was itself mis-ordered -- is
    skipped rather than raised, so randomized chaos schedules stay safe.
    """

    def _restart() -> None:
        if cluster.node(node_id).alive:
            return
        manager.revive_node(node_id)

    run_callable_at(cluster.engine, at_time_s, _restart, name="fault.restart")


def partition_at(
    cluster: Cluster,
    isolated: Sequence[int],
    at_time_s: float,
    heal_after_s: Optional[float] = None,
) -> None:
    """Schedule a network partition isolating ``isolated`` at ``at_time_s``.

    If ``heal_after_s`` is given the partition heals after that long.
    """
    isolated = list(isolated)

    def _apply() -> None:
        cluster.topology.partition(isolated)
        if heal_after_s is not None:
            run_callable_at(
                cluster.engine,
                cluster.engine.now + heal_after_s,
                lambda: cluster.topology.heal(isolated),
                name="fault.heal",
            )

    run_callable_at(cluster.engine, at_time_s, _apply, name="fault.partition")


def _start_at(engine: Engine, at_time_s: float, step: Callable[[], None]) -> None:
    """Queue a timed injector's urgent zero-delay start hop, which runs
    ``step()`` in place when ``at_time_s`` is already now and otherwise
    queues it ``at_time_s - now`` later."""
    engine.call_later(
        0.0, _begin, engine, at_time_s, step, name="fault.start",
        priority=PRIORITY_URGENT,
    )


def _begin(engine: Engine, at_time_s: float, step: Callable[[], None]) -> None:
    if at_time_s > engine.now:
        engine.call_later(at_time_s - engine.now, step, name="fault.step")
    else:
        step()


def flap_partition_at(
    cluster: Cluster,
    isolated: Sequence[int],
    at_time_s: float,
    down_s: float,
    up_s: float,
    cycles: int,
) -> None:
    """Schedule a flapping partition: ``cycles`` rounds of partitioned for
    ``down_s`` then healed for ``up_s``.

    Flapping is the adversarial case for peer suspicion: the link heals
    before the suspicion decays, so a decider that banned (rather than
    biased against) a suspected peer would never come back.  The last
    up window ends with a step that finds no cycle left.
    """
    isolated = list(isolated)
    if down_s <= 0 or up_s <= 0:
        raise ValueError("flap durations must be positive")
    if cycles < 1:
        raise ValueError("need at least one flap cycle")
    engine = cluster.engine
    topology = cluster.topology
    left = cycles

    def down() -> None:
        nonlocal left
        if not left:
            return
        left -= 1
        topology.partition(isolated)
        engine.call_later(down_s, up, name="fault.flap")

    def up() -> None:
        topology.heal(isolated)
        engine.call_later(up_s, down, name="fault.flap")

    _start_at(engine, at_time_s, down)


def loss_burst_at(
    cluster: Cluster,
    probability: float,
    at_time_s: float,
    duration_s: float,
) -> None:
    """Schedule a timed loss burst: the fabric's loss probability jumps to
    ``probability`` for ``duration_s``, then falls back to the cluster's
    configured base rate.

    Bursts do not stack: each burst's end restores the *base* rate, so
    overlapping bursts simply extend the degraded window at the level of
    whichever burst started last.
    """
    if duration_s <= 0:
        raise ValueError("burst duration must be positive")
    network = cluster.network

    def end() -> None:
        network.set_loss_probability(network.base_loss_probability)

    def start() -> None:
        network.set_loss_probability(probability)
        cluster.engine.call_later(duration_s, end, name="fault.burst-end")

    _start_at(cluster.engine, at_time_s, start)


def duplicate_burst_at(
    cluster: Cluster,
    probability: float,
    at_time_s: float,
    duration_s: float,
) -> None:
    """Schedule a duplication burst: each message sent during the window
    is delivered twice with ``probability``.

    The duplicate carries the same ``msg_id`` -- the adversarial input
    for at-most-once grant application and escrow settlement.  Draws come
    from the dedicated ``net.faults.duplicate`` stream, so arming the
    burst never shifts latency or loss draw positions.  Like loss bursts,
    overlapping windows do not stack: each window's end disarms the
    fault.
    """
    if duration_s <= 0:
        raise ValueError("burst duration must be positive")
    network = cluster.network
    rng = cluster.rngs.stream("net.faults.duplicate")

    def end() -> None:
        network.disable_duplication()

    def start() -> None:
        network.enable_duplication(probability, rng)
        cluster.engine.call_later(duration_s, end, name="fault.burst-end")

    _start_at(cluster.engine, at_time_s, start)


def reorder_burst_at(
    cluster: Cluster,
    window_s: float,
    at_time_s: float,
    duration_s: float,
) -> None:
    """Schedule a reordering burst: messages sent during the window get
    uniform extra delay in ``[0, window_s)``, inverting arrival order
    between messages sent close together.

    Draws come from the dedicated ``net.faults.reorder`` stream.
    Overlapping windows do not stack: each window's end disarms the
    fault.
    """
    if duration_s <= 0:
        raise ValueError("burst duration must be positive")
    network = cluster.network
    rng = cluster.rngs.stream("net.faults.reorder")

    def end() -> None:
        network.disable_reordering()

    def start() -> None:
        network.enable_reordering(window_s, rng)
        cluster.engine.call_later(duration_s, end, name="fault.burst-end")

    _start_at(cluster.engine, at_time_s, start)


def clock_drift_at(
    cluster: Cluster,
    manager: "PowerManager",
    node_id: int,
    rate: float,
    at_time_s: float,
) -> None:
    """Schedule clock drift on ``node_id``: from ``at_time_s`` on, the
    node's local timers run scaled by ``1 + rate``.

    Positive rates make the node's clock *slow* (its periods stretch, it
    ticks and probes late); negative rates make it fast.  The drift goes
    through the manager (like restarts), which scales the node's decider
    and detector timers and keeps the scale across crash-restarts.
    """
    run_callable_at(
        cluster.engine,
        at_time_s,
        lambda: manager.set_clock_drift(node_id, rate),
        name="fault.clock-drift",
    )


def slow_node_at(
    cluster: Cluster,
    node_id: int,
    factor: float,
    at_time_s: float,
    duration_s: Optional[float] = None,
) -> None:
    """Schedule a gray-slow node: every message ``node_id`` sends or
    receives takes ``factor``x longer, from ``at_time_s`` until
    ``duration_s`` later (or the end of the run when ``None``).

    The node stays alive and correct -- the degraded-but-not-dead case
    failure detectors chronically mis-classify.
    """
    network = cluster.network

    def end() -> None:
        network.clear_node_slowdown(node_id)

    def start() -> None:
        network.set_node_slowdown(node_id, factor)
        if duration_s is not None:
            cluster.engine.call_later(duration_s, end, name="fault.slow-end")

    _start_at(cluster.engine, at_time_s, start)


@dataclass
class FaultPlan:
    """A declarative set of faults applied to a cluster.

    Attributes
    ----------
    node_kills:
        ``(node_id, at_time_s)`` pairs.
    partitions:
        ``(isolated_ids, at_time_s, heal_after_s_or_None)`` triples.
    restarts:
        ``(node_id, at_time_s)`` pairs; require a manager at install time.
    flaps:
        ``(isolated_ids, at_time_s, down_s, up_s, cycles)`` tuples.
    loss_bursts:
        ``(probability, at_time_s, duration_s)`` triples.
    duplicate_bursts:
        ``(probability, at_time_s, duration_s)`` triples.
    reorder_bursts:
        ``(window_s, at_time_s, duration_s)`` triples.
    clock_drifts:
        ``(node_id, rate, at_time_s)`` triples; require a manager at
        install time (the manager owns the node's timers).
    slow_nodes:
        ``(node_id, factor, at_time_s, duration_s_or_None)`` tuples.

    Ordering contract
    -----------------
    :meth:`install` arms faults in **declaration order, not time order**:
    category by category (kills, then partitions, restarts, flaps, loss
    bursts, duplicate bursts, reorder bursts, clock drifts, slow nodes),
    list order within each category.  Because the engine breaks
    timestamp ties by trigger sequence, faults scheduled for the same
    instant *fire* in exactly that arming order -- e.g. a kill and a
    partition both at t=5 apply the kill first.  Callers who need a
    different same-instant order must encode it in the fault times; the
    contract is what makes identically-seeded chaos schedules replay
    identically.
    """

    node_kills: List[Tuple[int, float]] = field(default_factory=list)
    partitions: List[Tuple[Tuple[int, ...], float, Optional[float]]] = field(
        default_factory=list
    )
    restarts: List[Tuple[int, float]] = field(default_factory=list)
    flaps: List[Tuple[Tuple[int, ...], float, float, float, int]] = field(
        default_factory=list
    )
    loss_bursts: List[Tuple[float, float, float]] = field(default_factory=list)
    # The adversarial categories postdate the cached results: their JSON
    # leaves them out while empty, so older plans keep their cache keys.
    duplicate_bursts: List[Tuple[float, float, float]] = field(
        default_factory=list, metadata={"omit_default": True}
    )
    reorder_bursts: List[Tuple[float, float, float]] = field(
        default_factory=list, metadata={"omit_default": True}
    )
    clock_drifts: List[Tuple[int, float, float]] = field(
        default_factory=list, metadata={"omit_default": True}
    )
    slow_nodes: List[Tuple[int, float, float, Optional[float]]] = field(
        default_factory=list, metadata={"omit_default": True}
    )

    def kill(self, node_id: int, at_time_s: float) -> "FaultPlan":
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        self.node_kills.append((node_id, at_time_s))
        return self

    def partition(
        self,
        isolated: Sequence[int],
        at_time_s: float,
        heal_after_s: Optional[float] = None,
    ) -> "FaultPlan":
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        self.partitions.append((tuple(isolated), at_time_s, heal_after_s))
        return self

    def restart(self, node_id: int, at_time_s: float) -> "FaultPlan":
        """Crash-restart ``node_id`` at ``at_time_s`` (after its kill)."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        self.restarts.append((node_id, at_time_s))
        return self

    def flap(
        self,
        isolated: Sequence[int],
        at_time_s: float,
        down_s: float,
        up_s: float,
        cycles: int,
    ) -> "FaultPlan":
        """Flap a partition: ``cycles`` × (down ``down_s``, up ``up_s``)."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        if down_s <= 0 or up_s <= 0:
            raise ValueError("flap durations must be positive")
        if cycles < 1:
            raise ValueError("need at least one flap cycle")
        self.flaps.append((tuple(isolated), at_time_s, down_s, up_s, cycles))
        return self

    def loss_burst(
        self, probability: float, at_time_s: float, duration_s: float
    ) -> "FaultPlan":
        """Raise the fabric loss rate to ``probability`` for ``duration_s``."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        if not (0.0 <= probability < 1.0):
            raise ValueError(f"loss probability out of [0, 1): {probability!r}")
        if duration_s <= 0:
            raise ValueError("burst duration must be positive")
        self.loss_bursts.append((probability, at_time_s, duration_s))
        return self

    def duplicate_burst(
        self, probability: float, at_time_s: float, duration_s: float
    ) -> "FaultPlan":
        """Deliver messages twice with ``probability`` for ``duration_s``."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        if not (0.0 <= probability < 1.0):
            raise ValueError(
                f"duplication probability out of [0, 1): {probability!r}"
            )
        if duration_s <= 0:
            raise ValueError("burst duration must be positive")
        self.duplicate_bursts.append((probability, at_time_s, duration_s))
        return self

    def reorder_burst(
        self, window_s: float, at_time_s: float, duration_s: float
    ) -> "FaultPlan":
        """Jitter message latency by up to ``window_s`` for ``duration_s``."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        if window_s <= 0:
            raise ValueError(f"reorder window must be positive: {window_s!r}")
        if duration_s <= 0:
            raise ValueError("burst duration must be positive")
        self.reorder_bursts.append((window_s, at_time_s, duration_s))
        return self

    def clock_drift(
        self, node_id: int, rate: float, at_time_s: float
    ) -> "FaultPlan":
        """Scale ``node_id``'s local timers by ``1 + rate`` from ``at_time_s``."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        if 1.0 + rate <= 0.0:
            raise ValueError(f"drift rate must keep the clock running: {rate!r}")
        self.clock_drifts.append((node_id, rate, at_time_s))
        return self

    def slow_node(
        self,
        node_id: int,
        factor: float,
        at_time_s: float,
        duration_s: Optional[float] = None,
    ) -> "FaultPlan":
        """Multiply ``node_id``'s network latency by ``factor`` (gray-slow)."""
        if at_time_s < 0:
            raise ValueError("fault time must be non-negative")
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive: {factor!r}")
        if duration_s is not None and duration_s <= 0:
            raise ValueError("slowdown duration must be positive")
        self.slow_nodes.append((node_id, factor, at_time_s, duration_s))
        return self

    # -- ground truth for detector metrics -----------------------------------

    def dead_intervals(self, horizon_s: float) -> List[Tuple[int, float, float]]:
        """Per kill: ``(node_id, killed_at, revived_at-or-horizon)``.

        The ground truth a failure detector is scored against: each kill
        opens an interval that closes at the node's next scheduled
        restart (the earliest restart of that node strictly after the
        kill; each restart closes at most one interval) or at the
        sweep horizon.  Sorted by kill time, then node id.
        """
        restarts = sorted(self.restarts, key=lambda r: (r[1], r[0]))
        used = [False] * len(restarts)
        intervals: List[Tuple[int, float, float]] = []
        for node_id, killed_at in sorted(self.node_kills, key=lambda k: (k[1], k[0])):
            end = horizon_s
            for index, (restart_id, restart_at) in enumerate(restarts):
                if not used[index] and restart_id == node_id and restart_at > killed_at:
                    end = min(restart_at, horizon_s)
                    used[index] = True
                    break
            intervals.append((node_id, killed_at, end))
        return intervals

    def heal_times(self, horizon_s: float) -> List[float]:
        """Every instant the fabric heals a partition, within the horizon.

        Covers explicit partitions with a heal delay and each up-edge of
        a flapping partition; the detector's view-convergence metric is
        measured from the *last* of these.
        """
        heals = [
            at + heal_after
            for _, at, heal_after in self.partitions
            if heal_after is not None and at + heal_after <= horizon_s
        ]
        for _, at, down_s, up_s, cycles in self.flaps:
            for cycle in range(cycles):
                heal = at + cycle * (down_s + up_s) + down_s
                if heal <= horizon_s:
                    heals.append(heal)
        return sorted(heals)

    @property
    def is_empty(self) -> bool:
        return not (
            self.node_kills
            or self.partitions
            or self.restarts
            or self.flaps
            or self.loss_bursts
            or self.duplicate_bursts
            or self.reorder_bursts
            or self.clock_drifts
            or self.slow_nodes
        )

    def install(
        self, cluster: Cluster, manager: Optional["PowerManager"] = None
    ) -> None:
        """Arm every fault on ``cluster``.

        Arming order is the declaration order documented on the class
        (category, then list position) -- same-instant faults fire in
        that order.  Restarts go through ``manager.revive_node`` and
        clock drifts through ``manager.set_clock_drift``, so both require
        ``manager``.
        """
        if (self.restarts or self.clock_drifts) and manager is None:
            raise ValueError(
                "fault plan contains restarts or clock drifts; "
                "install needs a manager"
            )
        if self.loss_bursts:
            # Loss draws will interleave with latency draws on the
            # network's stream; pre-drawn latency factors would shift
            # them (install runs before traffic, so the buffer is empty).
            cluster.network.disable_latency_buffering()
        for node_id, at in self.node_kills:
            kill_node_at(cluster, node_id, at)
        for isolated, at, heal in self.partitions:
            partition_at(cluster, isolated, at, heal)
        if manager is not None:
            for node_id, at in self.restarts:
                restart_node_at(cluster, manager, node_id, at)
        for isolated, at, down, up, cycles in self.flaps:
            flap_partition_at(cluster, isolated, at, down, up, cycles)
        for probability, at, duration in self.loss_bursts:
            loss_burst_at(cluster, probability, at, duration)
        for probability, at, duration in self.duplicate_bursts:
            duplicate_burst_at(cluster, probability, at, duration)
        for window, at, duration in self.reorder_bursts:
            reorder_burst_at(cluster, window, at, duration)
        if manager is not None:
            for node_id, rate, at in self.clock_drifts:
                clock_drift_at(cluster, manager, node_id, rate, at)
        for node_id, factor, at, duration in self.slow_nodes:
            slow_node_at(cluster, node_id, factor, at, duration)
