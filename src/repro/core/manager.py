"""PenelopeManager: one decider + one pool per node, no server anywhere."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.batcher import TickBatcher
from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.instrumentation import MetricsRecorder
from repro.managers.base import PowerManager
from repro.membership.detector import FailureDetector
from repro.membership.view import TransitionLog
from repro.net.roster import Roster


@dataclass(frozen=True)
class ConservationLedger:
    """Where every watt of the budget sits at one instant.

    The invariant (the chaos auditor's oracle)::

        budget == caps_live + pooled + in_flight + write_offs

    ``in_flight`` is the *signed* granted-minus-applied sum: escrow
    refunds can drive it negative exactly when a refund duplicated an
    applied grant (lost ack), and that negative term cancels the
    duplicate watts sitting in caps/pools -- so equality holds at every
    instant, under every drop pattern, without reference trajectories.
    ``write_offs`` are the explicit dead-node entries (frozen cap + pool
    balance at crash time), spent when the node is revived.
    """

    time: float
    budget_w: float
    caps_live_w: float
    caps_dead_w: float
    pooled_w: float
    escrow_w: float
    in_flight_w: float
    write_offs_w: float
    reclaim_debt_w: float

    #: Absolute slack tolerated by :meth:`check` (float summation noise
    #: over ~1e5 balanced ledger mutations stays orders below this).
    TOLERANCE_W = 1e-6

    @property
    def accounted_w(self) -> float:
        return self.caps_live_w + self.pooled_w + self.in_flight_w + self.write_offs_w

    @property
    def residual_w(self) -> float:
        """Budget minus accounted; nonzero means watts were created or
        destroyed."""
        return self.budget_w - self.accounted_w

    def check(self) -> None:
        """Raise ``AssertionError`` unless conservation holds exactly."""
        if abs(self.residual_w) > self.TOLERANCE_W:
            raise AssertionError(
                f"budget conservation violated at t={self.time:.3f}s: "
                f"residual {self.residual_w:+.9f} W "
                f"(budget={self.budget_w:.3f}, caps={self.caps_live_w:.3f}, "
                f"pooled={self.pooled_w:.3f}, in-flight={self.in_flight_w:.3f}, "
                f"escrow={self.escrow_w:.3f}, write-offs={self.write_offs_w:.3f}, "
                f"debt={self.reclaim_debt_w:.3f})"
            )


class PenelopeManager(PowerManager):
    """The paper's contribution behind the common manager interface.

    ``install`` creates a :class:`~repro.core.pool.PowerPool` and a
    :class:`~repro.core.decider.LocalDecider` on every client node; there
    is no coordinator.  Killing any one node removes exactly one pool and
    one decider -- the property behind the §4.4 fault-tolerance result --
    and records the node's frozen cap plus pool balance in the write-off
    ledger, which :meth:`revive_node` later spends to bring the node back
    (at most at its initial cap) without creating a single watt.
    """

    name = "penelope"

    def __init__(
        self,
        config: Optional[PenelopeConfig] = None,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        super().__init__(config=config or PenelopeConfig(), recorder=recorder)
        self.config: PenelopeConfig
        self.pools: Dict[int, PowerPool] = {}
        self.deciders: Dict[int, LocalDecider] = {}
        #: Per-node failure detectors (populated when ``enable_membership``).
        self.detectors: Dict[int, FailureDetector] = {}
        #: Transition logs of detector generations replaced via revive
        #: (the live ones are ``detectors[n].view.log``).
        self.retired_logs: List[TransitionLog] = []
        #: Outstanding dead-node write-offs: node id -> watts (frozen cap
        #: + forfeited pool balance, recorded at kill, spent at revive).
        self.write_offs: Dict[int, float] = {}
        #: Granted/applied totals of agents replaced by revives; keeping
        #: them preserves the signed in-flight term across generations.
        self._retired_granted_w = 0.0
        self._retired_applied_w = 0.0
        #: Per-node revive count; revived agents draw fresh RNG streams
        #: (``penelope.pool.<id>.gen<k>``) because the registry caches
        #: generator objects by name.
        self._generation: Dict[int, int] = {}
        #: Batched tick driver (``Engine.batched_ticks``); ``None`` means
        #: every decider runs its own per-node loop.
        self._batcher: Optional[TickBatcher] = None
        #: Per-node clock scale (1 + drift rate) for nodes with drifting
        #: clocks; survives crash-restarts (a revived node's replacement
        #: agents inherit the drift -- the fault is in the hardware, not
        #: the daemon).
        self._clock_drift: Dict[int, float] = {}
        #: The client roster, built once at install.  Every node's decider
        #: and detector holds an O(1) view of it, never a copy.
        self.roster = Roster(())

    # -- agent wiring -------------------------------------------------------

    def _install_agents(self) -> None:
        assert self.cluster is not None
        self.roster = Roster(self.client_ids)
        kinds = ("pool", "decider")
        if self.config.enable_membership:
            kinds += ("membership",)
        self.cluster.rngs.prepare(
            f"penelope.{kind}.{node_id}" for node_id in self.client_ids for kind in kinds
        )
        for node_id in self.client_ids:
            self._build_agents(node_id, generation=0)

    def _build_agents(self, node_id: int, generation: int) -> None:
        """Create and wire a pool + decider pair for ``node_id``."""
        assert self.cluster is not None
        cluster = self.cluster
        node = cluster.node(node_id)
        suffix = f".gen{generation}" if generation else ""
        detector: Optional[FailureDetector] = None
        if self.config.enable_membership:
            incarnation = 0
            previous = self.detectors.get(node_id)
            if previous is not None:
                # Crash-restart: rejoin one incarnation past the dead
                # generation so peers holding a ``dead`` entry accept the
                # fresh ``alive`` announcement; keep only the old view's
                # transition log, for the chaos report.
                incarnation = previous.view.incarnation + 1
                self.retired_logs.append(previous.view.log)
            detector = FailureDetector(
                cluster.engine,
                cluster.network,
                node_id,
                self.roster,
                self.config,
                cluster.rngs.stream(f"penelope.membership.{node_id}{suffix}"),
                recorder=self.recorder,
                initial_incarnation=incarnation,
            )
            self.detectors[node_id] = detector
        pool = PowerPool(
            cluster.engine,
            cluster.network,
            node_id,
            self.config,
            cluster.rngs.stream(f"penelope.pool.{node_id}{suffix}"),
            recorder=self.recorder,
            membership=detector,
        )
        decider = LocalDecider(
            cluster.engine,
            cluster.network,
            node_id,
            node.rapl,
            pool,
            peers=self.roster,
            initial_cap_w=self.initial_caps[node_id],
            config=self.config,
            rng=cluster.rngs.stream(f"penelope.decider.{node_id}{suffix}"),
            recorder=self.recorder,
            membership=detector,
        )
        self.pools[node_id] = pool
        self.deciders[node_id] = decider
        scale = self._clock_drift.get(node_id)
        if scale is not None:
            decider.clock_scale = scale
            if detector is not None:
                detector.clock_scale = scale
        # A node crash takes its daemons down with it, and the manager
        # books what the crash destroyed (frozen cap + cached power).
        node.on_kill.append(pool.stop)
        node.on_kill.append(decider.stop)
        if detector is not None:
            node.on_kill.append(detector.stop)
        node.on_kill.append(lambda: self._record_write_off(node_id))

    def _start_agents(self) -> None:
        assert self.cluster is not None
        for detector in self.detectors.values():
            detector.start()
        for pool in self.pools.values():
            pool.start()
        engine = self.cluster.engine
        if engine.batched_ticks and TickBatcher.supports(self.config):
            # All deciders share one config (hence one period), so a
            # single batcher drives every tick from one event per period
            # per stagger slot.  Configs whose response timeout outlives
            # the period fall back to per-node loops (see
            # TickBatcher.supports).
            self._batcher = TickBatcher(
                engine, self.config.period_s, tick_slots=engine.tick_slots
            )
        for decider in self.deciders.values():
            self._start_decider(decider)

    def _start_decider(self, decider: LocalDecider) -> None:
        """Start one decider on the batched or per-node path.

        A drifting decider never joins the batcher: the batcher drives
        every member from one shared nominal-period event, which is
        exactly what a drifted clock must not follow.
        """
        if self._batcher is not None and decider.clock_scale == 1.0:
            self._batcher.add(decider)
        else:
            decider.start()

    def _stop_agents(self) -> None:
        for decider in self.deciders.values():
            decider.stop()
        if self._batcher is not None:
            self._batcher.stop()
            self._batcher = None
        for pool in self.pools.values():
            pool.stop()
        for detector in self.detectors.values():
            detector.stop()

    # -- crash accounting and restart ---------------------------------------------

    def _record_write_off(self, node_id: int) -> None:
        """Book a crashed node's destroyed watts (kill callback).

        The node's cap is frozen by the crash and its pool's cached power
        is gone with the host; both move into the write-off ledger so the
        conservation identity stays exact.  Open escrow entries are *not*
        written off -- their watts remain parked in the granted-out term
        until the in-flight grant either applies or evaporates.
        """
        assert self.cluster is not None
        cap_w = self.cluster.node(node_id).rapl.cap_w
        forfeited_w = self.pools[node_id].forfeit_balance()
        watts = cap_w + forfeited_w
        self.write_offs[node_id] = self.write_offs.get(node_id, 0.0) + watts
        self.recorder.bump("manager.write_offs")
        self.recorder.transaction(
            time=self.cluster.engine.now,
            kind="write-off",
            src=node_id,
            dst=node_id,
            watts=watts,
        )

    def revive_node(self, node_id: int) -> None:
        """Crash-restart ``node_id``: fresh executor, pool and decider.

        The restarted node rejoins at its initial cap when the write-off
        covers it (any excess write-off seeds the fresh pool); a node
        that died poorer rejoins at what its write-off can pay -- never
        below the safe minimum, since caps never drop below it -- and
        climbs back via the urgency mechanism.  Budget-neutral by
        construction: exactly the written-off watts are re-injected.
        """
        if self.cluster is None:
            raise RuntimeError("manager not installed")
        if node_id not in self.pools:
            raise ValueError(f"node {node_id} is not a managed client")
        if self.cluster.node(node_id).alive:
            raise RuntimeError(f"node {node_id} is alive")
        write_off_w = self.write_offs.pop(node_id, None)
        if write_off_w is None:
            raise RuntimeError(f"no write-off recorded for node {node_id}")
        # Retire the dead generation's transfer totals so the signed
        # in-flight term survives the agent swap.
        self._retired_granted_w += self.pools[node_id].granted_out_w
        self._retired_applied_w += self.deciders[node_id].applied_grants_w
        self.cluster.revive_node(node_id)
        cap_w = min(self.initial_caps[node_id], write_off_w)
        actual_cap_w = self.cluster.node(node_id).rapl.set_cap(cap_w)
        generation = self._generation.get(node_id, 0) + 1
        self._generation[node_id] = generation
        self._build_agents(node_id, generation=generation)
        leftover_w = write_off_w - actual_cap_w
        if leftover_w > 0:
            self.pools[node_id].deposit(leftover_w)
        if self._started:
            detector = self.detectors.get(node_id)
            if detector is not None:
                detector.start()
            self.pools[node_id].start()
            self._start_decider(self.deciders[node_id])
        self.recorder.bump("manager.revives")

    # -- clock drift ---------------------------------------------------------------

    def set_clock_drift(self, node_id: int, rate: float) -> None:
        """Make ``node_id``'s daemons run their timers scaled by ``1 + rate``.

        Takes effect on the node's next timer: the decider re-reads its
        scale every tick and the detector at every wait.  A decider
        currently driven by the shared :class:`TickBatcher` is moved back
        to its own per-node loop first -- a drifted clock cannot follow
        the batcher's common nominal-period event.  The drift is a
        *hardware* fault, so it survives crash-restarts of the node's
        daemons (see :meth:`_build_agents`).
        """
        decider = self.deciders.get(node_id)
        if decider is None:
            raise ValueError(f"node {node_id} is not a managed client")
        scale = 1.0 + rate
        if scale <= 0:
            raise ValueError(f"drift rate must keep the clock running: {rate!r}")
        self._clock_drift[node_id] = scale
        decider.clock_scale = scale
        detector = self.detectors.get(node_id)
        if detector is not None:
            detector.clock_scale = scale
        if decider._batcher is not None and scale != 1.0:
            decider._batcher.remove(decider)
            decider.start()
        self.recorder.bump("manager.clock_drifts")

    # -- accounting --------------------------------------------------------------

    def pooled_power_w(self) -> float:
        return sum(pool.balance_w for pool in self.pools.values())

    def in_flight_power_w(self) -> float:
        """Signed watts granted by pools minus watts applied by deciders.

        Positive: grants riding the network (or dropped and not yet
        refunded -- escrow returns those to the donor).  Negative: escrow
        refunds that duplicated an applied grant because the *ack* was
        lost; the signed term cancels the duplicate in caps/pools, which
        is what keeps the conservation identity exact.  Late acks reclaim
        the duplicates and pull the term back toward zero.
        """
        granted = self._retired_granted_w + sum(
            pool.granted_out_w for pool in self.pools.values()
        )
        applied = self._retired_applied_w + sum(
            d.applied_grants_w for d in self.deciders.values()
        )
        return granted - applied

    def escrowed_power_w(self) -> float:
        """Watts currently held in open escrow across all pools."""
        return sum(pool.escrow_w for pool in self.pools.values())

    def written_off_power_w(self) -> float:
        """Outstanding dead-node write-offs (spent back at revive)."""
        return sum(self.write_offs.values())

    def reclaim_debt_w(self) -> float:
        return sum(pool.reclaim_debt_w for pool in self.pools.values())

    def ledger(self) -> ConservationLedger:
        """Snapshot the conservation identity (the chaos auditor's probe)."""
        if self.cluster is None:
            raise RuntimeError("manager not installed")
        caps_live = 0.0
        caps_dead = 0.0
        for node_id in self.client_ids:
            node = self.cluster.node(node_id)
            if node.alive:
                caps_live += node.rapl.cap_w
            else:
                caps_dead += node.rapl.cap_w
        return ConservationLedger(
            time=self.cluster.engine.now,
            budget_w=self.budget_w,
            caps_live_w=caps_live,
            caps_dead_w=caps_dead,
            pooled_w=self.pooled_power_w(),
            escrow_w=self.escrowed_power_w(),
            in_flight_w=self.in_flight_power_w(),
            write_offs_w=self.written_off_power_w(),
            reclaim_debt_w=self.reclaim_debt_w(),
        )
