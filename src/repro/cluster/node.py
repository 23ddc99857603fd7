"""One simulated machine: power domain, power source, and a workload executor."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.power.domain import PowerDomainSpec
from repro.power.rapl import SimulatedRapl
from repro.power.sockets import (
    consumed_with_sockets,
    socket_demands_w,
    speed_with_sockets,
)
from repro.power.trace_source import TracePowerSource
from repro.sim.engine import Engine
from repro.sim.events import PRIORITY_URGENT, Event, Handle
from repro.workloads.performance import consumed_power_w, speed_under_cap
from repro.workloads.phases import Phase, Workload
from repro.workloads.traces import PowerTrace


class WorkloadExecutor:
    """Advances a workload's phases at cap-dependent speed.

    The executor is the bridge between the power substrate and the
    application model: whenever the enforced cap or the active phase
    changes it recomputes both the node's power draw (reported into the
    RAPL meter) and the phase's execution speed.

    ``overhead_factor`` models the management daemons stealing capacity
    from the application -- §4.2 measures Penelope's cost at ~1.3 % mean
    slowdown; we model it directly as a speed multiplier.
    """

    def __init__(
        self,
        engine: Engine,
        rapl: SimulatedRapl,
        workload: Workload,
        overhead_factor: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if not (0.0 <= overhead_factor < 1.0):
            raise ValueError(f"overhead_factor out of [0, 1): {overhead_factor!r}")
        self.engine = engine
        self.rapl = rapl
        self.workload = workload
        self.overhead_factor = overhead_factor
        self.name = name or f"exec[{workload.app}]"
        #: Fires with the completion time when the workload finishes.
        self.done: Event = engine.event(name=f"{self.name}.done")
        #: Fires when the workload finishes OR the node is killed -- the
        #: event experiment completion waits on (a killed node's workload
        #: will never finish, §4.4).
        self.settled: Event = engine.event(name=f"{self.name}.settled")
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.killed = False
        #: True from the first step until the workload finishes or dies.
        self._running = False
        self._phase_index = 0
        #: The queued end of the running segment, and what it was
        #: computed from: its start time, speed and the phase's
        #: remaining work at that start.
        self._segment: Optional[Handle] = None
        self._segment_start = 0.0
        self._speed = 0.0
        self._remaining = 0.0
        rapl.on_cap_enforced.append(self._on_cap_enforced)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin executing one urgent zero-delay hop from now."""
        if self.started_at is not None:
            raise RuntimeError(f"{self.name} already started")
        self.started_at = self.engine.now
        self._running = True
        self.engine.call_later(
            0.0, self._begin, name="exec.start", priority=PRIORITY_URGENT
        )

    def kill(self) -> None:
        """Abort execution (node crash): draw drops to zero, no completion."""
        self.killed = True
        self._running = False
        segment = self._segment
        if segment is not None:
            # The executor is the segment's only owner: cancel it rather
            # than leave a dead entry queued for up to a whole segment.
            self._segment = None
            segment.cancel()
        self.rapl.set_consumption(0.0)
        if not self.settled.triggered:
            self.settled.succeed(None)

    @property
    def is_running(self) -> bool:
        return self._running

    @property
    def is_done(self) -> bool:
        return self.finished_at is not None

    @property
    def progress_fraction(self) -> float:
        """Rough progress indicator: completed phases / total phases."""
        return self._phase_index / self.workload.n_phases

    # -- cap notifications ----------------------------------------------------

    def _on_cap_enforced(self, cap_w: float) -> None:
        """Re-time the running segment under the newly enforced cap.

        The segment's queued end is cancelled and the phase's remaining
        work rescheduled at the new speed, in place.  A cap enforced
        before the first step needs nothing: that step reads the cap.
        """
        del cap_w
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        segment.cancel()
        elapsed = self.engine.now - self._segment_start
        self._remaining -= elapsed * self._speed
        if self._remaining > 1e-12:
            self._run_segment()
        else:
            self._run_phases(self._phase_index + 1)

    # -- main loop ----------------------------------------------------------------

    def _phase_speed_and_draw(self, phase: Phase) -> Tuple[float, float]:
        """(speed, draw) for ``phase`` under the currently enforced cap.

        Balanced phases use the node-level model; phases declaring NUMA
        imbalance are evaluated per socket under the RAPL object's cap
        split policy (lockstep threads run at the slowest socket's speed).
        """
        spec = self.rapl.spec
        cap = self.rapl.effective_cap_w
        if phase.imbalance > 0.0 and spec.sockets > 1:
            demands = socket_demands_w(
                phase.demand_w_per_socket, phase.imbalance, spec
            )
            policy = getattr(self.rapl, "socket_split_policy", "even")
            speed = speed_with_sockets(cap, demands, spec, phase.beta, policy)
            draw = consumed_with_sockets(cap, demands, spec, policy)
        else:
            demand = phase.demand_w(spec)
            speed = speed_under_cap(cap, demand, spec.idle_w, phase.beta)
            draw = consumed_power_w(cap, demand, spec.idle_w)
        return speed * (1.0 - self.overhead_factor), draw

    # The executor is a state machine on queue callbacks: one queued entry
    # per segment, the start hop a generator process would take, and a cap
    # change handled in place.

    def _begin(self) -> None:
        if self._running:  # else killed before its first step
            self._run_phases(0)

    def _run_phases(self, index: int) -> None:
        """Run phase ``index`` or the first later one with work left;
        finish when none is left."""
        phases = self.workload.phases
        while index < len(phases):
            self._phase_index = index
            self._remaining = phases[index].work_s
            if self._remaining > 1e-12:
                self._run_segment()
                return
            index += 1
        self._finish()

    def _run_segment(self) -> None:
        """Draw the phase's power and queue the end of its remaining work."""
        speed, draw = self._phase_speed_and_draw(self.workload.phases[self._phase_index])
        self.rapl.set_consumption(draw)
        engine = self.engine
        self._speed = speed
        self._segment_start = engine.now
        self._segment = engine.call_cancellable(
            self._remaining / speed, self._segment_done, name="exec.segment"
        )

    def _segment_done(self) -> None:
        self._segment = None
        self._run_phases(self._phase_index + 1)

    def _finish(self) -> None:
        self._running = False
        self._phase_index = self.workload.n_phases
        self.finished_at = self.engine.now
        self.rapl.set_consumption(self.rapl.spec.idle_w)
        self.done.succeed(self.finished_at)
        if not self.settled.triggered:
            self.settled.succeed(self.finished_at)


class SimNode:
    """A cluster machine: identity, power domain, RAPL, optional workload.

    Given a ``trace``, the node plays that power profile back through a
    :class:`TracePowerSource` instead (§4.5's simulation mode): its
    deciders see the recorded demand, and it hosts no workload.
    """

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        spec: PowerDomainSpec,
        rng: np.random.Generator,
        initial_cap_w: Optional[float] = None,
        enforcement_delay_s: Tuple[float, float] = (0.2, 0.5),
        reading_noise: float = 0.01,
        trace: Optional[PowerTrace] = None,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.spec = spec
        self.rapl: SimulatedRapl
        if trace is None:
            self.rapl = SimulatedRapl(
                engine,
                spec,
                rng,
                initial_cap_w=initial_cap_w,
                enforcement_delay_s=enforcement_delay_s,
                reading_noise=reading_noise,
            )
        else:
            # Typed as the RAPL model because only the workload, kill and
            # revive paths need more than PowerCapInterface, and no caller
            # gives a playback node a workload or a fault.
            self.rapl = TracePowerSource(  # type: ignore[assignment]
                engine, spec, trace, initial_cap_w=initial_cap_w
            )
        self.executor: Optional[WorkloadExecutor] = None
        self.alive = True
        #: Manager agents register teardown callbacks here so that a node
        #: kill also crashes the daemons it hosts.
        self.on_kill: List[Callable[[], None]] = []

    def assign_workload(
        self, workload: Workload, overhead_factor: float = 0.0
    ) -> WorkloadExecutor:
        """Attach (but do not start) a workload executor."""
        if self.executor is not None:
            raise RuntimeError(f"node {self.node_id} already has a workload")
        self.executor = WorkloadExecutor(
            self.engine,
            self.rapl,
            workload,
            overhead_factor=overhead_factor,
            name=f"exec[{workload.app}@{self.node_id}]",
        )
        return self.executor

    def start_workload(self) -> None:
        if self.executor is None:
            raise RuntimeError(f"node {self.node_id} has no workload")
        self.executor.start()

    def kill(self) -> None:
        """Crash the node: application and hosted daemons stop."""
        if not self.alive:
            return
        self.alive = False
        if self.executor is not None:
            self.executor.kill()
        else:
            self.rapl.set_consumption(0.0)
        for callback in list(self.on_kill):
            callback()

    def revive(self) -> None:
        """Restart a crashed node (cold boot).

        The machine comes back empty-handed: kill callbacks are cleared
        (whoever rebuilds daemons re-registers), and the workload -- if
        one was assigned -- is rebuilt from scratch, modelling a batch
        system resubmitting the job; crash progress is lost.  The fresh
        executor is *not* started (callers sequence that), and its
        ``settled`` event is new, so completion events built before the
        crash do not wait on the restarted run.
        """
        if self.alive:
            raise RuntimeError(f"node {self.node_id} is already alive")
        self.alive = True
        self.on_kill.clear()
        old = self.executor
        if old is not None:
            # The dead executor's cap listener would re-time a workload
            # that no longer runs; drop it before rebuilding.
            try:
                self.rapl.on_cap_enforced.remove(old._on_cap_enforced)
            except ValueError:  # pragma: no cover - defensive
                pass
            self.executor = None
            self.assign_workload(old.workload, overhead_factor=old.overhead_factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else "dead"
        return f"<SimNode {self.node_id} {status} cap={self.rapl.cap_w:.1f}W>"
