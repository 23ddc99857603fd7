"""The simulation event loop and clock.

The engine owns a queue of triggered events keyed by ``(time, priority,
sequence)``.  The sequence number makes simultaneous events process in
trigger order, which (together with seeded RNG streams) makes every
simulation fully deterministic.

The queue is a :class:`~repro.sim.schedulers.HeapScheduler`, which
surfaces live entries in exactly that key order
(``tests/test_sim_scheduler_equivalence.py`` checks it against a
brute-force model).

Hot-path notes
--------------
``run`` inlines the pop/process cycle instead of calling :meth:`step`
per event: at paper scale the loop dispatches hundreds of thousands of
events per wall-second, and the per-event call overhead is measurable
(see ``python -m bench --workload kernel-10k``).  Event constructors
push onto the queue through the pre-bound ``engine._push`` rather than a
scheduler method lookup.  Cancelled events (lazy deletion,
:meth:`repro.sim.events.Timeout.cancel`) are counted eagerly at cancel
time -- :meth:`Engine._note_cancelled` -- and the scheduler drops their
queue entries internally (at surfacing or in bulk compaction), so they
never reach the dispatch loop and never count toward
``processed_events``.

``run`` also sizes the cyclic garbage collector's young generation for a
discrete-event loop.  For the length of each call, when the collector is
enabled, the generation-0 threshold is raised to
``max(current, _YOUNG_GC_THRESHOLD)``; generations 1 and 2 keep their
thresholds.  The previous triple is restored in a ``finally`` on every
exit (horizon, drained queue, ``until=<event>``, errors and
``KeyboardInterrupt``), so nested runs unwind correctly, a caller's larger
threshold is kept, and a collector the caller disabled stays disabled and
untouched.  :func:`raise_young_gc_threshold` is that policy, and
``harness.build_universe`` builds a universe under it too.  The reason:
most objects a run allocates are queued waits that live around one
sim-second.  The default threshold (700) promotes
them all into the oldest generation, whose growth then triggers full
collections over every live object of the universe.  Collection never
changes what is simulated: nothing in the kernel depends on finalizers,
weak references or ``id()`` order (``tests/test_sim_engine.py`` runs
whole scenarios with and without the collector and compares the bytes).
"""

from __future__ import annotations

import gc
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple, Union

from repro.sim.config import DEFAULT_TICK_SLOTS, SimConfig, default_batched_ticks
from repro.sim.events import (
    PRIORITY_NORMAL,
    AllOf,
    AnyOf,
    Callback,
    Event,
    EventBase,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.schedulers import HeapScheduler


class SimulationError(RuntimeError):
    """An unhandled event failure surfaced at the top of the event loop."""


class StopSimulation(Exception):
    """Internal control-flow exception that stops :meth:`Engine.run`."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


#: Generation-0 collection threshold while :meth:`Engine.run` dispatches.
#: A queued wait (its ``Timeout``, heap-entry tuple, callbacks list and
#: bound ``Process._resume``) lives about one sim-second, i.e. many
#: thousands of allocations.  At CPython's default of 700 every one of
#: them survives two young collections and is promoted into generation
#: 2, and those promotions trigger full passes over the whole universe:
#: on the 10 000-node benchmark universe (2-vCPU VM, CPython 3.11),
#: collection took 2.6-3.7 s of a 10-13 s slice pass.  10 000 lets most
#: waits die young and removes every full collection from that pass.
#: Measured with ``gc.callbacks`` over that universe's 100 slices of
#: 0.08 sim-s (CPU time, two runs per row, same VM, CPython 3.11.7; no
#: collection freed an object, and peak RSS was 193 MB in every run):
#:
#: ===============  ===================  ============  ============
#: gen-0 threshold  gen 0/1/2 runs       collection s  slices CPU s
#: ===============  ===================  ============  ============
#: 700              558 / 50 / 4         3.33-3.35     10.9-11.4
#: 10 000           37 / 3 / 0           1.25-1.38     8.5-9.7
#: 30 000           11 / 1 / 0           0.98-1.07     7.9-10.7
#: 100 000          3 / 0 / 0            0.44-0.45     8.3-8.9
#: ===============  ===================  ============  ============
#:
#: A larger threshold thus still saves collection time (~0.9 s per 100
#: slices at 100 000, ~10% of their CPU), but less than the slices'
#: own run-to-run spread (EXPERIMENTS.md has the wall-time sweep); the
#: constant stays until a ``kernel-10k`` comparison resolves it.
#:
#: Building a universe has the opposite profile: nearly everything it
#: allocates lives as long as the universe, so at 700 the collector
#: re-scans the growing universe over and over and frees nothing.
#: ``harness.build_universe`` therefore builds under
#: :func:`raise_young_gc_threshold` with a threshold of 100 000 (after one
#: full collection for large builds; the size cut is tabled there).  The
#: ``kernel-10k`` universe, ``build_run`` + ``manager.start`` +
#: ``cluster.start_workloads`` and then the same 100 slices (wall time,
#: five or six runs per row at seeds 7 and 2022, same VM; outputs identical):
#:
#: =========  ===============  ==========  =========  ===============  ==========  =========
#: build at   build gen 0/1/2  build gc s  build s    slice gen 0/1/2  slice gc s  total s
#: =========  ===============  ==========  =========  ===============  ==========  =========
#: 700        1153 / 104 / 8   0.52-0.62   1.30-1.41  37 / 4 / 0       0.53-0.57   5.75-5.91
#: 100 000    280 / 25 / 2     0.24-0.26   0.73-0.75  38 / 3 / 1       0.71-0.73   5.38-5.53
#: =========  ===============  ==========  =========  ===============  ==========  =========
#:
#: All but seven of the 280 young collections left in that phase
#: run in ``manager.start`` and ``start_workloads``, after the threshold
#: is restored.  The universe still has to be promoted to the oldest
#: generation once, and one full collection of it now falls in the
#: slices, so ~0.17 s of the ~0.58 s the build saves reappears there.
_YOUNG_GC_THRESHOLD = 10_000


def raise_young_gc_threshold(threshold: int, collect_first: bool = False) -> Tuple[int, int, int]:
    """Raise the collector's generation-0 threshold to at least ``threshold``.

    Returns the previous thresholds, which the caller restores with
    ``gc.set_threshold(*saved)`` in a ``finally``.  Generations 1 and 2
    keep their thresholds, a caller's larger threshold is kept, and a
    disabled collector stays disabled and untouched: ``collect_first``
    (one full collection before raising) then does nothing either.

    This is a call, not a context manager, on purpose: a context manager
    is a GC-tracked object allocated while the caller's threshold still
    holds, so each :meth:`Engine.run` of a sliced run would open with a
    young collection (85 instead of 37 per 100 ``kernel-10k`` slices).
    """
    saved = gc.get_threshold()
    if gc.isenabled():
        if collect_first:
            gc.collect()
        if saved[0] < threshold:
            gc.set_threshold(threshold, *saved[1:])
    return saved


class Engine:
    """Discrete-event simulation engine.

    Typical usage::

        engine = Engine()

        def worker(engine):
            yield engine.timeout(1.0)
            return "done"

        proc = engine.process(worker(engine))
        engine.run()
        assert engine.now == 1.0 and proc.value == "done"

    ``sim`` carries the kernel knobs (:class:`~repro.sim.config.SimConfig`);
    ``None`` uses the ambient defaults.
    """

    def __init__(
        self, start_time: float = 0.0, sim: Optional[SimConfig] = None
    ) -> None:
        self._now = float(start_time)
        self._scheduler = HeapScheduler()
        #: Kernel execution-mode flags, read by agent builders (the
        #: Penelope manager checks them to decide whether to drive its
        #: deciders through a :class:`~repro.core.batcher.TickBatcher`).
        if sim is not None:
            self.batched_ticks = sim.effective_batched_ticks()
            self.tick_slots = sim.tick_slots
        else:
            self.batched_ticks = default_batched_ticks()
            self.tick_slots = DEFAULT_TICK_SLOTS
        #: Pre-bound enqueue -- the hottest call in the simulator; event
        #: constructors invoke it directly.
        self._push = self._scheduler.push
        self._sequence = count()
        self._active_process: Optional[Process] = None
        #: Monotone counter of processed events (useful for cost accounting
        #: and loop-progress assertions in tests).  Cancelled events are
        #: discarded without being processed and do not count.
        self.processed_events = 0
        #: Events cancelled while queued, counted at cancel time.
        self.cancelled_events = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if the engine is inside one."""
        return self._active_process

    @property
    def scheduler(self) -> HeapScheduler:
        """The event-queue scheduler driving this engine."""
        return self._scheduler

    # -- factories -----------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create an untriggered :class:`~repro.sim.events.Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`~repro.sim.events.Timeout` firing after ``delay``."""
        return Timeout(self, delay, value=value)

    def call_later(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
    ) -> Callback:
        """Run ``fn(*args)`` after ``delay`` as a single queue event.

        The lightweight replacement for spawning a process that sleeps
        once and acts: one queue entry, no generator.  Used by the network
        (message delivery) and RAPL (cap enforcement) hot paths.
        """
        return Callback(self, delay, fn, *args, name=name)

    def process(
        self,
        generator: Generator[EventBase, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`~repro.sim.process.Process` from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: List[EventBase]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: List[EventBase]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(
        self, event: EventBase, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Put a triggered event on the processing queue."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._push((self._now + delay, priority, next(self._sequence), event))

    def _note_cancelled(self) -> None:
        """Record a queued event's cancellation (called by ``cancel()``).

        Counts the cancellation eagerly and tells the scheduler, whose
        live ``len()`` excludes dead entries from this point on and
        which compacts itself when dead entries pile up.
        """
        self.cancelled_events += 1
        self._scheduler.note_cancelled()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        head = self._scheduler.peek()
        return head[0] if head is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        item = self._scheduler.pop()
        if item is None:
            raise IndexError("step() on an empty event queue")
        when, _, _, event = item
        assert when >= self._now, "event queue went backwards"
        self._now = when
        self.processed_events += 1
        event._process()
        if not event._ok and not event._defused:
            exc = event.value
            raise SimulationError(
                f"unhandled failure of {event!r}: {exc!r}"
            ) from exc

    def run(self, until: Union[None, float, int, EventBase] = None) -> Any:
        """Run the simulation.

        * ``until=None`` -- run until the event queue drains.
        * ``until=<number>`` -- run until simulated time reaches that value
          (the clock is advanced to exactly ``until`` even if no event falls
          on it).
        * ``until=<event>`` -- run until that event is processed and return
          its value (raising if it failed).

        For the length of the call the collector's generation-0 threshold
        is at least :data:`_YOUNG_GC_THRESHOLD` (see the module's hot-path
        notes); the previous thresholds are restored on every exit.
        """
        saved = raise_young_gc_threshold(_YOUNG_GC_THRESHOLD)
        try:
            return self._dispatch(until)
        finally:
            gc.set_threshold(*saved)

    def _dispatch(self, until: Union[None, float, int, EventBase]) -> Any:
        """The event loop behind :meth:`run`."""
        pop = self._scheduler.pop
        # Counter updates are batched in a local and flushed in ``finally``:
        # an instance-attribute read-modify-write per event is measurable
        # at paper scale.
        processed = 0

        if until is None:
            try:
                while True:
                    item = pop()
                    if item is None:
                        break
                    when, _, _, event = item
                    self._now = when
                    processed += 1
                    event._process()
                    if not event._ok and not event._defused:
                        exc = event.value
                        raise SimulationError(
                            f"unhandled failure of {event!r}: {exc!r}"
                        ) from exc
            finally:
                self.processed_events += processed
            return None

        if isinstance(until, EventBase):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            stop_event.callbacks.append(_stop_callback)
            try:
                while True:
                    item = pop()
                    if item is None:
                        raise SimulationError(
                            f"event queue drained before {stop_event!r} fired"
                        )
                    when, _, _, event = item
                    self._now = when
                    processed += 1
                    event._process()
                    if not event._ok and not event._defused:
                        exc = event.value
                        raise SimulationError(
                            f"unhandled failure of {event!r}: {exc!r}"
                        ) from exc
            except StopSimulation as stop:
                event = stop.value
                if not event.ok:
                    raise event.value
                return event.value
            finally:
                self.processed_events += processed
                # Any other exit (drained queue, a failed event,
                # KeyboardInterrupt) leaves the event pending: it must
                # not stop a later run when it fires.
                if stop_event.callbacks is not None:
                    stop_event.callbacks.remove(_stop_callback)

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"until={horizon!r} lies in the past (now={self._now!r})"
            )
        pop_due = self._scheduler.pop_due
        try:
            while True:
                item = pop_due(horizon)
                if item is None:
                    break
                when, _, _, event = item
                self._now = when
                processed += 1
                event._process()
                if not event._ok and not event._defused:
                    exc = event.value
                    raise SimulationError(
                        f"unhandled failure of {event!r}: {exc!r}"
                    ) from exc
        finally:
            self.processed_events += processed
        self._now = horizon
        return None


def _stop_callback(event: EventBase) -> None:
    raise StopSimulation(event)


def run_callable_at(
    engine: Engine, when: float, func: Callable[[], Any], name: Optional[str] = None
) -> Process:
    """Schedule a plain callable to run at absolute simulated time ``when``.

    Convenience used by fault injectors and experiment scripts.  Returns a
    full :class:`Process` (not a bare callback event) so callers can
    interrupt or wait on it.
    """
    if when < engine.now:
        raise ValueError(f"when={when!r} is in the past (now={engine.now!r})")

    def _runner() -> Generator[EventBase, Any, Any]:
        yield engine.timeout(when - engine.now)
        func()

    return engine.process(_runner(), name=name or f"at[{when:g}]")
