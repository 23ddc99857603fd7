"""The simulation event loop and clock.

The engine owns a queue of entries keyed by ``(time, priority,
sequence)``.  The sequence number makes simultaneous entries process in
the order they were queued, which (together with seeded RNG streams)
makes every simulation fully deterministic.

The queue is a :class:`~repro.sim.schedulers.HeapScheduler`, which
surfaces live entries in exactly that key order
(``tests/test_sim_scheduler_equivalence.py`` checks it against a
brute-force model).  Every entry is ``(time, priority, sequence, fn,
args)`` and processing it is one call, ``fn(*args)``: a bare call
queued by :meth:`Engine.call_later`, a cancellable
:class:`~repro.sim.events.Handle` queued by
:meth:`Engine.call_cancellable`, or a triggered event, which is its own
``fn`` (:mod:`repro.sim.events`).

Hot-path notes
--------------
``run`` inlines the pop/call cycle instead of calling :meth:`step` per
entry: at paper scale the loop dispatches hundreds of thousands of
entries per wall-second, and the per-entry overhead is measurable (see
``python -m bench --workload kernel-10k``).  The loop stores each
entry's time into the plain attribute :attr:`Engine.now`, which every
layer reads directly -- no property call per read.  Entries are pushed
through the pre-bound ``engine._push`` rather than a scheduler method
lookup, and a call nobody waits on or cancels allocates no event object
at all.  Cancelled entries (lazy deletion, :meth:`Handle.cancel
<repro.sim.events.Handle.cancel>`) are counted eagerly at cancel time
-- :meth:`Engine._note_cancelled` -- and the scheduler drops them
internally (at surfacing or in bulk compaction), so they never reach
the dispatch loop and never count toward ``processed_events``.

``run`` also sizes the cyclic garbage collector's young generation for a
discrete-event loop.  Most objects a run allocates are queued waits that
live around one sim-second; at CPython's default generation-0 threshold
(700) they are all promoted into the oldest generation, whose growth
then triggers full collections over every live object of the universe.
So while an engine runs, and while the collector is enabled, it *holds*
the generation-0 threshold at ``max(current, _YOUNG_GC_THRESHOLD)``;
generations 1 and 2 keep their thresholds, a caller's larger threshold
is kept, and a collector the caller disabled stays disabled and
untouched.  The hold outlives a call that pauses the simulation --
``run(until=<number>)`` returning with events still queued -- because a
sliced run resumes a moment later: restoring 700 in between made the
first allocation after every slice collect the whole young generation,
and those collections cascaded into middle and full ones (EXPERIMENTS.md
has the counts).  The caller's exact thresholds come back when the
engine's last hold ends: a later run that drains the queue, stops on its
``until`` event or raises (``KeyboardInterrupt`` included), an explicit
:meth:`Engine.release_gc_hold`, or the engine being freed.  Several
paused engines share one hold, which ends with the last of them; a
caller that sets new thresholds while an engine holds gets those back
instead.  A builder takes the same hold before the engine first runs
(:meth:`Engine.acquire_gc_hold`): ``harness.build_universe`` does, so a
universe is built, started and run to its first ending exit under one
policy.  Collection never changes what is simulated: nothing
in the kernel depends on finalizers, weak references or ``id()`` order
(``tests/test_sim_engine.py`` runs whole scenarios with and without the
collector and compares the bytes).
"""

from __future__ import annotations

import gc
from itertools import count
from typing import Any, Callable, Optional, Tuple, Union

from repro.sim.config import DEFAULT_TICK_SLOTS, SimConfig, default_batched_ticks
from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Event,
    EventBase,
    Handle,
    SimulationError,
)
from repro.sim.schedulers import HeapScheduler


class StopSimulation(Exception):
    """Internal control-flow exception that stops :meth:`Engine.run`."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


#: Generation-0 collection threshold while an engine runs or is paused
#: (see the module's hot-path notes), and from the moment
#: ``harness.build_universe`` starts building one.  A queued wait (its
#: queue-entry tuple, bound method and arguments) lives about one
#: sim-second, i.e. many thousands of allocations; a build allocates
#: almost only objects that live as long as its universe.  Either way a young collection
#: frees next to nothing, and at 700 its survivors are promoted into
#: generation 2, whose growth triggers full passes over the universe.
#: Measured with ``gc.callbacks`` over the 10 000-node benchmark
#: universe's 100 slices of 0.08 sim-s run as one loop (CPU time, two
#: runs per row, 2-vCPU VM, CPython 3.11.7; no collection freed an
#: object, and peak RSS was 193 MB in every run):
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
#: That loop never allocates between slices.  The benchmark's does (its
#: stopwatch records every slice), and while each return restored the
#: caller's 700, the first allocation after every slice collected the
#: whole young generation.  One ``kernel-10k`` pass of the benchmark,
#: counted between its stopwatch's ``begin`` and ``end`` (raw wall time,
#: two runs per row, seed 2022, same VM; queued hand-offs in both rows):
#:
#: ===============================  ===============  ============  =========
#: policy                           gen 0/1/2 runs   collection s  section s
#: ===============================  ===============  ============  =========
#: 10 000 per call, 700 between     67-74 / 6-7 / 1  2.24-2.36     12.5-12.9
#: 100 000, held while paused       3 / 0 / 0        0.54-0.59     10.6-10.8
#: ===============================  ===============  ============  =========
#:
#: Building a universe, ``build_run`` + ``manager.start`` +
#: ``cluster.start_workloads`` of the benchmark's 10 000-node universe,
#: by how much of that phase the threshold covers (wall time, one fresh
#: process per run, three runs per row at seeds 7 and 2022 each, same
#: VM; outputs identical; the build code is the same in every row):
#:
#: ========================  ===============  ==========  =========
#: threshold                 build gen 0/1/2  build gc s  build s
#: ========================  ===============  ==========  =========
#: 700 throughout            1113 / 101 / 8   0.66-0.78   1.24-1.46
#: 100 000 for build_run     280 / 25 / 2     0.37-0.42   0.94-1.03
#: 100 000 through start     8 / 0 / 1        0.08-0.10   0.64-0.75
#: ========================  ===============  ==========  =========
#:
#: The middle row is ``build_run`` at 100 000 with the caller's 700 back
#: for the start: all but seven of its young collections, and the
#: promotions of the ~850 000-object universe, fall in the start.  So
#: ``build_universe`` hands the engine its hold (the last row), which
#: the universe's first run ends as any run's would.  Holding the policy
#: for an engine's whole lifetime instead, until it is freed, made
#: finished universes wait for a rare full collection: ``campaign-cold``'s
#: peak RSS grew from 49 to 56-61 MB (EXPERIMENTS.md).
_YOUNG_GC_THRESHOLD = 100_000


class _YoungGcHold:
    """The hold every running or paused engine takes on the collector.

    ``holders`` counts the engines holding; ``callers`` are the
    thresholds to give back when the count drops to zero, and ``ours``
    the triple the hold left in force.  A triple other than ``ours``
    seen while engines hold was set by the caller, which then owns it:
    the next acquire raises from it and gives it back, and a release
    leaves it alone.
    """

    __slots__ = ("holders", "callers", "ours")

    def __init__(self) -> None:
        self.holders = 0
        self.callers: Optional[Tuple[int, int, int]] = None
        self.ours: Optional[Tuple[int, int, int]] = None

    def acquire(self, engine: "Engine") -> None:
        current = gc.get_threshold()
        if current != self.ours:
            # The first hold, or the caller re-set the thresholds since.
            self.callers = current
            if gc.isenabled() and current[0] < _YOUNG_GC_THRESHOLD:
                current = (_YOUNG_GC_THRESHOLD, current[1], current[2])
                gc.set_threshold(*current)
            self.ours = current
        if not engine._holds_young_gc:
            engine._holds_young_gc = True
            self.holders += 1

    def release(self, engine: "Engine") -> None:
        if not engine._holds_young_gc:
            return
        engine._holds_young_gc = False
        self.holders -= 1
        if self.holders:
            return
        if gc.get_threshold() == self.ours and self.ours != self.callers:
            assert self.callers is not None
            gc.set_threshold(*self.callers)
        self.callers = self.ours = None


_YOUNG_GC_HOLD = _YoungGcHold()


class Engine:
    """Discrete-event simulation engine.

    Typical usage::

        engine = Engine()
        seen = []
        engine.call_later(1.0, seen.append, "done", name="example.done")
        engine.run()
        assert engine.now == 1.0 and seen == ["done"]

    ``sim`` carries the kernel knobs (:class:`~repro.sim.config.SimConfig`);
    ``None`` uses the ambient defaults.
    """

    #: Whether this engine holds the young-generation policy (a class
    #: default, so ``__del__`` of a half-built engine finds it).
    _holds_young_gc = False

    def __init__(
        self, start_time: float = 0.0, sim: Optional[SimConfig] = None
    ) -> None:
        #: Current simulated time in seconds.  A plain attribute: every
        #: layer reads it, and only the dispatch loop (and a numeric
        #: ``run`` horizon) writes it.
        self.now = float(start_time)
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
        #: Monotone counter of processed events (useful for cost accounting
        #: and loop-progress assertions in tests).  Cancelled events are
        #: discarded without being processed and do not count.
        self.processed_events = 0
        #: Events cancelled while queued, counted at cancel time.
        self.cancelled_events = 0

    @property
    def scheduler(self) -> HeapScheduler:
        """The event-queue scheduler driving this engine."""
        return self._scheduler

    # -- factories -----------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create an untriggered :class:`~repro.sim.events.Event`."""
        return Event(self, name=name)

    def call_later(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``fn(*args)`` to run after ``delay`` as a bare entry.

        The entry is the tuple ``(time, priority, sequence, fn, args)``
        and nothing else: nobody can wait on or cancel it, so no event
        object is built.  ``name`` is the call site's constant label
        (lint R6); a bare entry does not keep it -- ``fn`` identifies
        the site.
        """
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay!r}")
        self._push((self.now + delay, priority, next(self._sequence), fn, args))

    def call_cancellable(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Handle:
        """Queue ``fn(*args)`` after ``delay`` behind a cancellable handle.

        Like :meth:`call_later`, but the entry's ``fn`` is a
        :class:`~repro.sim.events.Handle` that keeps ``name`` and whose
        :meth:`~repro.sim.events.Handle.cancel` drops the call unrun.
        """
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay!r}")
        seq = next(self._sequence)
        handle = Handle(self, fn, seq, name)
        self._push((self.now + delay, priority, seq, handle, args))
        return handle

    # -- scheduling ---------------------------------------------------------

    def _note_cancelled(self, sequence: int) -> None:
        """Record the cancellation of queued entry ``sequence`` (called
        by ``cancel()``).

        Counts the cancellation eagerly and tells the scheduler, whose
        live ``len()`` excludes the entry from this point on and which
        compacts itself when dead entries pile up.
        """
        self.cancelled_events += 1
        self._scheduler.note_cancelled(sequence)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        head = self._scheduler.peek()
        return head[0] if head is not None else float("inf")

    def step(self) -> None:
        """Process exactly one entry (advancing the clock to it)."""
        item = self._scheduler.pop()
        if item is None:
            raise IndexError("step() on an empty event queue")
        when, _, _, fn, args = item
        assert when >= self.now, "event queue went backwards"
        self.now = when
        self.processed_events += 1
        fn(*args)

    def run(self, until: Union[None, float, int, EventBase] = None) -> Any:
        """Run the simulation.

        * ``until=None`` -- run until the event queue drains.
        * ``until=<number>`` -- run until simulated time reaches that value
          (the clock is advanced to exactly ``until`` even if no event falls
          on it).
        * ``until=<event>`` -- run until that event is processed and return
          its value (raising if it failed).

        While the engine runs the collector's generation-0 threshold is
        at least :data:`_YOUNG_GC_THRESHOLD`.  A numeric ``until`` that
        returns with events still queued keeps that hold for the next
        call; every other exit, an error included, ends it (see the
        module's hot-path notes).
        """
        _YOUNG_GC_HOLD.acquire(self)
        try:
            result = self._dispatch(until)
        except BaseException:
            _YOUNG_GC_HOLD.release(self)
            raise
        if until is None or isinstance(until, EventBase) or not len(self._scheduler):
            _YOUNG_GC_HOLD.release(self)
        return result

    def acquire_gc_hold(self) -> None:
        """Take this engine's hold on the collector policy before it runs.

        For builders: allocating and starting a universe creates almost
        only objects that live as long as the universe, so the hold pays
        off before the first event.  It ends on the exits that end a
        run's hold -- the first run that drains the queue, stops on its
        event or raises -- or on :meth:`release_gc_hold`, or when the
        engine is freed.
        """
        _YOUNG_GC_HOLD.acquire(self)

    def release_gc_hold(self) -> None:
        """End this engine's hold on the collector policy, if it has one.

        For drivers that stop a simulation at a numeric horizon and are
        done with it: the hold would otherwise last until the engine is
        freed.  Running the engine again takes the hold again.
        """
        _YOUNG_GC_HOLD.release(self)

    def __del__(self) -> None:
        if self._holds_young_gc:
            _YOUNG_GC_HOLD.release(self)

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
                    when, _, _, fn, args = item
                    self.now = when
                    processed += 1
                    fn(*args)
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
                    when, _, _, fn, args = item
                    self.now = when
                    processed += 1
                    fn(*args)
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
        if horizon < self.now:
            raise ValueError(
                f"until={horizon!r} lies in the past (now={self.now!r})"
            )
        pop_due = self._scheduler.pop_due
        try:
            while True:
                item = pop_due(horizon)
                if item is None:
                    break
                when, _, _, fn, args = item
                self.now = when
                processed += 1
                fn(*args)
        finally:
            self.processed_events += processed
        self.now = horizon
        return None


def _stop_callback(event: EventBase) -> None:
    raise StopSimulation(event)


def run_callable_at(
    engine: Engine, when: float, func: Callable[[], Any], name: Optional[str] = None
) -> None:
    """Run the plain callable ``func`` at absolute simulated time ``when``.

    Used by fault injectors and experiment scripts.  It takes an urgent
    zero-delay start hop, whose call queues ``func`` ``when - now``
    later: at ``now + (when - now)``, which is not always the float
    ``when``.  ``name`` is the call site's label (lint R6); like any
    bare entry's, it is not kept.
    """
    if when < engine.now:
        raise ValueError(f"when={when!r} is in the past (now={engine.now!r})")
    engine.call_later(
        0.0, _call_at, engine, when, func, name=name or "sim.call-at",
        priority=PRIORITY_URGENT,
    )


def _call_at(engine: Engine, when: float, func: Callable[[], Any]) -> None:
    """The start hop of :func:`run_callable_at`."""
    engine.call_later(when - engine.now, func, name="sim.call-at")
