"""Ordering proof for the event queue: the heap vs a brute-force model.

The determinism contract (DESIGN.md) says the event queue is a *total
order* over ``(time, priority, sequence)`` -- the scheduler is just a
container for it.  These tests hold :class:`HeapScheduler` to that
contract against :class:`_ModelQueue`, a test-local reference that
keeps a plain list, drops cancelled entries and sorts on every
dequeue:

* **Scheduler level** (hypothesis): randomized push/pop/pop_due/peek/
  cancel workloads with clustered timestamps, duplicate times and
  priority ties must produce the identical operation-by-operation
  transcript on the heap and the model, shrinking to minimal
  counterexamples.
* **Engine level** (hypothesis): random schedules of timeouts,
  callbacks, cancellations, interrupts and zero-delay chains driven
  through ``Engine.run`` must process in the same order with the same
  final clock and counters when the engine's queue is the model.

Whole scenarios are pinned byte-for-byte by the fixture tests in
``test_fixture_byte_identity.py`` and ``test_experiments_chaos.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.schedulers import HeapScheduler


class _ModelQueue:
    """Brute-force reference queue: a plain list, sorted on every dequeue.

    Cancelled entries are filtered out before each look at the head, so
    the head is always the least live ``(time, priority, sequence)``
    key.  Implements the interface the engine uses.
    """

    def __init__(self) -> None:
        self.items: list = []

    def push(self, item) -> None:
        self.items.append(item)

    def _live(self) -> list:
        self.items = sorted(
            (item for item in self.items if not item[3]._cancelled),
            key=lambda item: item[:3],
        )
        return self.items

    def pop(self):
        live = self._live()
        return live.pop(0) if live else None

    def pop_due(self, horizon):
        live = self._live()
        return live.pop(0) if live and live[0][0] <= horizon else None

    def peek(self):
        live = self._live()
        return live[0] if live else None

    def note_cancelled(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._live())


# ---------------------------------------------------------------------------
# Scheduler-level workloads
# ---------------------------------------------------------------------------


class _FakeEvent:
    """Just enough of EventBase for a scheduler: a cancellation flag.

    ``popped`` tracks whether the entry already left the queue, so the
    workload only cancels *queued* entries -- mirroring the engine,
    where ``cancel()`` raises once an event has been processed and
    ``note_cancelled`` therefore fires exactly once per queued entry.
    """

    __slots__ = ("_cancelled", "popped", "tag")

    def __init__(self, tag: int) -> None:
        self._cancelled = False
        self.popped = False
        self.tag = tag


#: Clustered delays: a small grid (duplicate timestamps, zero delays)
#: plus occasional arbitrary floats.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.001, 0.001, 0.25, 0.25, 1.0, 5.0, 40.0]),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _delays, st.integers(0, 1)),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(st.just("pop_due"), _delays, st.just(0)),
        st.tuples(st.just("peek"), st.just(0), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(0, 200), st.just(0)),
    ),
    min_size=1,
    max_size=200,
)


def _run_ops(scheduler, ops):
    """Interpret an op list against one queue; return the transcript.

    Pushes respect the engine's no-past-scheduling guarantee: times are
    ``now + delay`` where ``now`` advances to each popped entry's time
    (and to the horizon on ``pop_due``, mirroring ``run(until=...)``).
    """
    transcript = []
    events = []
    now = 0.0
    sequence = 0
    for op, arg, priority in ops:
        if op == "push":
            event = _FakeEvent(sequence)
            events.append(event)
            scheduler.push((now + arg, priority, sequence, event))
            sequence += 1
        elif op == "pop":
            item = scheduler.pop()
            if item is not None:
                now = item[0]
                item[3].popped = True
            transcript.append(("pop", _key(item)))
        elif op == "pop_due":
            horizon = now + arg
            item = scheduler.pop_due(horizon)
            if item is not None:
                item[3].popped = True
            now = item[0] if item is not None else horizon
            transcript.append(("pop_due", _key(item)))
        elif op == "peek":
            transcript.append(("peek", _key(scheduler.peek())))
        elif op == "cancel":
            if events:
                event = events[arg % len(events)]
                if not event.popped and not event._cancelled:
                    event._cancelled = True
                    scheduler.note_cancelled()
        transcript.append(("len", len(scheduler)))
    # Drain what is left so every queued entry's position is compared.
    while True:
        item = scheduler.pop()
        transcript.append(("drain", _key(item)))
        if item is None:
            return transcript


def _key(item):
    if item is None:
        return None
    time, priority, sequence, event = item
    # The final field doubles as an assertion: surfaced entries are
    # never cancelled under the eager-accounting contract.
    return (time, priority, sequence, event.tag, event._cancelled)


class TestSchedulerDifferential:
    @given(ops=_ops)
    @settings(max_examples=300, deadline=None)
    def test_heap_matches_model_transcript(self, ops):
        assert _run_ops(HeapScheduler(), ops) == _run_ops(_ModelQueue(), ops)

    def test_far_future_entries_sort_last(self):
        heap, model = HeapScheduler(), _ModelQueue()
        for scheduler in (heap, model):
            scheduler.push((float("inf"), 1, 0, _FakeEvent(0)))
            scheduler.push((1.0, 1, 1, _FakeEvent(1)))
            scheduler.push((float("inf"), 1, 2, _FakeEvent(2)))
        order_heap = [heap.pop()[2] for _ in range(3)]
        order_model = [model.pop()[2] for _ in range(3)]
        assert order_heap == order_model == [1, 0, 2]


# ---------------------------------------------------------------------------
# Engine-level workloads
# ---------------------------------------------------------------------------

_schedule = st.lists(
    st.tuples(
        st.sampled_from(["timeout", "callback", "cancelled", "chain", "interrupt"]),
        _delays,
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=40,
)


def _engine_trace(schedule, horizon, model=False):
    """Run one synthetic workload; return (trace, now, processed, cancelled).

    With ``model`` the engine's queue is swapped for :class:`_ModelQueue`
    before anything is scheduled.
    """
    engine = Engine()
    if model:
        engine._scheduler = _ModelQueue()
        engine._push = engine._scheduler.push
    trace = []

    def note(tag):
        trace.append((engine.now, tag))

    for index, (kind, delay, width) in enumerate(schedule):
        if kind == "timeout":
            def proc(index=index, delay=delay):
                yield engine.timeout(delay)
                note(("timeout", index))
            engine.process(proc())
        elif kind == "callback":
            engine.call_later(delay, note, ("callback", index))
        elif kind == "cancelled":
            # Cancel strictly before the timeout would fire, so the entry
            # is lazily discarded by the queue.
            timeout = engine.timeout(delay + 1.0)
            engine.call_later(delay / 2.0, timeout.cancel)
        elif kind == "chain":
            # Zero-delay chain: each link re-schedules at the same instant.
            def link(remaining, index=index):
                note(("chain", index, remaining))
                if remaining:
                    engine.call_later(0.0, link, remaining - 1)
            engine.call_later(delay, link, width)
        elif kind == "interrupt":
            def sleeper(index=index):
                try:
                    yield engine.timeout(1e9)
                except Exception:
                    note(("interrupted", index))
            victim = engine.process(sleeper())
            engine.call_later(delay, victim.interrupt, "diff-rig")
    engine.run(until=horizon)
    return trace, engine.now, engine.processed_events, engine.cancelled_events


class TestEngineDifferential:
    @given(schedule=_schedule, horizon=st.floats(1.0, 500.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_processing_order_clock_and_counters_match(self, schedule, horizon):
        heap = _engine_trace(schedule, horizon)
        assert heap == _engine_trace(schedule, horizon, model=True)
