"""Cancellation-storm accounting: live size exact, held garbage bounded.

Regression suite for a queue leak where cancelled entries parked
*behind* the queue head were never swept: only head-position entries
were ever discarded, so ``len()`` and the engine's pending-event
accounting overstated queue depth and memory grew without bound in
timeout-heavy chaos runs.

Under the eager-accounting contract (``note_cancelled``):

* ``len(scheduler)`` counts live entries only, immediately;
* pops / peeks never surface a cancelled entry;
* compaction keeps physically-held entries at O(live) no matter where
  the dead entries sit.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.schedulers import HeapScheduler


class _FakeEvent:
    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False


def _raw_size(scheduler: HeapScheduler) -> int:
    """Entries physically held, dead ones included."""
    return len(scheduler._heap)


def _cancel(scheduler: HeapScheduler, event: _FakeEvent) -> None:
    event._cancelled = True
    scheduler.note_cancelled()


class TestStormAccounting:
    def test_storm_behind_the_head_stays_bounded(self) -> None:
        # Entries far behind the queue head -- the leaked population in
        # the original bug -- must still be reclaimed by compaction.
        queue = HeapScheduler()
        live: list[tuple[float, _FakeEvent]] = []
        doomed: list[_FakeEvent] = []
        sequence = 0
        for wave in range(50):
            for k in range(40):
                event = _FakeEvent()
                when = float(wave) + k * 0.02
                queue.push((when, 1, sequence, event))
                sequence += 1
                # Keep one entry per wave; doom the rest.
                if k == 0:
                    live.append((when, event))
                else:
                    doomed.append(event)
            # Interleave cancellations with pushes so dead entries pile
            # up mid-structure, not just at the tail.
            while len(doomed) > 5:
                _cancel(queue, doomed.pop(0))
            assert len(queue) == len(live) + len(doomed)
            # Compaction contract: held garbage is at most the live
            # population (plus the not-yet-compacted remainder, < half).
            assert _raw_size(queue) <= 2 * len(queue) + 1
        for event in doomed:
            _cancel(queue, event)
        assert len(queue) == len(live)
        assert _raw_size(queue) <= 2 * len(queue) + 1
        popped = []
        while True:
            item = queue.pop()
            if item is None:
                break
            assert not item[3]._cancelled
            popped.append((item[0], item[3]))
        assert popped == live
        assert len(queue) == 0 and _raw_size(queue) == 0

    def test_cancel_everything_empties_the_queue(self) -> None:
        queue = HeapScheduler()
        events = [_FakeEvent() for _ in range(500)]
        for sequence, event in enumerate(events):
            queue.push((sequence * 0.5, 1, sequence, event))
        for event in events:
            _cancel(queue, event)
        assert len(queue) == 0
        assert _raw_size(queue) <= 1
        assert queue.peek() is None
        assert queue.pop() is None
        assert queue.pop_due(float("inf")) is None

    def test_pop_due_never_serves_cancelled_mid_storm(self) -> None:
        # Every dequeue entry point -- pop, pop_due and peek -- must skip
        # the cancelled entries, including heads-to-be.
        for via in ("pop", "pop_due", "peek"):
            queue = HeapScheduler()
            events = []
            for sequence in range(300):
                event = _FakeEvent()
                events.append(event)
                queue.push((sequence * 0.1, 1, sequence, event))
            for event in events[::3]:
                _cancel(queue, event)
            served = 0
            horizon = 0.0
            while True:
                if via == "pop":
                    item = queue.pop()
                elif via == "pop_due":
                    item = queue.pop_due(horizon)
                else:
                    item = queue.peek()
                    if item is not None:
                        # Peeking twice is stable; consume the head so
                        # the next peek has to skip the cancelled ones.
                        assert queue.peek() is item
                        assert queue.pop() is item
                if item is None:
                    if via == "pop_due" and horizon < 30.0:
                        horizon += 1.7
                        continue
                    break
                assert not item[3]._cancelled
                served += 1
            assert served == 300 - 100, via
            assert len(queue) == 0


class TestEngineStorm:
    def test_timeout_heavy_run_keeps_queue_lean(self) -> None:
        # The chaos-run shape from the bug report: a long horizon event
        # plus thousands of timeouts that are cancelled before firing
        # (answered requests cancelling their deadlines).  The queue
        # must not accumulate the corpses.
        engine = Engine()
        engine.call_later(1000.0, lambda: None)
        for wave in range(20):
            timeouts = [engine.timeout(500.0 + wave) for _ in range(200)]
            for timeout in timeouts:
                timeout.cancel()
            assert len(engine.scheduler) == 1
            assert _raw_size(engine.scheduler) <= 3
        assert engine.cancelled_events == 20 * 200
        engine.run()
        assert engine.now == 1000.0
        assert engine.processed_events == 1

    def test_cancelled_count_is_eager_and_idempotent(self) -> None:
        engine = Engine()
        timeout = engine.timeout(5.0)
        timeout.cancel()
        assert engine.cancelled_events == 1
        timeout.cancel()  # double-cancel is a no-op, not a double count
        assert engine.cancelled_events == 1
        assert len(engine.scheduler) == 0
