"""Unit tests for events and conditions."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Handle


class TestEventLifecycle:
    def test_initial_state(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_succeed_sets_value(self, engine):
        event = engine.event()
        event.succeed(7)
        assert event.triggered and event.ok
        assert event.value == 7

    def test_double_succeed_rejected(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_then_succeed_rejected(self, engine):
        event = engine.event()
        event.fail(ValueError("x"))
        event._defused = True
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_processed_after_run(self, engine):
        event = engine.event()
        event.succeed()
        engine.run()
        assert event.processed

    def test_succeed_with_delay_defers_processing(self, engine):
        event = engine.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(engine.now))
        event.succeed(delay=3.0)
        engine.run()
        assert seen == [3.0]

    def test_callbacks_receive_event(self, engine):
        event = engine.event()
        got = []
        event.callbacks.append(got.append)
        event.succeed()
        engine.run()
        assert got == [event]


class TestAnyOf:
    def test_fires_on_first(self, engine):
        fast, slow = engine.timeout(1.0, "fast"), engine.timeout(5.0, "slow")

        def waiter():
            value = yield AnyOf(engine, [fast, slow])
            return value
        proc = engine.process(waiter())
        engine.run()
        assert proc.value.values() == ["fast"]
        assert fast in proc.value

    def test_operator_or(self, engine):
        a, b = engine.timeout(1.0, "a"), engine.timeout(2.0, "b")

        def waiter():
            value = yield a | b
            return value.values()
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == ["a"]

    def test_empty_anyof_fires_immediately(self, engine):
        def waiter():
            yield AnyOf(engine, [])
            return engine.now
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 0.0

    def test_already_processed_subevent(self, engine):
        done = engine.event()
        done.succeed("early")
        engine.run()

        def waiter():
            value = yield AnyOf(engine, [done, engine.timeout(9.0)])
            return value[done]
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == "early"

    def test_failure_propagates(self, engine):
        bad = engine.event()

        def waiter():
            try:
                yield AnyOf(engine, [bad, engine.timeout(9.0)])
            except ValueError as exc:
                return str(exc)
        proc = engine.process(waiter())
        bad.fail(ValueError("sub-failure"))
        engine.run()
        assert proc.value == "sub-failure"


class TestAllOf:
    def test_waits_for_all(self, engine):
        a, b = engine.timeout(1.0, "a"), engine.timeout(5.0, "b")

        def waiter():
            value = yield AllOf(engine, [a, b])
            return (engine.now, value.values())
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (5.0, ["a", "b"])

    def test_operator_and(self, engine):
        a, b = engine.timeout(1.0), engine.timeout(2.0)

        def waiter():
            yield a & b
            return engine.now
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 2.0

    def test_empty_allof_fires_immediately(self, engine):
        def waiter():
            yield AllOf(engine, [])
            return engine.now
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 0.0

    def test_condition_value_len_and_getitem(self, engine):
        a, b = engine.timeout(1.0, "x"), engine.timeout(2.0, "y")

        def waiter():
            value = yield AllOf(engine, [a, b])
            return (len(value), value[a], value[b])
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (2, "x", "y")

    def test_condition_value_missing_key(self, engine):
        a = engine.timeout(1.0)
        other = engine.timeout(1.0)

        def waiter():
            value = yield AllOf(engine, [a])
            with pytest.raises(KeyError):
                _ = value[other]
            return True
        proc = engine.process(waiter())
        engine.run()
        assert proc.value is True

    def test_cross_engine_condition_rejected(self, engine):
        other_engine = Engine()
        foreign = Event(other_engine)
        with pytest.raises(ValueError):
            AllOf(engine, [engine.event(), foreign])


class TestTimeoutCancel:
    def test_cancelled_timeout_never_runs_callbacks(self, engine):
        fired = []
        timeout = engine.timeout(1.0)
        timeout.callbacks.append(fired.append)
        timeout.cancel()
        engine.run()
        assert fired == []
        assert engine.processed_events == 0
        assert engine.cancelled_events == 1
        # A discarded entry does not advance the clock.
        assert engine.now == 0.0

    def test_cancel_after_processing_rejected(self, engine):
        timeout = engine.timeout(0.0)
        engine.run()
        with pytest.raises(RuntimeError):
            timeout.cancel()

    def test_cancelled_head_purged_by_peek(self, engine):
        doomed = engine.timeout(1.0)
        engine.timeout(2.0)
        doomed.cancel()
        assert engine.peek() == 2.0
        assert engine.cancelled_events == 1

    def test_step_raises_when_only_cancelled_left(self, engine):
        doomed = engine.timeout(1.0)
        doomed.cancel()
        with pytest.raises(IndexError):
            engine.step()

    def test_cancelled_event_between_live_events(self, engine):
        order = []
        first = engine.timeout(1.0, value="first")
        doomed = engine.timeout(2.0)
        last = engine.timeout(3.0, value="last")
        for event in (first, last):
            event.callbacks.append(lambda e: order.append(e.value))
        doomed.cancel()
        engine.run()
        assert order == ["first", "last"]
        assert engine.processed_events == 2
        assert engine.cancelled_events == 1


class TestQueuedCalls:
    def test_bare_entry_runs_its_call_and_builds_no_event(self, engine):
        log = []
        assert engine.call_later(1.5, log.append, "ran", name="test.bare") is None
        (entry,) = engine.scheduler._heap
        assert entry[0] == 1.5 and entry[3:] == (log.append, ("ran",))
        engine.run()
        assert log == ["ran"] and engine.now == 1.5
        assert engine.processed_events == 1

    def test_handle_runs_once_and_stops_pending(self, engine):
        log = []
        handle = engine.call_cancellable(1.0, log.append, "ran", name="test.handle")
        assert isinstance(handle, Handle) and handle.pending
        engine.run()
        assert log == ["ran"] and not handle.pending
        handle.cancel()  # after the call ran: a no-op
        assert engine.cancelled_events == 0

    def test_cancelled_handle_never_runs_and_counts_once(self, engine):
        log = []
        handle = engine.call_cancellable(1.0, log.append, "ran", name="test.handle")
        engine.call_later(2.0, log.append, "live", name="test.bare")
        handle.cancel()
        handle.cancel()
        assert not handle.pending
        assert engine.cancelled_events == 1 and len(engine.scheduler) == 1
        engine.run()
        assert log == ["live"] and engine.processed_events == 1

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.call_later(-1.0, print, name="test.bare")
        with pytest.raises(ValueError):
            engine.call_cancellable(-1.0, print, name="test.handle")

    def test_urgent_entry_runs_before_normal_ones_at_its_instant(self, engine):
        from repro.sim import PRIORITY_URGENT

        log = []
        engine.call_later(0.0, log.append, "normal", name="test.bare")
        engine.call_later(
            0.0, log.append, "urgent", name="test.bare", priority=PRIORITY_URGENT
        )
        engine.run()
        assert log == ["urgent", "normal"]
