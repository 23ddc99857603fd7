"""Unit tests for events and conditions."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, FirstOf


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


class TestFirstOf:
    def test_fires_when_first_subevent_processes(self, engine):
        a = engine.timeout(1.0, value="a")
        b = engine.timeout(2.0, value="b")
        wait = FirstOf(engine, a, b)

        def waiter():
            value = yield wait
            return (value, engine.now)

        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (None, 1.0)

    def test_failure_of_first_subevent_propagates(self, engine):
        a = engine.event()
        b = engine.timeout(5.0)
        wait = FirstOf(engine, a, b)

        def waiter():
            try:
                yield wait
            except RuntimeError as exc:
                return str(exc)
            return "no failure"

        proc = engine.process(waiter())
        a.fail(RuntimeError("boom"))
        engine.run()
        assert proc.value == "boom"

    @pytest.mark.parametrize("first_wins, in_place", [(True, True), (False, False)])
    def test_only_the_first_subevent_resumes_in_place(self, engine, first_wins, in_place):
        # The reply (first) resumes the waiter while its own event
        # processes; the deadline (second) queues the completion behind
        # the same-instant event queued after it.
        first, second = engine.event(), engine.event()
        log = []

        def waiter():
            yield FirstOf(engine, first, second)
            log.append("resumed")

        engine.process(waiter())
        engine.run()
        (first if first_wins else second).succeed()
        engine.call_later(0.0, log.append, "same instant")
        engine.run()
        assert log == (
            ["resumed", "same instant"] if in_place else ["same instant", "resumed"]
        )

    def test_late_subevent_failure_is_defused(self, engine):
        a = engine.timeout(1.0)
        b = engine.event()
        FirstOf(engine, a, b)
        b.fail(RuntimeError("late"), delay=2.0)
        engine.run()  # must not raise SimulationError

    def test_processed_subevent_rejected(self, engine):
        a = engine.timeout(0.0)
        engine.run()
        with pytest.raises(RuntimeError):
            FirstOf(engine, a, engine.event())
