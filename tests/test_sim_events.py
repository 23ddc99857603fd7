"""Unit tests for events and queued calls."""

from __future__ import annotations

import pytest

from repro.sim.events import Handle


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


class TestTimeoutCancel:
    """A timeout is a cancellable queued call (a :class:`Handle`)."""

    def test_cancelled_timeout_never_runs_callbacks(self, engine):
        fired = []
        timeout = engine.call_cancellable(1.0, fired.append, "ran", name="test.timeout")
        timeout.cancel()
        engine.run()
        assert fired == []
        assert engine.processed_events == 0
        assert engine.cancelled_events == 1
        # A discarded entry does not advance the clock.
        assert engine.now == 0.0

    def test_cancelled_head_purged_by_peek(self, engine):
        doomed = engine.call_cancellable(1.0, print, name="test.timeout")
        engine.call_later(2.0, print, name="test.bare")
        doomed.cancel()
        assert engine.peek() == 2.0
        assert engine.cancelled_events == 1

    def test_step_raises_when_only_cancelled_left(self, engine):
        doomed = engine.call_cancellable(1.0, print, name="test.timeout")
        doomed.cancel()
        with pytest.raises(IndexError):
            engine.step()

    def test_cancelled_event_between_live_events(self, engine):
        order = []
        engine.call_cancellable(1.0, order.append, "first", name="test.timeout")
        doomed = engine.call_cancellable(2.0, order.append, "doomed", name="test.timeout")
        engine.call_cancellable(3.0, order.append, "last", name="test.timeout")
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
