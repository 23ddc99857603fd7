"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import gc

import pytest

from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec, run_single
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.sim.engine import _YOUNG_GC_THRESHOLD, Engine, SimulationError, run_callable_at
from repro.sim.events import Event, Timeout


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(2.5)
        engine.run()
        assert engine.now == 2.5

    def test_run_until_number_advances_exactly(self, engine):
        engine.timeout(1.0)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_past_raises(self, engine):
        engine.timeout(5.0)
        engine.run()
        with pytest.raises(ValueError):
            engine.run(until=1.0)

    def test_peek_empty_queue_is_inf(self, engine):
        assert engine.peek() == float("inf")

    def test_peek_reports_next_event_time(self, engine):
        engine.timeout(3.0)
        engine.timeout(1.0)
        assert engine.peek() == pytest.approx(1.0)

    def test_step_on_empty_queue_raises(self, engine):
        with pytest.raises(IndexError):
            engine.step()


class TestOrdering:
    def test_events_process_in_time_order(self, engine):
        order = []
        for delay in (3.0, 1.0, 2.0):
            def proc(delay=delay):
                yield engine.timeout(delay)
                order.append(delay)
            engine.process(proc())
        engine.run()
        assert order == [1.0, 2.0, 3.0]

    def test_simultaneous_events_process_in_trigger_order(self, engine):
        order = []
        for tag in ("a", "b", "c"):
            def proc(tag=tag):
                yield engine.timeout(1.0)
                order.append(tag)
            engine.process(proc())
        engine.run()
        assert order == ["a", "b", "c"]

    def test_deterministic_event_count(self, engine):
        for _ in range(10):
            engine.timeout(1.0)
        engine.run()
        assert engine.processed_events == 10


class TestRunUntilEvent:
    def test_returns_event_value(self, engine):
        def worker():
            yield engine.timeout(2.0)
            return 42
        proc = engine.process(worker())
        assert engine.run(until=proc) == 42
        assert engine.now == 2.0

    def test_raises_event_failure(self, engine):
        def worker():
            yield engine.timeout(1.0)
            raise ValueError("boom")
        proc = engine.process(worker())
        with pytest.raises(ValueError, match="boom"):
            engine.run(until=proc)

    def test_already_processed_event_returns_immediately(self, engine):
        event = engine.event()
        event.succeed("done")
        engine.run()
        assert engine.run(until=event) == "done"

    def test_queue_drain_before_event_raises(self, engine):
        event = engine.event()  # never triggered
        engine.timeout(1.0)
        with pytest.raises(SimulationError, match="drained"):
            engine.run(until=event)

    def _fail_now(self, engine):
        engine.event().fail(ValueError("boom"))

    def _interrupt_now(self, engine):
        def stop():
            raise KeyboardInterrupt

        engine.call_later(0.0, stop)

    @pytest.mark.parametrize(
        "exit_kind, raises",
        [
            ("drained", SimulationError),
            ("failed", SimulationError),
            ("interrupted", KeyboardInterrupt),
        ],
    )
    @pytest.mark.parametrize("later_until", [None, 5.0])
    def test_abandoned_stop_event_does_not_stop_a_later_run(
        self, engine, exit_kind, raises, later_until
    ):
        # run(until=event) leaves by another exit while the event is
        # still pending; when the event fires in a later run, that run
        # must neither stop early nor leak StopSimulation.
        stop_event = engine.event()
        if exit_kind == "failed":
            self._fail_now(engine)
        elif exit_kind == "interrupted":
            self._interrupt_now(engine)
        with pytest.raises(raises):
            engine.run(until=stop_event)
        stop_event.succeed()
        engine.timeout(1.0)
        engine.run(until=later_until)
        assert engine.now == (1.0 if later_until is None else later_until)
        assert stop_event.processed


class TestFailurePropagation:
    def test_unhandled_event_failure_raises_simulation_error(self, engine):
        event = engine.event()
        event.fail(RuntimeError("unwatched"))
        with pytest.raises(SimulationError):
            engine.run()

    def test_failure_delivered_to_process_is_defused(self, engine):
        event = engine.event()

        def watcher():
            try:
                yield event
            except RuntimeError:
                return "caught"
        proc = engine.process(watcher())
        event.fail(RuntimeError("x"))
        engine.run()
        assert proc.value == "caught"


class TestRunCallableAt:
    def test_runs_at_requested_time(self, engine):
        seen = []
        run_callable_at(engine, 4.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.0]

    def test_past_time_rejected(self, engine):
        engine.timeout(2.0)
        engine.run()
        with pytest.raises(ValueError):
            run_callable_at(engine, 1.0, lambda: None)

    def test_negative_delay_scheduling_rejected(self, engine):
        event = Event(engine)
        with pytest.raises(ValueError):
            engine._schedule(event, delay=-1.0)


class TestFactories:
    def test_event_factory(self, engine):
        event = engine.event(name="e")
        assert not event.triggered and event.name == "e"

    def test_timeout_factory_value(self, engine):
        timeout = engine.timeout(1.0, value="v")

        def waiter():
            got = yield timeout
            return got
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == "v"

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-0.1)


class TestRunUntilHorizon:
    """Micro-regressions for run(until=<number>) boundary behavior.

    Covers events exactly at the horizon and queue heads whose entries
    are all cancelled.
    """

    def test_event_exactly_at_horizon_is_processed(self, engine):
        fired = []
        engine.call_later(5.0, fired.append, "at-horizon")
        engine.call_later(5.000001, fired.append, "past-horizon")
        engine.run(until=5.0)
        assert fired == ["at-horizon"]
        assert engine.now == 5.0

    def test_empty_queue_still_advances_clock_to_until(self, engine):
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_events_past_horizon_stay_queued(self, engine):
        fired = []
        engine.call_later(10.0, fired.append, "later")
        engine.run(until=5.0)
        assert fired == [] and len(engine.scheduler) == 1
        engine.run(until=10.0)
        assert fired == ["later"]

    def test_peek_skips_a_fully_cancelled_head(self, engine):
        # Several same-time entries at the queue head, all cancelled:
        # peek() must lazily discard the whole cluster and report the
        # first live entry behind it.
        doomed = [engine.timeout(1.0) for _ in range(3)]
        survivor_at = 2.0
        engine.timeout(survivor_at)
        for timeout in doomed:
            timeout.cancel()
        assert engine.peek() == survivor_at
        assert engine.cancelled_events == 3
        engine.run()
        assert engine.now == survivor_at

    def test_run_until_horizon_counts_cancelled_entries(self, engine):
        cancelled = engine.timeout(3.0)
        engine.call_later(1.0, cancelled.cancel)
        engine.call_later(4.0, lambda: None)
        engine.run(until=6.0)
        assert engine.cancelled_events == 1
        assert engine.now == 6.0


# -- the collector scope of Engine.run ----------------------------------------

#: A distinctive caller triple, so restoring "the default" by accident fails.
CALLER_THRESHOLDS = (123, 7, 5)


@pytest.fixture
def collector():
    """Pin the caller's collector state for a test, and put it back after."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(*CALLER_THRESHOLDS)
    gc.enable()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def _probe(engine, seen, delay=1.0):
    def body():
        yield engine.timeout(delay)
        seen.append((gc.isenabled(), gc.get_threshold()))

    return engine.process(body())


def _already_processed(engine):
    done = engine.timeout(0.0)
    engine.run(until=0.1)
    assert engine.run(until=done) is None


def _stop_with_failure(engine):
    failing = engine.event()
    engine.call_later(1.0, failing.fail, ValueError("boom"))
    with pytest.raises(ValueError):
        engine.run(until=failing)


def _unhandled_failure(engine):
    engine.event().fail(ValueError("nobody waits for this"))
    with pytest.raises(SimulationError):
        engine.run()


def _drained_before_event(engine):
    with pytest.raises(SimulationError):
        engine.run(until=engine.event())


def _keyboard_interrupt(engine):
    def interrupt():
        raise KeyboardInterrupt

    engine.call_later(1.0, interrupt)
    with pytest.raises(KeyboardInterrupt):
        engine.run()


#: Every way out of ``Engine.run``.
EXIT_PATHS = {
    "horizon": lambda engine: engine.run(until=5.0),
    "drained queue": lambda engine: engine.run(),
    "until event": lambda engine: engine.run(until=engine.timeout(1.0)),
    "until processed event": _already_processed,
    "until failed event": _stop_with_failure,
    "unhandled failure": _unhandled_failure,
    "drained before event": _drained_before_event,
    "keyboard interrupt": _keyboard_interrupt,
    "horizon in the past": lambda engine: pytest.raises(ValueError, engine.run, -1.0),
}


@pytest.mark.usefixtures("collector")
class TestCollectorScope:
    @pytest.mark.parametrize("until", [None, 5.0, "event"])
    def test_dispatch_sees_a_young_threshold(self, engine, until):
        seen = []
        proc = _probe(engine, seen)
        engine.run(until=proc if until == "event" else until)
        assert seen == [(True, (_YOUNG_GC_THRESHOLD, 7, 5))]

    @pytest.mark.parametrize("path", sorted(EXIT_PATHS))
    def test_thresholds_restored_on_every_exit(self, engine, path):
        seen = []
        _probe(engine, seen, delay=0.5)
        EXIT_PATHS[path](engine)
        assert gc.get_threshold() == CALLER_THRESHOLDS
        assert gc.isenabled()
        assert all(inside == (True, (_YOUNG_GC_THRESHOLD, 7, 5)) for inside in seen)

    def test_nested_runs_restore_each_level(self, engine):
        inner_engine = Engine()
        seen = []
        _probe(inner_engine, seen)

        def outer():
            yield engine.timeout(1.0)
            inner_engine.run()
            seen.append(("after inner", gc.get_threshold()))

        engine.process(outer())
        engine.run()
        assert seen == [
            (True, (_YOUNG_GC_THRESHOLD, 7, 5)),
            ("after inner", (_YOUNG_GC_THRESHOLD, 7, 5)),
        ]
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_disabled_collector_stays_disabled_and_untouched(self, engine):
        gc.disable()
        seen = []
        _probe(engine, seen)
        engine.run()
        assert seen == [(False, CALLER_THRESHOLDS)]
        assert not gc.isenabled()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_larger_caller_threshold_is_kept(self, engine):
        gc.set_threshold(50_000, 7, 5)
        seen = []
        _probe(engine, seen)
        engine.run()
        assert seen == [(True, (50_000, 7, 5))]
        assert gc.get_threshold() == (50_000, 7, 5)


# -- collection timing never changes what is simulated ---------------------------

DETERMINISM_SPECS = {
    "penelope-faulty": RunSpec(
        "penelope", ("EP", "DC"), 70.0, n_clients=8, workload_scale=0.3,
        record_caps=True,
        fault_plan=FaultPlan().kill(2, 3.0).partition([1], 1.0, heal_after_s=2.0),
    ),
    "slurm": RunSpec(
        "slurm", ("EP", "DC"), 70.0, n_clients=8, workload_scale=0.3,
        record_caps=True,
    ),
}


@pytest.mark.parametrize("name", sorted(DETERMINISM_SPECS))
def test_collector_off_simulates_the_same_bytes(collector, name):
    """Logic that hung on finalizers, weakrefs or ``id()`` order would differ."""
    spec = DETERMINISM_SPECS[name]
    collected = canonical_json(result_to_dict(run_single(spec)))
    gc.disable()
    uncollected = canonical_json(result_to_dict(run_single(spec)))
    assert not gc.isenabled()
    assert uncollected == collected
