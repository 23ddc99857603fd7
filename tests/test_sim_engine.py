"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import gc

import pytest

from repro.cluster.faults import FaultPlan
from repro.experiments.allocation import AllocationSpec, run_allocation_point
from repro.experiments.chaos import ChaosSpec, run_chaos_single
from repro.experiments.harness import (
    _BUILD_COLLECT_MIN_CLIENTS,
    RunSpec,
    build_run,
    build_universe,
    run_single,
)
from repro.experiments.scaling import ScalingSpec, run_scaling_point
from repro.experiments.serialize import canonical_json, encode
from repro.sim.engine import (
    _YOUNG_GC_HOLD,
    _YOUNG_GC_THRESHOLD,
    Engine,
    SimulationError,
    run_callable_at,
)
from repro.sim.events import Event


def _timeout(engine, delay, value=None):
    """An event processed ``delay`` from now with ``value``: one queued
    entry, the kernel's timer for ``run(until=...)``."""
    return engine.event().succeed(value, delay=delay)


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, engine):
        _timeout(engine, 2.5)
        engine.run()
        assert engine.now == 2.5

    def test_run_until_number_advances_exactly(self, engine):
        _timeout(engine, 1.0)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_past_raises(self, engine):
        _timeout(engine, 5.0)
        engine.run()
        with pytest.raises(ValueError):
            engine.run(until=1.0)

    def test_peek_empty_queue_is_inf(self, engine):
        assert engine.peek() == float("inf")

    def test_peek_reports_next_event_time(self, engine):
        _timeout(engine, 3.0)
        _timeout(engine, 1.0)
        assert engine.peek() == pytest.approx(1.0)

    def test_step_on_empty_queue_raises(self, engine):
        with pytest.raises(IndexError):
            engine.step()


class TestOrdering:
    def test_events_process_in_time_order(self, engine):
        order = []
        for delay in (3.0, 1.0, 2.0):
            engine.call_later(delay, order.append, delay, name="test.order")
        engine.run()
        assert order == [1.0, 2.0, 3.0]

    def test_simultaneous_events_process_in_trigger_order(self, engine):
        order = []
        for tag in ("a", "b", "c"):
            _timeout(engine, 1.0, tag).callbacks.append(
                lambda event: order.append(event.value)
            )
        engine.run()
        assert order == ["a", "b", "c"]

    def test_deterministic_event_count(self, engine):
        for _ in range(10):
            _timeout(engine, 1.0)
        engine.run()
        assert engine.processed_events == 10


class TestRunUntilEvent:
    def test_returns_event_value(self, engine):
        assert engine.run(until=_timeout(engine, 2.0, 42)) == 42
        assert engine.now == 2.0

    def test_raises_event_failure(self, engine):
        failing = engine.event().fail(ValueError("boom"), delay=1.0)
        with pytest.raises(ValueError, match="boom"):
            engine.run(until=failing)

    def test_already_processed_event_returns_immediately(self, engine):
        event = engine.event()
        event.succeed("done")
        engine.run()
        assert engine.run(until=event) == "done"

    def test_queue_drain_before_event_raises(self, engine):
        event = engine.event()  # never triggered
        _timeout(engine, 1.0)
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
        _timeout(engine, 1.0)
        engine.run(until=later_until)
        assert engine.now == (1.0 if later_until is None else later_until)
        assert stop_event.processed


class TestFailurePropagation:
    def test_unhandled_event_failure_raises_simulation_error(self, engine):
        event = engine.event()
        event.fail(RuntimeError("unwatched"))
        with pytest.raises(SimulationError):
            engine.run()


class TestRunCallableAt:
    def test_runs_at_requested_time(self, engine):
        seen = []
        run_callable_at(engine, 4.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.0]

    def test_fires_at_now_plus_the_remaining_delay(self, engine):
        # The entry is queued at ``now + (when - now)``, which is not
        # always the float ``when``: here it is 0.9000000000000001.
        engine.run(until=0.3)
        seen = []
        run_callable_at(engine, 0.9, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.3 + (0.9 - 0.3)]
        assert seen != [0.9]

    def test_past_time_rejected(self, engine):
        _timeout(engine, 2.0)
        engine.run()
        with pytest.raises(ValueError):
            run_callable_at(engine, 1.0, lambda: None)

    def test_negative_delay_scheduling_rejected(self, engine):
        event = Event(engine)
        with pytest.raises(ValueError):
            event.succeed(delay=-1.0)


class TestFactories:
    def test_event_factory(self, engine):
        event = engine.event(name="e")
        assert not event.triggered and event.name == "e"

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.call_cancellable(-0.1, print, name="test.timeout")


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
        doomed = [
            engine.call_cancellable(1.0, print, name="test.timeout") for _ in range(3)
        ]
        survivor_at = 2.0
        _timeout(engine, survivor_at)
        for timeout in doomed:
            timeout.cancel()
        assert engine.peek() == survivor_at
        assert engine.cancelled_events == 3
        engine.run()
        assert engine.now == survivor_at

    def test_run_until_horizon_counts_cancelled_entries(self, engine):
        cancelled = engine.call_cancellable(3.0, print, name="test.timeout")
        engine.call_later(1.0, cancelled.cancel)
        engine.call_later(4.0, lambda: None)
        engine.run(until=6.0)
        assert engine.cancelled_events == 1
        assert engine.now == 6.0


# -- the collector policy Engine.run holds ----------------------------------------

#: A distinctive caller triple, so restoring "the default" by accident fails.
CALLER_THRESHOLDS = (123, 7, 5)
HELD = (_YOUNG_GC_THRESHOLD, 7, 5)


@pytest.fixture
def collector():
    """Pin the caller's collector state for a test, and put it back after.

    A collection first frees any engine an earlier test left paused, so
    no stale hold outlives its test; the one after frees this test's.
    """
    gc.collect()
    assert _YOUNG_GC_HOLD.holders == 0, "an engine outside this test holds the policy"
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(*CALLER_THRESHOLDS)
    gc.enable()
    yield
    gc.collect()
    assert _YOUNG_GC_HOLD.holders == 0, "the test left an engine holding the policy"
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def _probe(engine, seen, delay=1.0):
    """An event ``delay`` from now that records the collector state."""
    probe = _timeout(engine, delay)
    probe.callbacks.append(
        lambda event: seen.append((gc.isenabled(), gc.get_threshold()))
    )
    return probe


def _paused(engine=None):
    """An engine stopped at a horizon with one event still queued."""
    engine = engine or Engine()
    _timeout(engine, 0.25)
    engine.run(until=engine.now + 0.1)
    return engine


def _already_processed(engine):
    done = _timeout(engine, 0.0)
    engine.run(until=engine.now + 0.1)
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


#: Every way out of ``Engine.run`` that ends its hold.  ``horizon`` is
#: reached after the queue drained (the probe's wait is its last event).
EXIT_PATHS = {
    "horizon": lambda engine: engine.run(until=5.0),
    "drained queue": lambda engine: engine.run(),
    "until event": lambda engine: engine.run(until=_timeout(engine, 1.0)),
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
        assert seen == [(True, HELD)]

    @pytest.mark.parametrize("path", sorted(EXIT_PATHS))
    def test_thresholds_restored_on_every_exit(self, engine, path):
        seen = []
        _probe(engine, seen, delay=0.5)
        EXIT_PATHS[path](engine)
        assert gc.get_threshold() == CALLER_THRESHOLDS
        assert gc.isenabled()
        assert all(inside == (True, HELD) for inside in seen)

    def test_a_paused_run_keeps_the_hold(self):
        engine = _paused()
        assert gc.get_threshold() == HELD
        engine.run(until=0.2)
        assert gc.get_threshold() == HELD
        engine.run()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    @pytest.mark.parametrize("path", sorted(set(EXIT_PATHS) - {"horizon"}))
    def test_a_paused_hold_ends_on_every_other_exit(self, path):
        engine = _paused()
        EXIT_PATHS[path](engine)
        assert gc.get_threshold() == CALLER_THRESHOLDS
        assert gc.isenabled()

    def test_release_ends_the_hold_and_a_later_run_retakes_it(self):
        engine = _paused()
        engine.release_gc_hold()
        assert gc.get_threshold() == CALLER_THRESHOLDS
        engine.release_gc_hold()
        assert gc.get_threshold() == CALLER_THRESHOLDS
        engine.run(until=0.2)
        assert gc.get_threshold() == HELD
        engine.run()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_a_freed_engine_releases_its_hold(self):
        engine = _paused()
        del engine
        assert gc.get_threshold() == HELD  # its queue holds a reference cycle
        gc.collect()
        assert gc.get_threshold() == CALLER_THRESHOLDS
        assert _YOUNG_GC_HOLD.holders == 0

    def test_two_paused_engines_release_only_after_both(self):
        first, second = _paused(), _paused()
        first.run()
        assert gc.get_threshold() == HELD
        first.run(until=1.0)  # drained: takes no new hold
        assert gc.get_threshold() == HELD
        del second
        gc.collect()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_nested_runs_restore_each_level(self, engine):
        inner_engine = Engine()
        seen = []
        _probe(inner_engine, seen)

        def outer():
            inner_engine.run()
            seen.append(("after inner", gc.get_threshold()))

        engine.call_later(1.0, outer, name="test.outer")
        engine.run()
        assert seen == [(True, HELD), ("after inner", HELD)]
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_disabled_collector_stays_disabled_and_untouched(self, engine):
        self._disabled_collector_stays_disabled_and_untouched(engine, pause=False)

    def test_disabled_collector_stays_untouched_while_paused(self, engine):
        self._disabled_collector_stays_disabled_and_untouched(engine, pause=True)

    def _disabled_collector_stays_disabled_and_untouched(self, engine, pause):
        gc.disable()
        seen = []
        _probe(engine, seen)
        if pause:
            engine.run(until=0.5)
            assert gc.get_threshold() == CALLER_THRESHOLDS
        engine.run()
        assert seen == [(False, CALLER_THRESHOLDS)]
        assert not gc.isenabled()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_larger_caller_threshold_is_kept(self, engine):
        self._larger_caller_threshold_is_kept(engine, pause=False)

    def test_larger_caller_threshold_is_kept_while_paused(self, engine):
        self._larger_caller_threshold_is_kept(engine, pause=True)

    def _larger_caller_threshold_is_kept(self, engine, pause):
        larger = (_YOUNG_GC_THRESHOLD * 2, 7, 5)
        gc.set_threshold(*larger)
        seen = []
        _probe(engine, seen)
        if pause:
            engine.run(until=0.5)
            assert gc.get_threshold() == larger
        engine.run()
        assert seen == [(True, larger)]
        assert gc.get_threshold() == larger

    @pytest.mark.parametrize("ending", ["drained", "released", "freed"])
    def test_thresholds_set_while_paused_come_back(self, ending):
        engine = _paused()
        seen = []
        _probe(engine, seen, delay=0.5)
        gc.set_threshold(500, 3, 2)
        if ending == "drained":
            engine.run()
            assert seen == [(True, (_YOUNG_GC_THRESHOLD, 3, 2))]
        elif ending == "released":
            engine.release_gc_hold()
        else:
            del engine
            gc.collect()
        assert gc.get_threshold() == (500, 3, 2)
        assert _YOUNG_GC_HOLD.holders == 0

    def test_thresholds_set_while_two_engines_pause_come_back(self):
        first, second = _paused(), _paused()
        gc.set_threshold(500, 3, 2)
        first.run(until=0.2)  # re-raises from the caller's new triple
        assert gc.get_threshold() == (_YOUNG_GC_THRESHOLD, 3, 2)
        second.run()
        assert gc.get_threshold() == (_YOUNG_GC_THRESHOLD, 3, 2)
        first.run()
        assert gc.get_threshold() == (500, 3, 2)


#: The drivers that stop a simulation at a numeric horizon, at toy sizes.
HORIZON_DRIVERS = {
    "chaos": lambda: run_chaos_single(
        ChaosSpec(n_clients=4, seed=3, duration_s=5.0, workload_scale=0.1, kills=1)
    ),
    "scaling": lambda: run_scaling_point(
        ScalingSpec(manager="penelope", n_clients=8, observe_for_s=5.0, seed=2)
    ),
    "allocation": lambda: run_allocation_point(
        AllocationSpec("penelope", n_clients=4, workload_scale=0.3, observe_s=3.0, seed=3)
    ),
}


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("driver", sorted(HORIZON_DRIVERS))
def test_horizon_drivers_end_the_hold_when_they_return(driver):
    # The result is kept and nothing is collected: the finished engine,
    # still queued in a reference cycle, is not yet freed.
    result = HORIZON_DRIVERS[driver]()
    assert _YOUNG_GC_HOLD.holders == 0
    assert gc.get_threshold() == CALLER_THRESHOLDS
    del result


def _slice_collections(slices):
    """Collections per generation while a 256-node Penelope universe runs
    to 30 sim-s in ``slices`` equal calls, with one tracked allocation
    between calls (as a caller recording each slice makes)."""
    spec = RunSpec("penelope", ("EP", "DC"), 80.0, n_clients=256, seed=2022)
    engine, cluster, manager = build_run(spec)
    manager.start()
    cluster.start_workloads()
    runs = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            runs[info["generation"]] += 1

    marks = []
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(count)
    try:
        for k in range(1, slices + 1):
            engine.run(until=30.0 * k / slices)
            marks.append([k])
    finally:
        gc.callbacks.remove(count)
        engine.release_gc_hold()
    return runs


@pytest.mark.usefixtures("collector")
def test_a_sliced_run_collects_its_older_generations_no_more_than_one_call():
    """Pausing between slices must not hand the young generation back to
    CPython's default threshold: at 700, the first allocation after each
    slice collected it, and those collections cascaded into the older
    generations a single call never reaches (11 young collections and
    one middle-generation one over these 50 slices, none in one call)."""
    whole = _slice_collections(1)
    sliced = _slice_collections(50)
    assert sliced[1] <= whole[1], (sliced, whole)
    assert sliced[2] <= whole[2], (sliced, whole)


# -- the same hold, taken by harness.build_universe ------------------------------


class _BuildProbe:
    """A workload draw that records the collector state inside the build."""

    def __init__(self, fail=False):
        self.fail = fail
        self.inside = None
        self.full_collections = 0

    def __enter__(self):
        # Zeroed generation counts: no automatic full collection can fall
        # between here and the draw, so every one counted is the build's.
        gc.collect()
        gc.callbacks.append(self._count)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._count)

    def _count(self, phase, info):
        if phase == "start" and info["generation"] == 2:
            self.full_collections += 1

    def __call__(self, rngs):
        self.inside = (gc.isenabled(), gc.get_threshold(), self.full_collections)
        if self.fail:
            raise RuntimeError("draw failed")
        return {}


def _build(draw, n_clients=4):
    return build_universe("fair", n_clients, 160.0 * n_clients, 0, draw)


def _started(n_clients=8):
    """A small Penelope universe, built and started but never run."""
    spec = RunSpec("penelope", ("EP", "DC"), 80.0, n_clients=n_clients, seed=2022,
                   workload_scale=0.1)
    engine, cluster, manager = build_run(spec)
    manager.start()
    cluster.start_workloads()
    return engine, cluster, manager


def _drained(engine, cluster, manager):
    manager.stop()  # the deciders would tick forever
    engine.run()


def _until_done(engine, cluster, manager):
    engine.run(until=cluster.completion_event())


def _until_failed_event(engine, cluster, manager):
    failing = engine.event()
    engine.call_later(0.5, failing.fail, ValueError("boom"))
    with pytest.raises(ValueError):
        engine.run(until=failing)


#: The ways a built universe's hold ends, besides a build that raises.
BUILD_HOLD_ENDINGS = {
    "drained": _drained,
    "until event": _until_done,
    "until failed event": _until_failed_event,
    "released": lambda engine, cluster, manager: engine.release_gc_hold(),
}


@pytest.mark.usefixtures("collector")
class TestBuildCollectorPolicy:
    """``build_universe`` takes the engine's hold; the first run ends it."""

    def test_the_hold_lasts_from_build_through_start(self):
        with _BuildProbe() as probe:
            engine, cluster, manager = _build(probe)
        assert probe.inside == (True, HELD, 0)
        assert gc.get_threshold() == HELD
        manager.start()
        cluster.start_workloads()
        assert gc.get_threshold() == HELD
        assert _YOUNG_GC_HOLD.holders == 1
        engine.release_gc_hold()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_a_paused_first_run_keeps_the_builds_hold(self):
        engine, cluster, manager = _started()
        engine.run(until=0.5)
        assert gc.get_threshold() == HELD
        _until_done(engine, cluster, manager)
        assert gc.get_threshold() == CALLER_THRESHOLDS

    @pytest.mark.parametrize("ending", sorted(BUILD_HOLD_ENDINGS))
    def test_the_first_ending_run_releases_the_builds_hold(self, ending):
        BUILD_HOLD_ENDINGS[ending](*_started())
        assert gc.get_threshold() == CALLER_THRESHOLDS
        assert _YOUNG_GC_HOLD.holders == 0

    def test_a_freed_universe_releases_its_hold(self):
        universe = _started()
        del universe
        assert gc.get_threshold() == HELD  # a universe is a reference cycle
        gc.collect()
        assert gc.get_threshold() == CALLER_THRESHOLDS
        assert _YOUNG_GC_HOLD.holders == 0

    def test_thresholds_restored_when_the_build_raises(self):
        with _BuildProbe(fail=True) as probe, pytest.raises(RuntimeError, match="draw failed"):
            _build(probe)
        assert probe.inside[1] == HELD
        # Released by the build itself, not by a later collection.
        assert _YOUNG_GC_HOLD.holders == 0
        assert gc.get_threshold() == CALLER_THRESHOLDS

    def test_larger_caller_threshold_is_kept(self):
        larger = (_YOUNG_GC_THRESHOLD * 2, 7, 5)
        gc.set_threshold(*larger)
        with _BuildProbe() as probe:
            engine, cluster, manager = _build(probe)
        assert probe.inside[1] == larger
        manager.start()
        assert gc.get_threshold() == larger
        engine.run()
        assert gc.get_threshold() == larger

    def test_disabled_collector_stays_disabled_and_never_collects(self):
        gc.disable()
        with _BuildProbe() as probe:
            engine, cluster, manager = _build(probe, n_clients=_BUILD_COLLECT_MIN_CLIENTS)
            manager.start()
            assert gc.get_threshold() == CALLER_THRESHOLDS
            engine.run()
        assert probe.inside == (False, CALLER_THRESHOLDS, 0)
        assert probe.full_collections == 0
        assert not gc.isenabled()
        assert gc.get_threshold() == CALLER_THRESHOLDS

    @pytest.mark.parametrize(
        "n_clients, collections",
        [(_BUILD_COLLECT_MIN_CLIENTS - 1, 0), (_BUILD_COLLECT_MIN_CLIENTS, 1)],
    )
    def test_full_collection_first_only_from_the_cut(self, n_clients, collections):
        with _BuildProbe() as probe:
            _build(probe, n_clients=n_clients)
        assert probe.inside[2] == collections

    def test_build_and_start_run_almost_no_young_collections(self):
        """A 256-node Penelope build plus start allocates ~22 000 objects
        that live as long as the universe.  Under the hold it ran no young
        collection (CPython 3.11); with the caller's thresholds back
        before the start, it ran 40 at this test's 123 and 8 at CPython's
        default 700, so one is the allowance."""
        runs = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                runs[info["generation"]] += 1

        gc.callbacks.append(count)
        try:
            engine, _, _ = _started(n_clients=_BUILD_COLLECT_MIN_CLIENTS)
        finally:
            gc.callbacks.remove(count)
        engine.release_gc_hold()
        assert runs[0] <= 1, runs
        assert runs[1] == 0, runs
        assert runs[2] == 1, runs  # the pre-build collection alone


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
    collected = canonical_json(encode(run_single(spec)))
    gc.disable()
    uncollected = canonical_json(encode(run_single(spec)))
    assert not gc.isenabled()
    assert uncollected == collected
