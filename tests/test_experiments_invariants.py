"""Invariant-monitor tests: the registry, the recording policy, the
violation codec, and the probes run against live chaos storms.

The probes' *positive* power (catching real protocol bugs) is hard to
show without a bug, so the live-run tests assert the falsifiable half:
every production invariant holds through the standard chaos smoke
storms, while the deliberately-breakable ``selftest-node-death``
invariant trips the moment a storm kills a node -- proving the monitor
observes the run rather than rubber-stamping it.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.chaos import ChaosSpec, run_chaos_single
from repro.experiments.invariants import (
    InvariantMonitor,
    InvariantViolation,
    InvariantViolationError,
    all_invariants,
    default_invariants,
    get_invariant,
    register_invariant,
)
from repro.experiments.serialize import decode, encode

STORM = ChaosSpec(
    n_clients=4,
    seed=3,
    duration_s=10.0,
    workload_scale=0.1,
    kills=1,
    flaps=1,
    bursts=1,
    burst_loss=0.05,
)


class TestRegistry:
    def test_default_set_excludes_selftest_invariants(self):
        names = [i.name for i in default_invariants()]
        assert names == sorted(names)
        assert "conservation" in names
        assert "escrow-consistency" in names
        assert "safe-cap-range" in names
        assert "membership-dead-grant" in names
        assert "retry-budget" in names
        assert "clock-monotone" in names
        assert not any(name.startswith("selftest") for name in names)

    def test_all_invariants_includes_selftest(self):
        names = [i.name for i in all_invariants()]
        assert "selftest-node-death" in names
        assert set(i.name for i in default_invariants()) < set(names)

    def test_get_invariant_lookup_and_unknown(self):
        assert get_invariant("conservation").name == "conservation"
        with pytest.raises(KeyError, match="unknown invariant"):
            get_invariant("no-such-invariant")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_invariant("conservation", "dup")(lambda monitor: iter(()))


class TestViolationCodec:
    def test_round_trips_through_json(self):
        violation = InvariantViolation(
            invariant="escrow-consistency",
            time=4.25,
            message="pool 1 grant 7 double settle",
            context={"node": 1, "grant_id": 7, "requester": 2},
        )
        decoded = decode(InvariantViolation, json.loads(json.dumps(encode(violation))))
        assert decoded == violation

    def test_context_defaults_to_empty(self):
        decoded = decode(
            InvariantViolation,
            {"invariant": "clock-monotone", "time": 1.0, "message": "m"},
        )
        assert decoded.context == {}


class _Recorder:
    def __init__(self):
        self.counters = {}

    def bump(self, name, by=1):
        self.counters[name] = self.counters.get(name, 0) + by


class _StubEngine:
    def __init__(self, now=0.0):
        self.now = now


class _StubManager:
    def __init__(self):
        self.recorder = _Recorder()
        self.deciders = {}


def _violation(n=0):
    return InvariantViolation(
        invariant="stub", time=float(n), message=f"breach {n}"
    )


class TestMonitorRecording:
    """record()/fail_fast/cap mechanics, isolated from real probes."""

    def _monitor(self, fail_fast):
        return InvariantMonitor(
            _StubEngine(), _StubManager(), invariants=[], fail_fast=fail_fast
        )

    def test_fail_fast_raises_an_assertion_error_subclass(self):
        monitor = self._monitor(fail_fast=True)
        with pytest.raises(InvariantViolationError) as excinfo:
            monitor.record(_violation())
        assert isinstance(excinfo.value, AssertionError)
        assert excinfo.value.violation == _violation()
        # The breach is booked even though it raised.
        assert monitor.violations == [_violation()]
        assert monitor.counts == {"stub": 1}
        assert monitor.manager.recorder.counters == {"invariant.stub": 1}

    def test_recording_mode_accumulates(self):
        monitor = self._monitor(fail_fast=False)
        for n in range(3):
            monitor.record(_violation(n))
        assert len(monitor.violations) == 3
        assert monitor.counts == {"stub": 3}
        assert monitor.overflowed == 0

    def test_storage_cap_counts_the_overflow(self):
        monitor = self._monitor(fail_fast=False)
        for n in range(InvariantMonitor.MAX_PER_INVARIANT + 5):
            monitor.record(_violation(n))
        assert len(monitor.violations) == InvariantMonitor.MAX_PER_INVARIANT
        assert monitor.counts["stub"] == InvariantMonitor.MAX_PER_INVARIANT + 5
        assert monitor.overflowed == 5
        # Every breach still bumps the recorder counter past the cap.
        assert (
            monitor.manager.recorder.counters["invariant.stub"]
            == InvariantMonitor.MAX_PER_INVARIANT + 5
        )


class TestLiveRuns:
    def test_production_invariants_hold_through_the_storm(self):
        result = run_chaos_single(STORM)
        assert result.violations == []
        assert not any(
            name.startswith("invariant.") for name in result.recorder.counters
        )

    def test_production_invariants_hold_with_membership_on(self):
        result = run_chaos_single(
            ChaosSpec(
                n_clients=6,
                seed=7,
                duration_s=20.0,
                workload_scale=0.1,
                kills=1,
                partitions=1,
                enable_membership=True,
                membership_probe_period_s=0.5,
            )
        )
        assert result.violations == []

    def test_selftest_invariant_trips_on_a_kill(self):
        invariants = default_invariants() + [get_invariant("selftest-node-death")]
        result = run_chaos_single(STORM, invariants=invariants, fail_fast=False)
        tripped = [v for v in result.violations if v.invariant == "selftest-node-death"]
        assert tripped, "a killed node must violate the self-test invariant"
        assert tripped[0].context["write_offs"] >= 1
        assert result.recorder.counters["invariant.selftest-node-death"] >= 1
        # The production invariants still hold in the same run.
        assert all(
            v.invariant == "selftest-node-death" for v in result.violations
        )

    def test_fail_fast_surfaces_the_violation_out_of_the_run(self):
        # Mid-run breaches fire inside the auditor process, so the engine
        # wraps them in SimulationError -- exactly how the original
        # conservation assertion has always surfaced.  The cause chain
        # keeps the structured record reachable.
        from repro.sim.engine import SimulationError

        invariants = [get_invariant("selftest-node-death")]
        with pytest.raises(SimulationError, match="selftest-node-death") as excinfo:
            run_chaos_single(STORM, invariants=invariants, fail_fast=True)
        cause = excinfo.value.__cause__
        assert isinstance(cause, InvariantViolationError)
        assert cause.violation.invariant == "selftest-node-death"

    def test_violations_survive_the_result_codec(self):
        from repro.experiments.chaos import ChaosResult

        result = run_chaos_single(
            STORM,
            invariants=[get_invariant("selftest-node-death")],
            fail_fast=False,
        )
        assert result.violations
        decoded = decode(ChaosResult, json.loads(json.dumps(encode(result))))
        assert decoded.violations == result.violations

    def test_clean_results_serialize_without_a_violations_key(self):
        result = run_chaos_single(STORM)
        assert "violations" not in encode(result)
