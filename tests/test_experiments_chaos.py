"""Chaos sweep tests: schedule derivation, the continuous auditor, and
the cache/CLI plumbing.

The smoke runs here are deliberately tiny (4 clients, ~10 simulated
seconds) -- the full-intensity storm lives behind ``repro chaos`` and
the CI chaos-smoke job.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_left
from operator import attrgetter

import pytest

from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import ConservationLedger
from repro.experiments.chaos import (
    BudgetAuditor,
    ChaosSpec,
    ChaosResult,
    build_chaos_plan,
    chaos_specs,
    compute_detector_report,
    format_chaos,
    run_chaos_single,
    run_chaos_sweep,
)
from repro.experiments.harness import build_universe, pair_workloads
from repro.experiments.invariants import InvariantMonitor
from repro.experiments.serialize import canonical_json, decode, encode
from repro.sim.config import SimConfig

SMOKE = ChaosSpec(
    n_clients=4,
    seed=3,
    duration_s=10.0,
    workload_scale=0.1,
    kills=1,
    flaps=1,
    bursts=1,
    burst_loss=0.05,
)

MEMBERSHIP_SMOKE = ChaosSpec(
    n_clients=6,
    seed=7,
    duration_s=20.0,
    workload_scale=0.1,
    kills=1,
    flaps=0,
    bursts=0,
    partitions=1,
    enable_membership=True,
    membership_probe_period_s=0.5,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_chaos_single(SMOKE)


@pytest.fixture(scope="module")
def membership_result():
    return run_chaos_single(MEMBERSHIP_SMOKE)


class TestChaosSpec:
    def test_budget_is_per_socket_cap_over_all_sockets(self):
        spec = ChaosSpec(n_clients=10, cap_w_per_socket=70.0)
        assert spec.budget_w == pytest.approx(1400.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clients": 3},
            {"duration_s": 0.0},
            {"kills": -1},
            {"n_clients": 4, "kills": 4},
            {"burst_loss": 1.0},
            {"audit_interval_s": 0.0},
            {"base_loss": 1.0},
            {"base_loss": -0.1},
            {"duplicate_bursts": -1},
            {"reorder_bursts": -1},
            {"clock_drifts": -1},
            {"slow_nodes": -1},
            {"duplicate_prob": 1.0},
            {"duplicate_prob": -0.1},
            {"reorder_window_s": 0.0},
            {"max_drift_rate": 0.0},
            {"max_drift_rate": 1.0},
            {"slow_factor": 1.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSpec(**kwargs)

    def test_full_base_loss_is_rejected_at_construction(self):
        # Regression: base_loss skipped validation entirely, so a spec
        # with a 100% floor only blew up deep inside Network at run
        # time.  Now it fails at construction like every other field.
        with pytest.raises(ValueError, match=r"base loss out of \[0, 1\)"):
            ChaosSpec(base_loss=1.0)
        # The boundary below 1.0 stays legal.
        assert ChaosSpec(base_loss=0.0).base_loss == 0.0
        assert ChaosSpec(base_loss=0.5).base_loss == 0.5

    def test_chaos_specs_vary_only_the_seed(self):
        specs = chaos_specs([0, 1, 2], n_clients=6, kills=1)
        assert [s.seed for s in specs] == [0, 1, 2]
        assert all(s.n_clients == 6 and s.kills == 1 for s in specs)


class TestBuildChaosPlan:
    def test_same_seed_same_schedule(self):
        spec = ChaosSpec(seed=42)
        assert build_chaos_plan(spec) == build_chaos_plan(spec)

    def test_different_seeds_differ(self):
        a = build_chaos_plan(ChaosSpec(seed=0))
        b = build_chaos_plan(ChaosSpec(seed=1))
        assert a != b

    def test_schedule_respects_the_spec_counts(self):
        spec = ChaosSpec(kills=3, flaps=2, bursts=4, n_clients=8)
        plan = build_chaos_plan(spec)
        assert len(plan.node_kills) == 3
        assert len(plan.restarts) == 3  # every kill gets a paired restart
        assert len(plan.flaps) == 2
        assert len(plan.loss_bursts) == 4

    def test_kill_victims_are_distinct_and_restart_after_dying(self):
        spec = ChaosSpec(kills=4, n_clients=8, duration_s=50.0)
        plan = build_chaos_plan(spec)
        victims = [node for node, _ in plan.node_kills]
        assert len(set(victims)) == len(victims)
        restart_at = dict(plan.restarts)
        for node, killed_at in plan.node_kills:
            assert 0.15 * 50.0 <= killed_at <= 0.5 * 50.0
            assert killed_at < restart_at[node] <= 0.95 * 50.0

    def test_adversarial_counts_draw_their_families(self):
        spec = ChaosSpec(
            n_clients=8,
            duration_s=40.0,
            duplicate_bursts=2,
            reorder_bursts=1,
            clock_drifts=2,
            slow_nodes=1,
        )
        plan = build_chaos_plan(spec)
        assert len(plan.duplicate_bursts) == 2
        assert len(plan.reorder_bursts) == 1
        assert len(plan.clock_drifts) == 2
        assert len(plan.slow_nodes) == 1
        for node, rate, at in plan.clock_drifts:
            assert 0 <= node < 8
            assert abs(rate) <= spec.max_drift_rate
            assert 0.10 * 40.0 <= at <= 0.60 * 40.0
        for node, factor, at, duration in plan.slow_nodes:
            assert 0 <= node < 8
            assert 2.0 <= factor <= spec.slow_factor
            assert duration is not None and duration > 0

    def test_adversarial_draws_append_after_legacy_draws(self):
        # Same back-compat contract as the partition draws: enabling the
        # new families must not shift where kills/flaps/bursts land, so
        # pre-existing seeded schedules replay identically.
        legacy = build_chaos_plan(
            ChaosSpec(seed=9, kills=2, flaps=1, bursts=1, partitions=1)
        )
        extended = build_chaos_plan(
            ChaosSpec(
                seed=9, kills=2, flaps=1, bursts=1, partitions=1,
                duplicate_bursts=1, reorder_bursts=1,
                clock_drifts=1, slow_nodes=1,
            )
        )
        assert extended.node_kills == legacy.node_kills
        assert extended.restarts == legacy.restarts
        assert extended.flaps == legacy.flaps
        assert extended.loss_bursts == legacy.loss_bursts
        assert extended.partitions == legacy.partitions
        assert legacy.duplicate_bursts == []
        assert len(extended.duplicate_bursts) == 1

    def test_schedule_rng_does_not_touch_run_streams(self):
        # Drawing the schedule twice must not perturb a later run: the
        # schedule uses its own registry instance.
        build_chaos_plan(SMOKE)
        a = run_chaos_single(SMOKE)
        build_chaos_plan(SMOKE)
        build_chaos_plan(SMOKE)
        b = run_chaos_single(SMOKE)
        assert a.final == b.final
        assert a.recorder.counters == b.recorder.counters


class TestBudgetAuditor:
    def test_interval_validated(self, smoke_result):
        with pytest.raises(ValueError):
            BudgetAuditor(engine=None, manager=None, monitor=None, interval_s=0.0)

    def test_smoke_run_holds_conservation(self, smoke_result):
        # interval-grid probes plus the final horizon probe
        assert smoke_result.n_audits == 11
        assert (
            smoke_result.max_abs_residual_w <= ConservationLedger.TOLERANCE_W
        )
        smoke_result.final.check()
        counters = smoke_result.recorder.counters
        assert counters["auditor.probes"] == smoke_result.n_audits

    def test_probes_record_ledger_samples(self, smoke_result):
        names = {s.name for s in smoke_result.recorder.samples}
        assert "residual_w" in names
        assert "escrow_w" in names
        assert "write_offs_w" in names
        residuals = [
            s for s in smoke_result.recorder.samples if s.name == "residual_w"
        ]
        assert len(residuals) == smoke_result.n_audits

    def test_storm_actually_happened(self, smoke_result):
        counters = smoke_result.recorder.counters
        assert counters["manager.revives"] == 1  # the kill's paired restart
        assert smoke_result.network.dropped > 0
        assert len(smoke_result.schedule["node_kills"]) == 1


class TestAuditorStop:
    """A stopped auditor leaves no queued probe that acts, even after a
    restart."""

    @staticmethod
    def _auditor():
        engine, cluster, manager = build_universe(
            "penelope", 4, SMOKE.budget_w, 0,
            pair_workloads(SMOKE.pair, 4, 0.1),
            system_budget_w=SMOKE.budget_w,
        )
        cluster.start_workloads()
        manager.start()
        auditor = BudgetAuditor(engine, manager, InvariantMonitor(engine, manager))
        return engine, auditor

    def test_stop_before_the_first_step(self):
        engine, auditor = self._auditor()
        auditor.start()
        auditor.stop()
        engine.run(until=5.0)
        engine.release_gc_hold()
        assert auditor.ledgers == []

    def test_stop_between_probes(self):
        engine, auditor = self._auditor()
        auditor.start()
        engine.run(until=2.5)
        auditor.stop()
        engine.run(until=6.0)
        engine.release_gc_hold()
        assert [ledger.time for ledger in auditor.ledgers] == [1.0, 2.0]

    def test_restart_between_probes_keeps_one_grid(self):
        engine, auditor = self._auditor()
        auditor.start()
        engine.run(until=2.5)
        auditor.stop()
        auditor.start()
        engine.run(until=6.0)
        engine.release_gc_hold()
        assert [ledger.time for ledger in auditor.ledgers] == [
            1.0, 2.0, 3.5, 4.5, 5.5,
        ]


class TestChaosCodecs:
    def test_spec_round_trips_through_json(self):
        decoded = decode(ChaosSpec, json.loads(json.dumps(encode(SMOKE))))
        assert decoded == SMOKE

    def test_result_round_trips_through_json(self, smoke_result):
        decoded = decode(ChaosResult, json.loads(json.dumps(encode(smoke_result))))
        assert decoded.spec == smoke_result.spec
        assert decoded.schedule == smoke_result.schedule
        assert decoded.n_audits == smoke_result.n_audits
        assert decoded.max_abs_residual_w == smoke_result.max_abs_residual_w
        assert decoded.final == smoke_result.final
        assert decoded.recorder.counters == smoke_result.recorder.counters
        assert decoded.recorder.samples == smoke_result.recorder.samples
        assert decoded.network == smoke_result.network


class TestPinnedChaosDeterminism:
    def test_byte_identical_to_pinned_fixture(self):
        # The chaos analogue of the pinned kernel fixtures: kills, flaps
        # and loss bursts cancel in-flight events, which is the queue
        # shape the nominal fixtures never exercise.  The storm must
        # replay byte-for-byte.  Batching is pinned off: the fixture bytes encode the staggered
        # per-node trajectory, which the batcher only approximates (the
        # CI matrix leg exports REPRO_BATCHED_TICKS=1).
        import importlib.util
        import pathlib

        fixtures = pathlib.Path(__file__).parent / "fixtures"
        spec_module = importlib.util.spec_from_file_location(
            "generate_chaos_fixture", fixtures / "generate_chaos_fixture.py"
        )
        assert spec_module is not None and spec_module.loader is not None
        module = importlib.util.module_from_spec(spec_module)
        spec_module.loader.exec_module(module)
        assert module.CHAOS_FIXTURE_SPEC == SMOKE
        expected = (fixtures / f"{module.CHAOS_FIXTURE_NAME}.json").read_text()
        data = encode(run_chaos_single(SMOKE, sim=SimConfig(batched_ticks=False)))
        assert canonical_json(data) + "\n" == expected


class TestDetectorMetrics:
    def test_plain_runs_carry_no_detector_report(self, smoke_result):
        assert smoke_result.detector is None

    def test_kill_is_detected_within_three_periods(self, membership_result):
        report = membership_result.detector
        assert report is not None
        assert report["missed_detections"] == 0
        assert report["detections"] == 1
        assert (
            report["median_detection_latency_periods"] <= 3.0
        ), "ISSUE 5 acceptance: median detection within 3 probe periods"

    def test_no_unrefuted_false_confirms(self, membership_result):
        assert membership_result.detector["unrefuted_false_confirms"] == 0

    def test_views_converge_after_heal(self, membership_result):
        report = membership_result.detector
        assert report["view_converged"] is True
        assert report["last_heal_s"] is not None
        assert report["convergence_after_heal_s"] is not None

    def test_conservation_holds_with_membership_on(self, membership_result):
        assert (
            membership_result.max_abs_residual_w
            <= ConservationLedger.TOLERANCE_W
        )
        membership_result.final.check()

    def test_fault_free_membership_run_has_zero_false_positives(self):
        result = run_chaos_single(
            ChaosSpec(
                n_clients=4,
                seed=5,
                duration_s=15.0,
                workload_scale=0.1,
                kills=0,
                flaps=0,
                bursts=0,
                enable_membership=True,
                membership_probe_period_s=0.5,
            )
        )
        report = result.detector
        assert report["false_suspects"] == 0
        assert report["false_confirms"] == 0
        assert report["view_converged"] is True

    def test_membership_off_schedules_are_unchanged(self):
        # The partition draws were appended *after* the legacy draws so
        # pre-membership schedules replay identically seed-for-seed.
        with_partitions = build_chaos_plan(
            ChaosSpec(seed=9, kills=2, flaps=1, bursts=1, partitions=1)
        )
        without = build_chaos_plan(
            ChaosSpec(seed=9, kills=2, flaps=1, bursts=1, partitions=0)
        )
        assert with_partitions.node_kills == without.node_kills
        assert with_partitions.restarts == without.restarts
        assert with_partitions.flaps == without.flaps
        assert with_partitions.loss_bursts == without.loss_bursts
        assert len(with_partitions.partitions) == 1
        assert without.partitions == []

    def test_detector_report_round_trips_through_json(self, membership_result):
        decoded = decode(
            ChaosResult, json.loads(json.dumps(encode(membership_result)))
        )
        assert decoded.detector == membership_result.detector
        assert decoded.final == membership_result.final

    def test_format_includes_the_detector_table(self, membership_result):
        text = format_chaos([membership_result])
        assert "Failure detector (SWIM)" in text
        assert "detect" in text


def _storm_views(horizon_s, restart=True, lives=None):
    """A 12-node membership universe run to ``horizon_s`` through a storm
    of one kill at 2 s (restarted at 4 s unless not ``restart``) and one
    partition of three nodes (1-7 s).  ``lives`` replaces the kill with
    node 7's ``(killed_s, restarted_s)`` pairs."""
    spec = ChaosSpec(
        n_clients=12, seed=4, duration_s=horizon_s, workload_scale=0.2,
        kills=0, flaps=0, bursts=0, enable_membership=True,
        membership_probe_period_s=0.5,
    )
    plan = FaultPlan().partition([0, 1, 2], 1.0, heal_after_s=6.0)
    for killed_s, restarted_s in lives or [(2.0, 4.0 if restart else None)]:
        plan.kill(7, killed_s)
        if restarted_s is not None:
            plan.restart(7, restarted_s)
    engine, cluster, manager = build_universe(
        "penelope", spec.n_clients, spec.budget_w, spec.seed,
        pair_workloads(spec.pair, spec.n_clients, spec.workload_scale),
        manager_config=PenelopeConfig(
            enable_membership=True, membership_probe_period_s=0.5
        ),
        fault_plan=plan,
        system_budget_w=spec.budget_w,
    )
    cluster.start_workloads()
    manager.start()
    engine.run(until=horizon_s)
    engine.release_gc_hold()
    return spec, plan, manager


def _per_pair_convergence(manager):
    """The report's convergence fields by their definition: every live
    observer asked about every live peer."""
    alive = [n for n in manager.client_ids if manager.cluster.node(n).alive]
    converged, unrefuted = True, 0
    for observer in alive:
        view = manager.detectors[observer].view
        for subject in alive:
            if subject != observer and view.status_of(subject) != "alive":
                converged = False
                unrefuted += view.status_of(subject) == "dead"
    return converged, unrefuted


class TestDetectorReportConvergence:
    @pytest.mark.parametrize(
        "horizon_s, restart, converged, confirmed",
        [
            (3.5, True, False, False),
            (5.0, True, False, True),
            (6.5, True, False, True),
            (20.0, True, True, False),
            (20.0, False, True, False),
        ],
        ids=["killed", "partitioned", "restarted", "healed", "healed-one-dead"],
    )
    def test_one_scan_per_view_matches_the_per_pair_definition(
        self, horizon_s, restart, converged, confirmed
    ):
        # Views accuse the dead node 7 ("killed", "healed-one-dead"), which
        # the report must skip; live peers held dead must be counted.
        spec, plan, manager = _storm_views(horizon_s, restart)
        report = compute_detector_report(spec, plan, manager)
        expected = _per_pair_convergence(manager)
        assert (report["view_converged"], report["unrefuted_false_confirms"]) == expected
        assert expected[0] is converged
        assert (expected[1] > 0) is confirmed

    def test_not_alive_lists_each_accused_member_once(self):
        _, _, manager = _storm_views(5.0)
        for observer, detector in manager.detectors.items():
            view = detector.view
            accused = view.not_alive()
            assert accused == [
                (member, view.status_of(member))
                for member in manager.client_ids
                if view.status_of(member) != "alive"
            ]


def _merge_and_sort_report(spec, plan, manager):
    """The detector report the way it was first written: every observer's
    transitions, retired generations included, merged into one list and
    sorted by ``(time, observer, subject)``, then scored.  The oracle of
    the per-log report."""
    transitions = [t for log in manager.retired_logs for t in log]
    for detector in manager.detectors.values():
        transitions.extend(detector.view.transitions)
    transitions.sort(key=attrgetter("time", "observer", "subject"))
    horizon = spec.duration_s
    intervals = plan.dead_intervals(horizon)
    dead_spans = {}
    for victim, start, end in intervals:
        dead_spans.setdefault(victim, []).append((start, end))
    accused_at = {}
    false_suspects = 0
    false_confirms = 0
    for t in transitions:
        if t.status == "alive":
            continue
        accused_at.setdefault(t.subject, []).append(t.time)
        if any(start <= t.time < end for start, end in dead_spans.get(t.subject, ())):
            continue
        if t.status == "suspect":
            false_suspects += 1
        elif t.status == "dead":
            false_confirms += 1
    latencies = []
    missed = 0
    for victim, start, end in intervals:
        times = accused_at.get(victim, [])
        first = bisect_left(times, start)
        if first == len(times):
            missed += 1
        else:
            latencies.append(times[first] - start)
    converged, unrefuted = _per_pair_convergence(manager)
    heals = plan.heal_times(horizon)
    last_heal = heals[-1] if heals else None
    convergence_after_heal_s = None
    if last_heal is not None and converged:
        corrective = [t.time for t in transitions if t.time >= last_heal]
        convergence_after_heal_s = (max(corrective) - last_heal) if corrective else 0.0
    period = spec.membership_probe_period_s
    median_latency = statistics.median(latencies) if latencies else None
    return {
        "probe_period_s": period,
        "n_transitions": len(transitions),
        "detections": len(latencies),
        "missed_detections": missed,
        "detection_latencies_s": latencies,
        "median_detection_latency_s": median_latency,
        "median_detection_latency_periods": (
            median_latency / period if median_latency is not None else None
        ),
        "false_suspects": false_suspects,
        "false_confirms": false_confirms,
        "unrefuted_false_confirms": unrefuted,
        "view_converged": converged,
        "last_heal_s": last_heal,
        "convergence_after_heal_s": convergence_after_heal_s,
        "refutations": sum(
            detector.view.refutations for detector in manager.detectors.values()
        ),
    }


def _assert_same_report(report, expected):
    # Key for key, in order; floats exact (repr round-trips the bits),
    # lists in the same order, ints not turned into floats.
    assert list(report) == list(expected)
    for key, value in expected.items():
        assert repr(report[key]) == repr(value), key


class TestDetectorReportDifferential:
    @pytest.mark.parametrize(
        "horizon_s, restart",
        [(3.5, True), (5.0, True), (6.5, True), (20.0, True), (20.0, False)],
        ids=["killed", "partitioned", "restarted", "healed", "healed-one-dead"],
    )
    def test_per_log_report_equals_the_merge_and_sort_report(self, horizon_s, restart):
        spec, plan, manager = _storm_views(horizon_s, restart)
        _assert_same_report(
            compute_detector_report(spec, plan, manager),
            _merge_and_sort_report(spec, plan, manager),
        )

    def test_retired_logs_of_a_node_restarted_twice_are_scored(self):
        spec, plan, manager = _storm_views(20.0, lives=[(5.0, 6.0), (9.0, 11.0)])
        retired = manager.retired_logs
        assert [log.observer for log in retired] == [7, 7]
        assert all(len(log) > 0 for log in retired)
        report = compute_detector_report(spec, plan, manager)
        _assert_same_report(report, _merge_and_sort_report(spec, plan, manager))
        assert report["detections"] == 2
        assert report["n_transitions"] == sum(map(len, retired)) + sum(
            len(detector.view.log) for detector in manager.detectors.values()
        )


class TestChaosSweep:
    def test_sweep_caches_and_replays(self, tmp_path):
        specs = chaos_specs([3], **{
            k: getattr(SMOKE, k)
            for k in (
                "n_clients", "duration_s", "workload_scale",
                "kills", "flaps", "bursts", "burst_loss",
            )
        })
        first = run_chaos_sweep(specs, cache_dir=str(tmp_path))
        assert len(list(tmp_path.rglob("*.json"))) == 1
        second = run_chaos_sweep(specs, cache_dir=str(tmp_path))
        assert format_chaos(first) == format_chaos(second)
        assert second[0].final == first[0].final

    def test_format_reports_the_verdict(self, smoke_result):
        text = format_chaos([smoke_result])
        assert "conservation probes held" in text
        assert "worst residual" in text
        assert f"{smoke_result.spec.seed:>6}" in text.splitlines()[2 + 1]


class TestChaosCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.seeds == [0, 1, 2]
        assert args.clients == 12
        assert args.kills == 2

    def test_cli_smoke(self, capsys, tmp_path):
        from repro.cli import main

        exit_code = main(
            [
                "chaos",
                "--seeds", "3",
                "--clients", "4",
                "--duration", "10",
                "--scale", "0.1",
                "--kills", "1",
                "--flaps", "1",
                "--bursts", "1",
                "--burst-loss", "0.05",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "conservation probes held" in out
