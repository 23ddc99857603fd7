"""Shrinking-fuzzer tests: deterministic sampling, the delta-debugging
atoms, the shrink loop itself, and the repro-file round trip.

The end-to-end tests arm the deliberately-breakable
``selftest-node-death`` invariant: any schedule with a kill violates it,
so a short campaign reliably finds, shrinks and replays a breach without
needing a real protocol bug -- the acceptance path for the whole
find-and-shrink loop.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import serialize
from repro.experiments.chaos import ChaosSpec, build_chaos_plan
from repro.experiments.fuzz import (
    REPRO_FORMAT,
    FuzzConfig,
    fault_count,
    format_fuzz,
    load_repro,
    plan_atoms,
    replay_repro,
    run_fuzz,
    sample_spec,
    write_repro,
    _remove_atom,
)
from repro.sim.rng import RngRegistry

#: Small, fast self-test campaign; any kill in a sampled schedule trips
#: the armed invariant, so a handful of trials suffices.
SELFTEST = FuzzConfig(
    trials=5, master_seed=0, duration_s=10.0, self_test=True
)


@pytest.fixture(scope="module")
def selftest_report():
    return run_fuzz(SELFTEST)


class TestFuzzConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"duration_s": 0.0},
            {"clients_max": 3},
            {"max_shrink_runs": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FuzzConfig(**kwargs)

    def test_resolve_defaults_to_production_invariants(self):
        names = [inv.name for inv in FuzzConfig().resolve_invariants()]
        assert "conservation" in names
        assert "selftest-node-death" not in names

    def test_self_test_arms_the_breakable_invariant_once(self):
        names = [inv.name for inv in SELFTEST.resolve_invariants()]
        assert names.count("selftest-node-death") == 1
        explicit = FuzzConfig(
            invariants=("selftest-node-death",), self_test=True
        )
        names = [inv.name for inv in explicit.resolve_invariants()]
        assert names == ["selftest-node-death"]

    def test_unknown_invariant_name_rejected_at_resolve(self):
        with pytest.raises(KeyError):
            FuzzConfig(invariants=("bogus",)).resolve_invariants()


class TestSampling:
    def test_sampling_is_deterministic_in_the_master_seed(self):
        config = FuzzConfig(trials=10)

        def draw(seed):
            rng = RngRegistry(seed=seed).stream("fuzz.sample")
            return [sample_spec(rng, config) for _ in range(10)]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_samples_stay_inside_the_configured_bounds(self):
        config = FuzzConfig(clients_max=6, duration_s=12.0)
        rng = RngRegistry(seed=1).stream("fuzz.sample")
        for _ in range(50):
            spec = sample_spec(rng, config)
            assert 4 <= spec.n_clients <= 6
            assert spec.duration_s == 12.0
            assert spec.kills < spec.n_clients
            for family in (
                "flaps", "bursts", "partitions", "duplicate_bursts",
                "reorder_bursts", "clock_drifts", "slow_nodes",
            ):
                assert 0 <= getattr(spec, family) <= 2


class TestPlanAtoms:
    def _plan_dict(self, spec):
        return serialize.encode(build_chaos_plan(spec))

    def test_atoms_enumerate_every_fault(self):
        plan = self._plan_dict(
            ChaosSpec(n_clients=8, kills=2, flaps=1, bursts=1, partitions=1)
        )
        atoms = plan_atoms(plan)
        # 2 kills + 2 paired restarts + 1 flap + 1 burst + 1 partition.
        assert len(atoms) == 7
        # Restarts lead: a paired restart must be droppable on its own
        # before the kill pass takes both.
        assert atoms[0][0] == "restarts"

    def test_fault_count_folds_paired_restarts_into_their_kill(self):
        plan = self._plan_dict(
            ChaosSpec(n_clients=8, kills=2, flaps=1, bursts=0)
        )
        # 2 (kill+restart) pairs + 1 flap.
        assert fault_count(plan) == 3
        # An orphan restart (its kill already dropped) counts on its own.
        orphan = {k: [list(e) for e in v] for k, v in plan.items()}
        orphan["node_kills"] = orphan["node_kills"][1:]
        assert fault_count(orphan) == 3

    def test_removing_a_kill_takes_its_restarts_along(self):
        plan = self._plan_dict(ChaosSpec(n_clients=8, kills=2))
        victim = plan["node_kills"][0][0]
        out = _remove_atom(plan, ("node_kills", 0))
        assert all(node != victim for node, _ in out["node_kills"])
        assert all(node != victim for node, _ in out["restarts"])
        # The other kill keeps its restart.
        assert len(out["node_kills"]) == 1
        assert len(out["restarts"]) == 1

    def test_removing_a_restart_leaves_the_kill(self):
        plan = self._plan_dict(ChaosSpec(n_clients=8, kills=1))
        out = _remove_atom(plan, ("restarts", 0))
        assert out["restarts"] == []
        assert len(out["node_kills"]) == 1


class TestEndToEnd:
    def test_selftest_campaign_finds_and_shrinks(self, selftest_report):
        assert selftest_report.violation_found
        repro = selftest_report.repro
        assert repro["format"] == REPRO_FORMAT
        assert repro["violation"]["invariant"] == "selftest-node-death"
        # ISSUE 8 acceptance: the self-test shrinks to <= 2 faults.
        assert repro["fault_count"] <= 2
        assert repro["shrink_runs"] <= SELFTEST.max_shrink_runs
        # The shrunk spec carries the plan explicitly, not via counts.
        assert repro["spec"].get("kills", 0) == 0

    def test_campaigns_are_deterministic(self, selftest_report):
        again = run_fuzz(SELFTEST)
        assert again.repro == selftest_report.repro
        assert again.trials == selftest_report.trials

    def test_repro_file_round_trip_and_replay(self, selftest_report, tmp_path):
        path = tmp_path / "repro.json"
        write_repro(selftest_report.repro, str(path))
        loaded = load_repro(str(path))
        assert loaded == json.loads(json.dumps(selftest_report.repro))
        reproduced, violations = replay_repro(loaded)
        assert reproduced is not None
        assert reproduced.invariant == "selftest-node-death"
        assert violations

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError, match="not a penelope-fuzz-repro/1"):
            load_repro(str(path))

    def test_clean_campaign_reports_no_repro(self):
        # Production invariants over a tame sample space: fault-free-ish
        # trials must come back clean (this is also the CI smoke gate).
        report = run_fuzz(
            FuzzConfig(trials=2, master_seed=0, duration_s=8.0)
        )
        assert not report.violation_found
        assert report.trials_run == 2
        text = format_fuzz(report)
        assert "no invariant violations found" in text

    def test_format_reports_the_shrunk_size(self, selftest_report):
        text = format_fuzz(selftest_report)
        assert "VIOLATION: selftest-node-death" in text
        assert "shrunk to" in text


class TestFuzzCli:
    def test_self_test_gate_passes(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "repro.json"
        rc = main(
            [
                "fuzz", "--self-test", "--trials", "5",
                "--duration", "10", "--out", str(out),
            ]
        )
        assert rc == 0
        # Status lines go to stderr; the campaign table to stdout.
        captured = capsys.readouterr()
        assert "[self-test] OK" in captured.err
        assert "VIOLATION: selftest-node-death" in captured.out
        assert out.exists()

    def test_replay_exits_zero_on_reproduction(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "repro.json"
        assert main(
            [
                "fuzz", "--self-test", "--trials", "5",
                "--duration", "10", "--out", str(out),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["fuzz", "--replay", str(out)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_clean_campaign_exits_zero(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(
            [
                "fuzz", "--trials", "2", "--duration", "8",
                "--out", str(tmp_path / "repro.json"),
            ]
        )
        assert rc == 0
        assert "no invariant violations" in capsys.readouterr().out
        assert not (tmp_path / "repro.json").exists()


class TestFuzzResume:
    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="requires a journal"):
            run_fuzz(SELFTEST, resume=True)

    def test_clean_campaign_resumes_without_reexecution(
        self, tmp_path, monkeypatch
    ):
        import types

        import repro.experiments.fuzz as fuzz_mod

        calls = []

        def fake_run(spec, sim=None, plan=None, invariants=None, fail_fast=False):
            calls.append(spec.seed)
            return types.SimpleNamespace(violations=[])

        monkeypatch.setattr(fuzz_mod, "run_chaos_single", fake_run)
        journal = str(tmp_path / "fuzz.jsonl")
        config = FuzzConfig(trials=4, master_seed=3, duration_s=10.0)
        first = run_fuzz(config, journal=journal)
        assert len(calls) == 4
        resumed = run_fuzz(config, journal=journal, resume=True)
        # Every trial had a durable clean verdict: nothing re-executed,
        # yet sampling still drew for every slot (same trial summaries).
        assert len(calls) == 4
        assert resumed.trials == first.trials
        assert resumed.repro is None

    def test_violated_campaign_resume_matches(self, tmp_path, selftest_report):
        journal = str(tmp_path / "fuzz.jsonl")
        first = run_fuzz(SELFTEST, journal=journal)
        resumed = run_fuzz(SELFTEST, journal=journal, resume=True)
        assert resumed.trials == first.trials
        assert resumed.repro == first.repro
        # Journaling and resuming never perturb the sampled schedule.
        assert first.trials == selftest_report.trials
        assert first.repro == selftest_report.repro
