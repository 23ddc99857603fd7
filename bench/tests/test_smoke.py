"""The whole benchmark at smoke sizes, plus the pieces its results rest on.

Smoke sizes: a 64-node kernel over 2 sim-s, one pair x two caps at
workload scale 0.05, a 32-node chaos storm over 5 sim-s.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.compare import verdict

ROOT = Path(__file__).resolve().parents[2]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seconds", "0", "--seed", "5",
         "--out", str(out), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    return {"summary": summary, "runs": json.loads(out.read_text())["runs"]}


def test_every_workload_end_to_end_at_smoke_size(tmp_path):
    started = time.perf_counter()
    result = run_bench(tmp_path)
    assert time.perf_counter() - started < 30
    summary, runs = result["summary"], result["runs"]
    assert summary["correct"] and summary["failed"] == 0
    assert [run["workload"] for run in runs] == [w["name"] for w in DEFINITION["workloads"]]
    for run in runs:
        assert set(run["metrics"]) == {m["name"] for m in DEFINITION["end_to_end"]}
        assert all(metric["value"] > 0 for metric in run["metrics"].values())
        assert run["attempted"] >= 1 and run["timed_ops"] >= 1


def test_traced_smoke_reports_every_layer_metric(tmp_path):
    runs = run_bench(tmp_path, "--trace")["runs"]
    names = {m["name"] for m in DEFINITION["per_layer"]}
    for run in runs:
        assert run["correct"], run["checks"]
        assert set(run["metrics"]) == names
        assert (ROOT / run["trace_file"]).is_file()
    by_name = {run["workload"]: run["metrics"] for run in runs}
    assert by_name["chaos-membership"]["membership.view.calls"]["value"] > 0
    assert by_name["campaign-warm"]["sim.events"]["value"] == 0
    assert by_name["kernel-10k"]["experiments.cache.load.calls"]["value"] == 0


def test_single_workload_ends_with_its_result_line(tmp_path):
    summary = run_bench(tmp_path, "--workload", "kernel-10k", "--trace", "0")["summary"]
    assert summary["correct"]
    assert list(summary["metrics"]) == [m["name"] for m in DEFINITION["end_to_end"]]
    for metric in DEFINITION["end_to_end"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_slicing_the_chaos_run_changes_nothing_simulated():
    from repro.experiments import serialize
    from repro.experiments.chaos import chaos_result_to_dict, run_chaos_single

    from bench.workloads import CHAOS_SMOKE, chaos_spec, sliced_runs

    spec = chaos_spec(CHAOS_SMOKE, seed=11)
    whole = serialize.sha256_of(chaos_result_to_dict(run_chaos_single(spec)))
    slices = []
    with sliced_runs(0.1, lambda start, end: slices.append(end - start)):
        sliced = serialize.sha256_of(chaos_result_to_dict(run_chaos_single(spec)))
    assert sliced == whole
    assert len(slices) == round(CHAOS_SMOKE.duration_s / 0.1)


@pytest.mark.parametrize(
    "a, b, lower_is_better, expected",
    [
        ([100, 101, 99, 100], [100, 102, 99, 101], True, "same"),
        ([100, 101, 99, 100], [120, 121, 119, 120], True, "worse"),
        ([100, 101, 99, 100], [80, 81, 79, 80], True, "better"),
        ([100, 101, 99, 100], [80, 81, 79, 80], False, "worse"),
        ([100, 150, 60, 100], [95, 96, 94, 95], True, "unresolved"),
        ([100, 150, 60, 100], [50, 51, 49, 50], True, "better"),
    ],
)
def test_compare_verdicts(a, b, lower_is_better, expected):
    assert verdict(a, b, 0.10, lower_is_better)[1] == expected
