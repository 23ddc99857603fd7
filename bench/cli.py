"""``python -m bench``: run the workloads, check their outputs, report metrics.

Usage (from the repository root; ``repro`` is imported from ``src/``)::

    python -m bench [--workload NAME ...] [--seed N] [--seconds S]
                    [--trace [0|1]] [--repeat N] [--smoke] [--out PATH]
    python -m bench --compare A.json B.json

Each workload runs in a fresh child process (:mod:`bench.child`) with
``REPRO_SCHEDULER``, ``REPRO_BATCHED_TICKS`` and ``REPRO_HARNESS_FAULTS``
removed from its environment and the garbage collector left on, so it
measures the path users get.  Without ``--trace`` the end-to-end metrics
of ``BENCHMARK.json`` are printed by name with their units; ``--trace``
runs the workload untraced and then traced, and prints the per-layer
metrics instead.  Every run's record goes to ``bench/out/results.json``
and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench.compare import compare_files

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

#: Ambient switches that would move a run off the default path.
SCRUBBED_ENV = ("REPRO_SCHEDULER", "REPRO_BATCHED_TICKS", "REPRO_HARNESS_FAULTS")
#: Fresh-interpreter import timings per run (their median is set-up).
IMPORT_PROBES = 3
#: Universe builds per kernel-10k run (their median is set-up).
KERNEL_SETUPS = 3
DEFAULT_SEED = 2022
#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 170.0

#: Times ``import bench.workloads`` (all of ``repro`` the benchmark uses)
#: in a fresh interpreter between two speed probes.
IMPORT_PROBE = (
    "import importlib, json; from bench.timing import timed; "
    "_, raw, norm = timed(lambda: importlib.import_module('bench.workloads')); "
    "print(json.dumps([raw, norm]))"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_definition() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    paths = [str(SOURCES), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: Sequence[str]) -> Any:
    """Run ``python <args>`` from the root; the JSON on its last stdout line."""
    command = [sys.executable, *args]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S:g}s: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _load_pins() -> Dict[str, Any]:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def _pinned_checks(record: Dict[str, Any], result: Dict[str, Any]) -> None:
    """Compare the digest (and kernel logical events) with ``pins.json``."""
    if record["smoke"]:
        record["outputs_identical"] = None
        return
    pins = _load_pins()
    seed = str(record["seed"])
    pinned = pins.get("sim_digest", {}).get(record["workload"], {}).get(seed)
    record["outputs_identical"] = None if pinned is None else pinned == result["sim_digest"]
    events = pins.get("logical_events", {}).get(record["workload"], {}).get(seed)
    if events is not None:
        measured = result["extra"].get("logical_events")
        record["checks"].append(
            {
                "check": f"logical events pinned at seed {seed}",
                "ok": measured == events,
                "detail": f"{measured} (pinned {events})",
            }
        )


def _record(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, result: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": result["passes"],
        "op_label": result["op_label"],
        "timed_ops": result["timed_ops"],
        "raw": result["raw"],
        "sim_digest": result["sim_digest"],
        "checks": list(result["checks"]),
        "env": result["env"],
    }


def _metric_block(definition: List[Dict[str, Any]], values: Dict[str, float]) -> Dict[str, Any]:
    missing = [m["name"] for m in definition if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definition}


def run_workload(
    definition: Dict[str, Any],
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    workdir: Path,
) -> Dict[str, Any]:
    """One run of one workload: children, metrics, checks."""
    workdir.mkdir(parents=True, exist_ok=True)
    smoke_flag = ["--smoke"] if smoke else []
    measure = [
        "-m", "bench.child", "measure", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--workdir", str(workdir), *smoke_flag,
    ]
    if workload == "campaign-warm":
        cache = workdir / "warm-cache"
        fixture = run_child(
            ["-m", "bench.child", "fixture", "--seed", str(seed), "--cache", str(cache), *smoke_flag]
        )
        measure += ["--cache", str(cache), "--cold-digest", fixture["cold_digest"]]
    if not trace:
        imports = [run_child(["-c", IMPORT_PROBE]) for _ in range(IMPORT_PROBES)]
        result = run_child(measure + ["--setups", str(KERNEL_SETUPS)])
        record = _record(workload, seed, seconds, False, smoke, result)
        builds = result["setup_samples_s"]
        setup_s = statistics.median(norm for _, norm in imports)
        if builds:
            setup_s += statistics.median(builds)
        record["setup"] = {"imports_s": [norm for _, norm in imports], "builds_s": builds}
        values = {
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_p90_ms": result["op_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s,
        }
        record["metrics"] = _metric_block(definition["end_to_end"], values)
    else:
        untraced = run_child(measure + ["--setups", "1"])
        trace_path = OUT_DIR / f"{workload}.trace.json"
        result = run_child(measure + ["--setups", "1", "--trace-out", str(trace_path)])
        record = _record(workload, seed, seconds, True, smoke, result)
        values = dict(result["trace"]["metrics"])
        values["trace.overhead_ratio"] = result["pass_wall_s"] / untraced["pass_wall_s"]
        record["metrics"] = _metric_block(definition["per_layer"], values)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["checks"].append(
            {
                "check": "traced run reproduces the untraced digest",
                "ok": result["sim_digest"] == untraced["sim_digest"],
                "detail": result["sim_digest"][:16],
            }
        )
        if workload != "chaos-membership":
            membership = values["membership.detector.calls"] + values["membership.view.calls"]
            record["checks"].append(
                {"check": "membership bypassed", "ok": membership == 0, "detail": f"{membership:g} calls"}
            )
        if workload == "campaign-warm":
            loads = values["experiments.cache.load.calls"]
            per_pass = result["attempted"] / result["passes"]
            record["checks"].append(
                {"check": "one cache load per spec", "ok": loads == per_pass, "detail": f"{loads:g} per pass"}
            )
    _pinned_checks(record, result)
    record["correct"] = record["failed"] == 0 and all(c["ok"] for c in record["checks"])
    return record


def print_record(record: Dict[str, Any]) -> None:
    env = record["env"]
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']}  seed {record['seed']}  {mode}: {record['passes']} passes, "
        f"{record['attempted']} {record['op_label']}s, {record['failed']} failed  "
        f"[{env['scheduler']} scheduler, {env['tick_driver']} ticks, Python {env['python']}, "
        f"nproc {env['nproc']}]"
    )
    raw = record["raw"]
    for name, metric in record["metrics"].items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            note = f"n={record['timed_ops']}, raw {raw[name]:.3f}"
        elif name == "ops_per_s":
            note = f"raw {raw[name]:.3f}"
        print(f"   {name:<32} {metric['value']:>14.6g} {metric['unit']:<11} {note}")
    for check in record["checks"]:
        flag = "ok  " if check["ok"] else "FAIL"
        print(f"   [{flag}] {check['check']}: {check['detail']}")
    identical = record["outputs_identical"]
    shown = "unpinned" if identical is None else str(identical).lower()
    print(f"   sim_digest {record['sim_digest'][:16]}  outputs_identical={shown}")


def summary_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON line: one run's metrics, or per-workload medians."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for record in records:
            for name, metric in record["metrics"].items():
                grouped.setdefault(f"{record['workload']}.{name}", []).append(metric)
        metrics = {
            key: {"value": statistics.median(m["value"] for m in group), "unit": group[0]["unit"]}
            for key, group in grouped.items()
        }
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(definition["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no paper-claim checks")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        print(compare_files(args.compare[0], args.compare[1], definition))
        return 0
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {SOURCES}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / "work" / str(os.getpid())
    records: List[Dict[str, Any]] = []
    try:
        for repetition in range(args.repeat):
            for workload in args.workload or names:
                record = run_workload(
                    definition, workload, args.seed + repetition, args.seconds,
                    bool(args.trace), args.smoke, workdir / f"{workload}-{repetition}",
                )
                print_record(record)
                records.append(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
    print(json.dumps(summary_line(records)))
    return 0
