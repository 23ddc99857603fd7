"""Child-process side of the benchmark (``python -m bench.child``).

The parent (:mod:`bench.cli`) runs each measurement in a fresh process
so that imports are cold, peak RSS belongs to one workload, and a
crashed or hung workload cannot take the parent down.  Subcommands:

* ``measure`` -- run whole passes of one workload for ``--seconds`` of
  measured time and print one JSON line with its ops, timings, digests,
  checks and (with ``--trace-out``) per-layer trace results;
* ``fixture`` -- populate the campaign cache untimed and print the
  cold tables' digest (``campaign-warm``'s fixture).

Only the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench.timing import Stopwatch, nearest_rank


def _environment() -> Dict[str, Any]:
    from repro.sim.config import default_batched_ticks
    from repro.sim.schedulers import default_scheduler_name

    return {
        "scheduler": default_scheduler_name(),
        "tick_driver": "batched" if default_batched_ticks() else "per-node",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _merge_checks(passes: Sequence[Any]) -> List[Dict[str, Any]]:
    """One entry per check name: ok only if it held on every pass."""
    merged: Dict[str, Dict[str, Any]] = {}
    for result in passes:
        for name, ok, detail in result.checks:
            entry = merged.setdefault(name, {"check": name, "ok": True, "detail": detail})
            if entry["ok"] and not ok:
                entry.update(ok=False, detail=detail)
    digests = {result.digest for result in passes}
    merged["passes agree"] = {
        "check": "passes agree",
        "ok": len(digests) == 1 and "" not in digests,
        "detail": f"{len(passes)} passes, {len(digests)} distinct digests",
    }
    return list(merged.values())


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    from bench.trace import Tracer, calibrate, per_layer_metrics
    from bench.workloads import make_workload

    tracer: Optional[Tracer] = None
    costs = (0.0, 0.0)
    if args.trace_out:
        costs = calibrate()
        tracer = Tracer()
    workload = make_workload(
        args.workload,
        args.seed,
        args.smoke,
        Path(args.workdir),
        tracer,
        cache_dir=Path(args.cache) if args.cache else None,
        cold_digest=args.cold_digest,
    )
    sw = Stopwatch()
    passes = []
    if tracer is not None:
        tracer.install()
    try:
        while True:
            passes.append(workload.run_pass(sw))
            if sw.wall_raw >= args.seconds:
                break
        workload.complete_setups(args.setups)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = sum(result.ops for result in passes)
    ms = [value * 1000.0 for value in sw.ops_norm]
    raw_ms = [value * 1000.0 for value in sw.ops_raw]
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "op_label": workload.op_label,
        "passes": len(passes),
        "attempted": ops,
        "failed": sum(result.failed for result in passes),
        "timed_ops": len(ms),
        "ops_per_s": len(ms) / sw.wall_norm if sw.wall_norm else 0.0,
        "op_p50_ms": nearest_rank(ms, 50) if ms else 0.0,
        "op_p90_ms": nearest_rank(ms, 90) if ms else 0.0,
        "pass_wall_s": sw.wall_norm / len(passes),
        "raw": {
            "ops_per_s": len(raw_ms) / sw.wall_raw if sw.wall_raw else 0.0,
            "op_p50_ms": nearest_rank(raw_ms, 50) if raw_ms else 0.0,
            "op_p90_ms": nearest_rank(raw_ms, 90) if raw_ms else 0.0,
            "wall_s": sw.wall_raw,
        },
        "setup_samples_s": workload.setup_samples,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_digest": passes[0].digest,
        "checks": _merge_checks(passes),
        "extra": passes[0].extra,
        "env": _environment(),
    }
    if tracer is not None:
        report = tracer.report(*costs)
        leftovers = tracer.leftover_wrappers()
        closure = abs(report["closure_residual_s"]) / report["wall_s"]
        out["trace"] = {
            "metrics": per_layer_metrics(report, len(passes)),
            "wall_s": report["wall_s"],
            "overhead_s": report["overhead_s"],
            "closure_error": closure,
            "wrapper_cost_s": list(costs),
        }
        out["checks"] += [
            {
                "check": "wrappers restored",
                "ok": not leftovers and tracer.open_frames() == 0,
                "detail": ", ".join(leftovers) or f"{tracer.open_frames()} open frames",
            },
            {
                "check": "self times close on the traced wall within 1%",
                "ok": closure <= 0.01,
                "detail": f"residual {closure:.2e} of {report['wall_s']:.3f} s",
            },
        ]
        tracer.write_chrome_trace(
            Path(args.trace_out), {"workload": workload.name, "seed": args.seed}
        )
    return out


def fixture(args: argparse.Namespace) -> Dict[str, Any]:
    from bench.workloads import populate_cache

    return {"cold_digest": populate_cache(args.seed, args.smoke, Path(args.cache))}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("measure")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--setups", type=int, default=1)
    run.add_argument("--workdir", required=True)
    run.add_argument("--cache", default="")
    run.add_argument("--cold-digest", default="")
    run.add_argument("--trace-out", default="")
    run.add_argument("--smoke", action="store_true")
    fix = sub.add_parser("fixture")
    fix.add_argument("--seed", type=int, required=True)
    fix.add_argument("--cache", required=True)
    fix.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args) if args.command == "measure" else fixture(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
