"""Command-line entry point: regenerate any of the paper's results.

Examples::

    python -m repro overhead --scale 1.0
    python -m repro nominal  --caps 60 80 100 --pairs EP:DC CG:LU --clients 8
    python -m repro nominal  --jobs 8                 # parallel sweep
    python -m repro faulty   --scale 0.25 --no-cache
    python -m repro scaling-frequency --clients 264 --freqs 1 5 10 20
    python -m repro scaling-scale     --scales 44 132 264
    python -m repro chaos --seeds 0 1 2 --jobs 3      # audited fault storms
    python -m repro claims --jobs 2                   # check every paper claim
    python -m repro lint src --format json            # static invariant scan

Full paper-sized sweeps take minutes; every command accepts reduced
parameters for a quick look.  Sweep commands take ``--jobs N`` to fan
runs out over worker processes, and cache finished runs under
``--cache-dir`` (default ``.repro-cache/``; disable with ``--no-cache``)
so an interrupted or repeated sweep only executes what is missing.

Long campaigns are resilient: ``--task-timeout``/``--max-retries`` bound
each task (failures quarantine as structured records instead of
aborting), ``--journal PATH`` write-ahead logs every spec state
transition, and ``--resume JOURNAL`` restarts a crashed or SIGKILL'd
campaign from its last durable state.  ``--harness-faults`` injects
worker crashes/hangs/exceptions to exercise exactly that machinery.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.experiments.faulty import run_faulty_sweep
from repro.experiments.nominal import PAPER_CAPS_W_PER_SOCKET, run_nominal_sweep
from repro.experiments.overhead import run_overhead_experiment
from repro.experiments.report import (
    format_faulty,
    format_frequency_figures,
    format_nominal,
    format_overhead,
    format_scale_figures,
    print_progress,
)
from repro.experiments.runner import (
    DEFAULT_CACHE_DIR,
    DEFAULT_RETRY,
    RetryPolicy,
    SweepFailure,
    add_progress_listener,
    remove_progress_listener,
    split_failures,
)
from repro.experiments.scaling import (
    PAPER_FREQUENCIES_HZ,
    PAPER_SCALES,
    sweep_frequency,
    sweep_scale,
)

#: Subcommands that fan out through the sweep runner.
SWEEP_COMMANDS = (
    "nominal",
    "faulty",
    "scaling-frequency",
    "scaling-scale",
    "multijob",
    "allocation",
    "chaos",
    "claims",
)


def _jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {jobs}")
    return jobs


def _add_runner_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker processes for the sweep (1 = in-process; 0 = all CPUs)",
    )
    cmd.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    cmd.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append every spec state transition to a write-ahead campaign "
            "journal (JSONL, fsync'd) at PATH"
        ),
    )
    cmd.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help=(
            "replay JOURNAL and re-execute only specs without a durable "
            "done/quarantined record (implies --journal JOURNAL)"
        ),
    )
    cmd.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-task wall-clock deadline; an expired task is charged a "
            "retry and its worker pool is rebuilt (needs --jobs > 1)"
        ),
    )
    cmd.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "re-executions before a failing spec is quarantined as a "
            f"TaskFailure record (default: {DEFAULT_RETRY.max_retries})"
        ),
    )
    cmd.add_argument(
        "--harness-faults",
        default=None,
        metavar="SPEC",
        help=(
            "harness self-chaos: inject worker faults by sweep index, "
            "e.g. 'crash:0,hang:1,raise:2' (crash/hang fire on the first "
            "attempt only; raise poisons every attempt)"
        ),
    )


def _parse_pairs(values: Optional[Sequence[str]]) -> Optional[List[Tuple[str, str]]]:
    if not values:
        return None
    pairs = []
    for item in values:
        left, _, right = item.partition(":")
        if not right:
            raise SystemExit(f"bad pair {item!r}; expected APP:APP, e.g. EP:DC")
        pairs.append((left.upper(), right.upper()))
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penelope-repro",
        description="Reproduce the Penelope (ICPP'22) evaluation on the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    overhead = sub.add_parser("overhead", help="§4.2 per-node overhead")
    overhead.add_argument("--cap", type=float, default=80.0, help="W per socket")
    overhead.add_argument("--scale", type=float, default=1.0, help="workload scale")
    overhead.add_argument("--seed", type=int, default=0)

    for name, helptext in (
        ("nominal", "§4.3 / Figure 2"),
        ("faulty", "§4.4 / Figure 3"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument(
            "--caps", type=float, nargs="+", default=list(PAPER_CAPS_W_PER_SOCKET)
        )
        cmd.add_argument(
            "--pairs",
            nargs="+",
            default=None,
            help="subset of pairs as APP:APP (default: all 36)",
        )
        cmd.add_argument("--clients", type=int, default=20)
        cmd.add_argument("--scale", type=float, default=1.0, help="workload scale")
        cmd.add_argument("--seed", type=int, default=0)
        _add_runner_args(cmd)

    freq = sub.add_parser("scaling-frequency", help="§4.5 / Figures 4, 5, 7")
    freq.add_argument(
        "--freqs", type=float, nargs="+", default=list(PAPER_FREQUENCIES_HZ)
    )
    freq.add_argument("--clients", type=int, default=1056)
    freq.add_argument("--seed", type=int, default=0)
    _add_runner_args(freq)

    scale = sub.add_parser("scaling-scale", help="§4.5 / Figures 6, 8")
    scale.add_argument("--scales", type=int, nargs="+", default=list(PAPER_SCALES))
    scale.add_argument("--freq", type=float, default=1.0)
    scale.add_argument("--seed", type=int, default=0)
    _add_runner_args(scale)

    multijob = sub.add_parser(
        "multijob",
        help="§4.4 generalization: back-to-back contrasting jobs + fault",
    )
    multijob.add_argument("--clients", type=int, default=10)
    multijob.add_argument("--cap", type=float, default=65.0)
    multijob.add_argument("--scale", type=float, default=1.0)
    multijob.add_argument("--seed", type=int, default=0)
    multijob.add_argument(
        "--managers",
        nargs="+",
        default=["slurm", "penelope"],
        help="systems to compare (fair is always the baseline)",
    )

    allocation = sub.add_parser(
        "allocation",
        help="allocation quality vs the offline-oracle split",
    )
    allocation.add_argument("--clients", type=int, default=10)
    allocation.add_argument("--cap", type=float, default=65.0)
    allocation.add_argument("--scale", type=float, default=0.5)
    allocation.add_argument("--observe", type=float, default=30.0)
    allocation.add_argument("--seed", type=int, default=0)
    allocation.add_argument(
        "--managers", nargs="+", default=["fair", "slurm", "penelope"]
    )
    _add_runner_args(multijob)
    _add_runner_args(allocation)

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault storms under a continuous budget auditor",
    )
    chaos.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2], help="one run per seed"
    )
    chaos.add_argument("--clients", type=int, default=12)
    chaos.add_argument("--cap", type=float, default=70.0, help="W per socket")
    chaos.add_argument("--scale", type=float, default=0.25, help="workload scale")
    chaos.add_argument(
        "--duration", type=float, default=60.0, help="simulated seconds per run"
    )
    chaos.add_argument("--kills", type=int, default=2, help="nodes killed + restarted")
    chaos.add_argument("--flaps", type=int, default=2, help="flapping partitions")
    chaos.add_argument("--bursts", type=int, default=2, help="timed loss bursts")
    chaos.add_argument(
        "--burst-loss", type=float, default=0.02, help="loss probability in a burst"
    )
    chaos.add_argument(
        "--base-loss", type=float, default=0.0, help="steady-state loss probability"
    )
    chaos.add_argument(
        "--audit-interval", type=float, default=1.0, help="auditor probe period (s)"
    )
    chaos.add_argument(
        "--partitions",
        type=int,
        default=0,
        help="healed multi-node partitions (membership convergence scenario)",
    )
    chaos.add_argument(
        "--membership",
        action="store_true",
        help="run the SWIM failure detector and score it against the schedule",
    )
    chaos.add_argument(
        "--probe-period",
        type=float,
        default=0.5,
        help="membership probe period in simulated seconds",
    )
    chaos.add_argument(
        "--metrics-out",
        default=None,
        help="write per-seed detector metrics JSON to this path",
    )
    chaos.add_argument(
        "--duplicate-bursts",
        type=int,
        default=0,
        help="timed message-duplication bursts",
    )
    chaos.add_argument(
        "--reorder-bursts",
        type=int,
        default=0,
        help="timed reordering-window bursts (latency inversions)",
    )
    chaos.add_argument(
        "--clock-drifts",
        type=int,
        default=0,
        help="nodes whose local clocks drift mid-run",
    )
    chaos.add_argument(
        "--slow-nodes",
        type=int,
        default=0,
        help="gray-slow node windows (per-node latency multiplier)",
    )
    _add_runner_args(chaos)

    claims = sub.add_parser(
        "claims",
        help="check the paper's claims table; exit 1 on any FAIL",
    )
    claims.add_argument(
        "--paper",
        action="store_true",
        help="run at the paper's dimensions (slow) instead of the reduced bench size",
    )
    _add_runner_args(claims)

    fuzz = sub.add_parser(
        "fuzz",
        help="shrinking chaos fuzzer: search fault schedules for invariant breaks",
    )
    fuzz.add_argument(
        "--trials", type=int, default=25, help="random schedules to try"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign master seed")
    fuzz.add_argument(
        "--duration", type=float, default=20.0, help="simulated seconds per trial"
    )
    fuzz.add_argument(
        "--clients-max", type=int, default=10, help="largest sampled cluster"
    )
    fuzz.add_argument(
        "--max-shrink-runs",
        type=int,
        default=40,
        help="chaos-run budget for delta-debugging one violation",
    )
    fuzz.add_argument(
        "--invariants",
        nargs="+",
        default=None,
        help="invariant names to arm (default: the production set)",
    )
    fuzz.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "arm the deliberately-breakable selftest invariant to prove "
            "the find-and-shrink loop end to end"
        ),
    )
    fuzz.add_argument(
        "--out",
        default="fuzz-repro.json",
        help="where to write the minimized repro on violation",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a repro file instead of fuzzing",
    )
    fuzz.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append per-trial verdicts to a write-ahead campaign journal",
    )
    fuzz.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help=(
            "replay JOURNAL and skip trials with a durable clean verdict "
            "(implies --journal JOURNAL)"
        ),
    )

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()

    runner_kwargs: dict = {}
    if args.command in SWEEP_COMMANDS:
        runner_kwargs = dict(
            jobs=None if args.jobs == 0 else args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
        journal = args.resume if args.resume is not None else args.journal
        if journal is not None:
            runner_kwargs["journal"] = journal
        if args.resume is not None:
            runner_kwargs["resume"] = True
        if args.task_timeout is not None or args.max_retries is not None:
            try:
                runner_kwargs["retry"] = RetryPolicy(
                    max_retries=(
                        args.max_retries
                        if args.max_retries is not None
                        else DEFAULT_RETRY.max_retries
                    ),
                    task_timeout_s=args.task_timeout,
                )
            except ValueError as error:
                parser.error(str(error))
        if args.harness_faults is not None:
            runner_kwargs["harness_faults"] = args.harness_faults
        add_progress_listener(print_progress)
    try:
        return _dispatch(args, runner_kwargs)
    except SweepFailure as failure:
        print(f"[sweep failed] {failure}", file=sys.stderr)
        return 1
    finally:
        if args.command in SWEEP_COMMANDS:
            remove_progress_listener(print_progress)
        print(f"[done in {time.perf_counter() - started:.1f}s]", file=sys.stderr)


def _dispatch(args: argparse.Namespace, runner_kwargs: dict) -> int:
    if args.command == "lint":
        from repro.lint.cli import run_lint_command

        return run_lint_command(args)
    if args.command == "overhead":
        result = run_overhead_experiment(
            cap_w_per_socket=args.cap, seed=args.seed, workload_scale=args.scale
        )
        print(format_overhead(result))
    elif args.command == "nominal":
        result = run_nominal_sweep(
            caps=args.caps,
            pairs=_parse_pairs(args.pairs),
            n_clients=args.clients,
            seed=args.seed,
            workload_scale=args.scale,
            **runner_kwargs,
        )
        print(format_nominal(result))
    elif args.command == "faulty":
        result = run_faulty_sweep(
            caps=args.caps,
            pairs=_parse_pairs(args.pairs),
            n_clients=args.clients,
            seed=args.seed,
            workload_scale=args.scale,
            **runner_kwargs,
        )
        print(format_faulty(result))
    elif args.command == "scaling-frequency":
        results = sweep_frequency(
            frequencies_hz=args.freqs, n_clients=args.clients, seed=args.seed,
            **runner_kwargs,
        )
        for text in format_frequency_figures(results).values():
            print(text)
            print()
    elif args.command == "scaling-scale":
        results = sweep_scale(
            scales=args.scales, frequency_hz=args.freq, seed=args.seed,
            **runner_kwargs,
        )
        for text in format_scale_figures(results).values():
            print(text)
            print()
    elif args.command == "multijob":
        from repro.experiments.multijob import (
            format_multijob,
            run_multijob_comparison,
        )

        comparison = run_multijob_comparison(
            managers=args.managers,
            n_clients=args.clients,
            cap_w_per_socket=args.cap,
            seed=args.seed,
            workload_scale=args.scale,
            **runner_kwargs,
        )
        print(format_multijob(comparison))
    elif args.command == "chaos":
        from repro.experiments.chaos import (
            chaos_specs,
            format_chaos,
            run_chaos_sweep,
        )

        results = run_chaos_sweep(
            chaos_specs(
                args.seeds,
                n_clients=args.clients,
                cap_w_per_socket=args.cap,
                workload_scale=args.scale,
                duration_s=args.duration,
                kills=args.kills,
                flaps=args.flaps,
                bursts=args.bursts,
                burst_loss=args.burst_loss,
                base_loss=args.base_loss,
                audit_interval_s=args.audit_interval,
                partitions=args.partitions,
                enable_membership=args.membership,
                membership_probe_period_s=args.probe_period,
                duplicate_bursts=args.duplicate_bursts,
                reorder_bursts=args.reorder_bursts,
                clock_drifts=args.clock_drifts,
                slow_nodes=args.slow_nodes,
            ),
            **runner_kwargs,
        )
        # Chaos keeps quarantined seeds in-slot: report the survivors,
        # then the failures, and exit nonzero if any seed was lost.
        completed, failures = split_failures(results)
        print(format_chaos(completed))
        for failure in failures:
            print(
                f"[quarantined] seed {args.seeds[failure.index]}: "
                f"{failure.reason} ({failure.error_type}: {failure.message}) "
                f"after {failure.attempts} attempt(s)",
                file=sys.stderr,
            )
        if args.metrics_out is not None:
            import json

            metrics = {
                str(result.spec.seed): result.detector for result in completed
            }
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(metrics, handle, indent=2, sort_keys=True)
            print(f"[detector metrics written to {args.metrics_out}]", file=sys.stderr)
        if failures:
            return 1
    elif args.command == "claims":
        from repro.experiments.claims import format_claims, run_claims

        verdicts = run_claims("paper" if args.paper else "bench", **runner_kwargs)
        print(format_claims(verdicts))
        if not all(verdict.passed for verdict in verdicts):
            return 1
    elif args.command == "fuzz":
        from repro.experiments import fuzz as fuzz_mod

        if args.replay is not None:
            repro = fuzz_mod.load_repro(args.replay)
            reproduced, violations = fuzz_mod.replay_repro(repro)
            expected = repro["violation"]["invariant"]
            if reproduced is not None:
                print(
                    f"reproduced: {reproduced.invariant} at "
                    f"t={reproduced.time:.3f}s -- {reproduced.message}"
                )
                return 0
            print(
                f"FAILED to reproduce {expected!r} "
                f"({len(violations)} other violation(s) observed)"
            )
            return 1
        config = fuzz_mod.FuzzConfig(
            trials=args.trials,
            master_seed=args.seed,
            duration_s=args.duration,
            clients_max=args.clients_max,
            max_shrink_runs=args.max_shrink_runs,
            invariants=tuple(args.invariants) if args.invariants else None,
            self_test=args.self_test,
        )
        fuzz_journal = args.resume if args.resume is not None else args.journal
        report = fuzz_mod.run_fuzz(
            config,
            journal=fuzz_journal,
            resume=args.resume is not None,
        )
        print(fuzz_mod.format_fuzz(report))
        if report.repro is not None:
            fuzz_mod.write_repro(report.repro, args.out)
            print(f"[repro written to {args.out}]", file=sys.stderr)
        if args.self_test:
            # Success = the plumbing worked end to end: found the seeded
            # violation, shrank it to at most two faults, and the repro
            # file replays deterministically.
            if report.repro is None:
                print("[self-test] FAIL: no violation found", file=sys.stderr)
                return 1
            if report.repro["fault_count"] > 2:
                print(
                    "[self-test] FAIL: shrunk schedule still has "
                    f"{report.repro['fault_count']} faults (> 2)",
                    file=sys.stderr,
                )
                return 1
            reproduced, _ = fuzz_mod.replay_repro(report.repro)
            if reproduced is None:
                print("[self-test] FAIL: repro did not replay", file=sys.stderr)
                return 1
            print(
                "[self-test] OK: found, shrunk to "
                f"{report.repro['fault_count']} fault(s), replayed",
                file=sys.stderr,
            )
            return 0
        return 1 if report.violation_found else 0
    elif args.command == "allocation":
        from repro.experiments.allocation import (
            AllocationSpec,
            compare_allocation_quality,
            format_allocation,
        )

        traces = compare_allocation_quality(
            managers=args.managers,
            template=AllocationSpec(
                manager=args.managers[0],
                n_clients=args.clients,
                cap_w_per_socket=args.cap,
                workload_scale=args.scale,
                observe_s=args.observe,
                seed=args.seed,
            ),
            **runner_kwargs,
        )
        print(format_allocation(traces))
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
