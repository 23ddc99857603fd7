"""The ``repro lint`` subcommand (argument wiring + report rendering).

Exit codes are gating-friendly:

* ``0`` -- clean tree (or ``--list-rules``);
* ``1`` -- at least one finding (including unparseable files);
* ``2`` -- usage error (unknown rule id, missing path, bad config).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, Any, Dict, List, Optional

from repro.lint.config import LintConfig, discover_pyproject, load_config
from repro.lint.registry import all_rules
from repro.lint.runner import LintReport, lint_paths

#: JSON report schema version (bump on breaking shape changes).
REPORT_VERSION = 1


def add_lint_parser(sub: Any) -> None:
    """Register the ``lint`` subcommand on the top-level CLI parser."""
    cmd = sub.add_parser(
        "lint",
        help="static determinism & conservation analysis (rules R1-R6, R8-R11)",
        description=(
            "AST-based analyzer enforcing the simulator's determinism and "
            "watt-conservation invariants; --project adds the whole-program "
            "rules (layering, protocol conformance, RNG stream graph); see "
            "docs/LINTING.md."
        ),
    )
    cmd.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is stable for CI consumption)",
    )
    cmd.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    cmd.add_argument(
        "--config",
        default=None,
        help=(
            "pyproject.toml carrying [tool.repro-lint] "
            "(default: discovered upward from the first scan path)"
        ),
    )
    cmd.add_argument(
        "--project",
        action="store_true",
        help=(
            "whole-program mode: parse the tree once and additionally run "
            "the cross-file rules (R8 layering, R9 protocol conformance, "
            "R10 RNG stream graph)"
        ),
    )
    cmd.add_argument(
        "--list-rules",
        action="store_true",
        help="describe the registered rules and exit",
    )


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` from parsed CLI arguments."""
    if args.list_rules:
        _print_rule_table(sys.stdout)
        return 0

    paths = [Path(p) for p in args.paths]
    rule_ids: Optional[List[str]] = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]

    if args.config is not None:
        pyproject: Optional[Path] = Path(args.config)
        if not pyproject.is_file():
            print(f"lint: config not found: {pyproject}", file=sys.stderr)
            return 2
    else:
        pyproject = discover_pyproject(paths[0] if paths else Path.cwd())

    try:
        config = load_config(pyproject)
    except (ValueError, OSError) as exc:
        print(f"lint: bad config {pyproject}: {exc}", file=sys.stderr)
        return 2

    try:
        report = lint_paths(
            paths, rule_ids=rule_ids, config=config, project=args.project
        )
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"lint: {message}", file=sys.stderr)
        return 2

    if args.format == "json":
        json.dump(_report_dict(report), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        _print_text_report(report, sys.stdout)
    return 0 if report.ok else 1


def _report_dict(report: LintReport) -> Dict[str, object]:
    counts: Dict[str, int] = {}
    for finding in report.findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return {
        "version": REPORT_VERSION,
        "rules_run": list(report.rules_run),
        "files_scanned": report.files_scanned,
        "counts": counts,
        "findings": [finding.to_dict() for finding in report.findings],
    }


def _print_text_report(report: LintReport, out: IO[str]) -> None:
    for finding in report.findings:
        print(finding.format(), file=out)
    noun = "finding" if len(report.findings) == 1 else "findings"
    print(
        f"lint: {len(report.findings)} {noun} "
        f"({report.files_scanned} files scanned, "
        f"rules {', '.join(report.rules_run)})",
        file=out,
    )


def _print_rule_table(out: IO[str]) -> None:
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "entire tree"
        mode = " [project mode]" if rule.requires_project else ""
        print(f"{rule.rule_id}  {rule.name}{mode}", file=out)
        print(f"    {rule.summary}", file=out)
        print(f"    invariant: {rule.invariant}", file=out)
        print(f"    scope: {scope}", file=out)
