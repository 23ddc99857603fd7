"""File discovery and rule execution.

:func:`lint_paths` is the programmatic entry point used by both the CLI
subcommand and the test suite::

    report = lint_paths([Path("src")])
    assert not report.findings

Passing ``project=True`` additionally builds a
:class:`~repro.lint.project.ProjectContext` over every parsed file --
one pass, deterministic order -- and runs the whole-program rules
(R8-R10) against it; without it those rules are skipped (and left out
of ``rules_run``), since per-file scans cannot see cross-file facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import PARSE_ERROR_RULE, Finding
from repro.lint.project import ProjectContext
from repro.lint.registry import Rule, get_rules

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro-cache", ".venv", "node_modules"})


@dataclass(frozen=True)
class LintReport:
    """The outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths``, deterministically ordered.

    Overlapping arguments (a directory plus one of its files, nested
    directories, the same path spelled twice or relative-and-absolute)
    yield each file exactly once: every candidate is deduplicated
    through its resolved path before being yielded.
    """
    seen = set()
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                yield candidate


def _parse_error_finding(path: Path, exc: Exception) -> Finding:
    line = getattr(exc, "lineno", 1) or 1
    return Finding(
        rule_id=PARSE_ERROR_RULE,
        path=path.as_posix(),
        line=line,
        col=1,
        message=f"could not parse file: {exc}",
    )


def _check_context(
    ctx: FileContext, rules: Sequence[Rule], config: LintConfig
) -> List[Finding]:
    """Run the per-file ``rules`` over one parsed context."""
    findings: List[Finding] = []
    for rule in rules:
        if rule.requires_project:
            continue
        if not config.rule_enabled(rule.rule_id):
            continue
        if not rule.applies_to(ctx):
            continue
        if config.path_allowed(rule.rule_id, ctx.display_path):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding.rule_id, finding.line):
                findings.append(finding)
    return findings


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run ``rules`` over one file, honoring suppressions and allowlists."""
    config = config or LintConfig()
    try:
        ctx = FileContext.from_path(path)
    except (SyntaxError, UnicodeDecodeError) as exc:
        return [_parse_error_finding(path, exc)]
    findings = _check_context(ctx, rules, config)
    # ast.walk is breadth-first; report in source order regardless.
    findings.sort(key=Finding.sort_key)
    return findings


def _check_project(
    project: ProjectContext, rules: Sequence[Rule], config: LintConfig
) -> List[Finding]:
    """Run the whole-program rules once over the project context."""
    findings: List[Finding] = []
    for rule in rules:
        if not rule.requires_project:
            continue
        if not config.rule_enabled(rule.rule_id):
            continue
        for finding in rule.check_project(project):
            if config.path_allowed(rule.rule_id, finding.path):
                continue
            ctx = project.files.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding.rule_id, finding.line):
                continue
            findings.append(finding)
    return findings


def lint_paths(
    paths: Iterable[Path],
    rule_ids: Optional[Iterable[str]] = None,
    config: Optional[LintConfig] = None,
    project: bool = False,
) -> LintReport:
    """Run the analyzer over all python files under ``paths``.

    ``project=True`` parses every file exactly once, runs the per-file
    rules from the cached parse, then builds the cross-file
    :class:`~repro.lint.project.ProjectContext` and runs the
    whole-program rules over it.
    """
    rules = get_rules(rule_ids)
    config = config or LintConfig()
    findings: List[Finding] = []
    files_scanned = 0
    contexts: List[FileContext] = []
    for path in iter_python_files(paths):
        files_scanned += 1
        if project:
            try:
                ctx = FileContext.from_path(path)
            except (SyntaxError, UnicodeDecodeError) as exc:
                findings.append(_parse_error_finding(path, exc))
                continue
            contexts.append(ctx)
            findings.extend(_check_context(ctx, rules, config))
        else:
            findings.extend(lint_file(path, rules, config))
    if project:
        findings.extend(_check_project(ProjectContext(contexts), rules, config))
    findings.sort(key=Finding.sort_key)
    ran = [
        rule.rule_id
        for rule in rules
        if project or not rule.requires_project
    ]
    return LintReport(
        findings=findings,
        files_scanned=files_scanned,
        rules_run=tuple(ran),
    )
