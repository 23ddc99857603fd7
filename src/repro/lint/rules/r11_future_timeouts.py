"""R11: no unbounded future waits in the experiment harness layer.

The resilient sweep executor exists because one hung worker must never
hang a campaign: every harvest point has a deadline, and hung tasks are
charged a retry and reclaimed by a pool rebuild.  A single bare
``future.result()`` / ``concurrent.futures.wait(fs)`` /
``as_completed(fs)`` anywhere in ``repro.experiments`` silently
reintroduces the unbounded wait this PR removed -- the campaign blocks
forever on exactly the failure mode the executor is built to survive.

Flagged in the ``repro/experiments`` layer:

* ``<anything>.result()`` with neither a positional timeout nor a
  ``timeout=`` keyword (``future.result(timeout=0)`` on a future already
  known ``done()`` is the executor's own idiom and passes);
* ``concurrent.futures.wait(fs)`` without ``timeout=`` (resolved through
  the import alias table, so ``from concurrent.futures import wait as w``
  is still caught);
* ``concurrent.futures.as_completed(fs)`` without ``timeout=`` -- its
  iterator blocks in ``__next__``, which is the same unbounded wait in
  disguise.

Project-scoped (``requires_project``): the rule rides the whole-program
scan alongside the other cross-file architecture rules, keeping the
per-file mode's R1-R6 contract stable for partial trees.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.registry import Rule, register

#: Dotted call targets that take their timeout as the second positional
#: argument or the ``timeout`` keyword.
_WAIT_CALLS = frozenset(
    {"concurrent.futures.wait", "concurrent.futures.as_completed"}
)


def _has_timeout_kwarg(node: ast.Call) -> bool:
    return any(keyword.arg == "timeout" for keyword in node.keywords)


@register
class FutureTimeoutRule(Rule):
    rule_id = "R11"
    name = "future-wait-timeouts"
    summary = (
        "every Future.result()/wait()/as_completed() in the experiments "
        "layer carries a timeout"
    )
    invariant = (
        "bounded harvesting: the experiment harness never blocks "
        "unboundedly on a worker, so a hung task is always reclaimed by "
        "the deadline/retry machinery instead of hanging the campaign"
    )
    scope = ("repro/experiments",)
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.files.values():
            if ctx.module_path is None or not ctx.in_scope(self.scope):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "result"
                    and not node.args
                    and not _has_timeout_kwarg(node)
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "bare .result() blocks unboundedly on a worker; "
                        "pass a timeout (the executor uses "
                        "result(timeout=0) on futures already done())",
                    )
                    continue
                target = ctx.qualified_name(func)
                if target in _WAIT_CALLS and not _has_timeout_kwarg(node):
                    # timeout is the second positional parameter of both.
                    if len(node.args) >= 2:
                        continue
                    short = target.rsplit(".", 1)[1]
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{short}() without a timeout blocks unboundedly "
                        "on the pool; pass timeout= so hung workers are "
                        "reclaimed by the deadline machinery",
                    )


__all__ = ["FutureTimeoutRule"]
