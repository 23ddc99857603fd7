"""R6: every engine callback registration names a deterministic tiebreak key.

Same-instant entries process in sequence order, so *which* callback ran
first is invisible in any timestamp -- the ``name`` at the registration
is the handle for diagnosing and pinning same-instant orderings (the
fault plan states its kill/flap/burst same-instant contract in exactly
these terms).  An anonymous registration that lands in a same-instant cluster
turns "why did the refund beat the ack in this run?" into a debugger
session instead of a log line.

The queue's entry points, ``call_later`` (a bare entry) and
``call_cancellable`` (a handle), must pass a *constant* key: they run
on the hottest paths, where a per-entry f-string costs an allocation
for a label a bare entry does not even keep.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: The engine's queue entry points.
_QUEUE_METHODS = frozenset({"call_later", "call_cancellable"})


def _name_keyword(node: ast.Call) -> Optional[ast.keyword]:
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword
    return None


@register
class CallbackNameRule(Rule):
    rule_id = "R6"
    name = "named-callbacks"
    summary = (
        "call_later()/call_cancellable() registrations must pass a constant "
        "name= tiebreak key"
    )
    invariant = (
        "diagnosable same-instant ordering: every queue entry in a "
        "same-time cluster is identifiable by name"
    )
    scope = ()  # whole tree: anonymous queue entries hurt wherever they occur

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in _QUEUE_METHODS):
                continue
            keyword = _name_keyword(node)
            if keyword is None:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "callback registration without name=; pass a deterministic "
                    "tiebreak key (a cheap constant is fine on hot paths)",
                )
            elif isinstance(keyword.value, ast.JoinedStr):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "queue entry named by an f-string; pass a constant key "
                    "(the queued function and its arguments identify the entry)",
                )
