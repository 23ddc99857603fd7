"""R9: protocol conformance -- every message type is live end to end.

The message surface is convention-heavy: dataclasses in
``net/messages.py`` / ``membership/messages.py``, ``Network.send`` on
one side, and ``isinstance`` dispatch in inbox loops and datagram
handlers on the other.  Nothing ties the two surfaces together at
runtime -- a type that is sent but never handled simply vanishes into
``dropped_unattached`` counters at 2 a.m.

Cross-file checks (anchors chosen so inline suppressions land where the
decision is made):

* **sent-but-unhandled** -- a message class is constructed somewhere
  but no module dispatches on it; flagged at every construction (send)
  site.
* **handled-but-never-constructed** -- dead dispatch arms; flagged at
  every ``isinstance``/``match`` site of the orphaned type.
* **unknown kind literal** -- ``message.kind == "Typo"`` string
  dispatch on a name no registered message type carries; flagged at
  the literal.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext, Site
from repro.lint.registry import Rule, register


@register
class ProtocolConformanceRule(Rule):
    rule_id = "R9"
    name = "protocol-conformance"
    summary = (
        "every message type sent has a handler, every handler a sender, "
        "every kind-literal a registered type"
    )
    invariant = (
        "closed protocol surface: the send sites and dispatch sites agree "
        "on exactly the same set of message types, so no message can "
        "silently vanish"
    )
    scope = ()
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes = {
            name for name, cls in project.message_classes.items() if not cls.base
        }
        for name in sorted(classes):
            constructed = project.construction_sites.get(name, ())
            handled = project.handling_sites.get(name, ())
            if constructed and not handled:
                for site in constructed:
                    yield self._finding(
                        project,
                        site,
                        f"message type {name} is sent here but no module "
                        "handles it (no isinstance/match dispatch "
                        "anywhere in the scanned tree)",
                    )
            if handled and not constructed:
                for site in handled:
                    yield self._finding(
                        project,
                        site,
                        f"message type {name} is dispatched here but never "
                        "constructed anywhere in the scanned tree (dead "
                        "handler arm)",
                    )
        for site, literal in project.kind_literal_sites:
            cls = project.message_classes.get(literal)
            if cls is None or cls.base:
                yield self._finding(
                    project,
                    site,
                    f"kind dispatch on string literal {literal!r}, which "
                    "matches no registered message type",
                )

    def _finding(
        self, project: ProjectContext, site: Site, message: str
    ) -> Finding:
        ctx = project.files[site.path]
        return ctx.finding(self.rule_id, site.node, message)
