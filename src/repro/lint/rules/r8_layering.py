"""R8: layering & substrate purity -- the declared layer DAG holds.

The architecture is a DAG of layers (docs/ARCHITECTURE.md,
docs/LINTING.md)::

    sim  <-  net / power / workloads  <-  core / membership / managers
         <-  cluster  <-  experiments / analysis / cli / lint

A module may import only from its own layer or below.  Siblings inside
one layer may import each other (core wires managers.base and the
membership detector; power and workloads are mutually recursive by
design); ``if TYPE_CHECKING:`` imports are exempt everywhere because
annotation-only edges carry no runtime coupling.

On top of the DAG, the **protocol layers** (``core``, ``membership``,
``managers``) get two stricter substrate-purity checks -- the statically
enforced precondition for running the same decider/pool/SWIM code on a
real asyncio/socket substrate (ROADMAP):

* they must not import ``repro.sim.engine`` or any private
  ``repro.sim._*`` module directly -- the injected clock
  seam is the ``repro.sim`` package facade, which a future substrate
  can re-point without touching protocol code;
* they must not reach into engine internals: any ``engine._name`` /
  ``self.engine._name`` attribute access is flagged (the public clock
  surface is ``engine.now`` and the documented scheduling API).

``cluster`` is the composition root that *constructs* the engine and
network, and ``net`` is the network seam itself, so both keep full
engine access.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import ast

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.registry import Rule, register

#: Layer rank of each top-level unit inside the ``repro`` package.
#: Subpackages by name; top-level modules by stem.  Lower ranks are
#: closer to the substrate; imports must never point up-rank.
LAYERS: Dict[str, int] = {
    "sim": 0,
    "instrumentation": 0,
    "net": 1,
    "power": 1,
    "workloads": 1,
    "core": 2,
    "membership": 2,
    "managers": 2,
    "cluster": 3,
    "analysis": 4,
    "experiments": 4,
    "cli": 4,
    "lint": 4,
    # The package facade and entry point sit above everything.
    "__init__": 5,
    "__main__": 5,
}

#: Layers holding protocol logic that must stay substrate-pure.
PROTOCOL_LAYERS = frozenset({"core", "membership", "managers"})

#: ``repro.sim`` submodules protocol layers may import directly.  The
#: facade (bare ``repro.sim``) is always legal; the engine and every
#: private module are not -- and the remaining submodules (events,
#: resources, config, rng, schedulers, streams) are data/type surfaces,
#: not execution machinery.
_BANNED_SIM_MODULES = ("repro.sim.engine",)


def _unit_of(module_path: str) -> str:
    """The layer-table key of a ``repro/...`` module path."""
    parts = module_path.split("/")
    if len(parts) == 2:  # repro/<module>.py
        return parts[1].removesuffix(".py")
    return parts[1]


def _unit_of_target(target: str) -> str:
    """The layer-table key of a dotted ``repro.*`` import target."""
    parts = target.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


@register
class LayeringRule(Rule):
    rule_id = "R8"
    name = "layering-substrate-purity"
    summary = (
        "imports follow the layer DAG; protocol layers touch the clock "
        "only through the repro.sim facade and public engine API"
    )
    invariant = (
        "substrate independence: decider/pool/SWIM code depends on the "
        "injected seams (clock, network), never on simulator internals, "
        "so a real-socket substrate can replace the simulator unchanged"
    )
    scope = ()
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for edge in project.import_edges:
            if edge.type_checking:
                continue
            ctx = project.files[edge.path]
            if ctx.module_path is None:
                continue
            source_unit = _unit_of(ctx.module_path)
            source_rank = LAYERS.get(source_unit)
            if source_rank is None:
                continue
            target_unit = _unit_of_target(edge.target)
            target_rank = LAYERS.get(target_unit)
            node = _node_at(ctx, edge.line)
            if target_rank is not None and target_rank > source_rank:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"layer violation: {source_unit} (layer {source_rank}) "
                    f"imports {edge.target} ({target_unit}, layer "
                    f"{target_rank}); the layer DAG only allows imports "
                    "at or below a module's own layer",
                )
            if source_unit in PROTOCOL_LAYERS:
                banned = edge.target in _BANNED_SIM_MODULES or (
                    edge.target.startswith("repro.sim._")
                )
                if banned:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"substrate leak: protocol layer {source_unit} "
                        f"imports {edge.target} directly; import the "
                        "clock seam through the repro.sim facade "
                        "instead",
                    )
        yield from self._engine_internals(project)

    def _engine_internals(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.files.values():
            if ctx.module_path is None:
                continue
            if _unit_of(ctx.module_path) not in PROTOCOL_LAYERS:
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                attribute = node.attr
                if not attribute.startswith("_") or attribute.startswith("__"):
                    continue
                receiver = node.value
                is_engine = (
                    isinstance(receiver, ast.Name) and receiver.id == "engine"
                ) or (
                    isinstance(receiver, ast.Attribute)
                    and receiver.attr == "engine"
                )
                if is_engine:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"engine internals access .{attribute}; protocol "
                        "layers use the public clock/scheduling surface "
                        "(engine.now, call_later, ...) only",
                    )


def _node_at(ctx: FileContext, line: int) -> ast.AST:
    """A throwaway anchor node for a known (line, col=0) location."""
    anchor = ast.Pass()
    anchor.lineno = line
    anchor.col_offset = 0
    return anchor


__all__: Tuple[str, ...] = ("LayeringRule", "LAYERS", "PROTOCOL_LAYERS")
