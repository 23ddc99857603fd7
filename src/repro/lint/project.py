"""Whole-program analysis context shared by the project-mode rules.

Where :class:`~repro.lint.context.FileContext` sees one file,
:class:`ProjectContext` sees the package: it is handed every parsed
file of one analyzer run and pre-computes the three cross-file facts
the project rules (R8-R10) check:

* the **module import graph** -- every ``repro.*`` import edge, with
  ``if TYPE_CHECKING:`` imports marked (annotation-only edges carry no
  runtime coupling, so the layering rule exempts them);
* the **message protocol surface** -- every message dataclass defined
  in a ``messages.py`` module, every construction (send-side evidence),
  every ``isinstance``/``match`` dispatch (handle-side evidence) and
  every ``.kind ==`` string dispatch;
* the **RNG stream table** -- every ``.stream(...)`` draw site with its
  name template normalized (f-string interpolations become ``{}``,
  names resolve through module-level string constants), plus the
  declared manifest parsed statically from ``sim/streams.py``.

Everything is collected in one deterministic pass (files in sorted
order, facts in source order), so project findings are stable across
runs and machines.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.context import FileContext

#: Name of the stream manifest R10 reads out of ``sim/streams.py``.
STREAM_TABLE_NAME = "STREAM_TABLE"

#: Receiver spellings that make a ``.kind == "..."`` comparison count
#: as message dispatch (``TransactionEvent.kind`` and friends use other
#: receiver names and stay out of R9's reach).
_MESSAGE_RECEIVERS = frozenset({"message", "msg", "m", "self.message", "self.msg"})


class ImportEdge:
    """One ``repro.*`` import statement in one module."""

    __slots__ = ("path", "line", "target", "type_checking")

    def __init__(self, path: str, line: int, target: str, type_checking: bool) -> None:
        self.path = path  # display path of the importing file
        self.line = line
        self.target = target  # dotted module, e.g. "repro.sim.engine"
        self.type_checking = type_checking


class MessageClass:
    """One message dataclass declared in a ``messages.py`` module."""

    __slots__ = ("name", "path", "line", "base")

    def __init__(self, name: str, path: str, line: int, base: bool) -> None:
        self.name = name
        self.path = path
        self.line = line
        #: True for the root ``Message`` class itself (never sent).
        self.base = base


class Site:
    """A (path, line, node) anchor for one collected fact."""

    __slots__ = ("path", "line", "node")

    def __init__(self, path: str, line: int, node: ast.AST) -> None:
        self.path = path
        self.line = line
        self.node = node


class StreamDraw:
    """One ``.stream(...)`` call site."""

    __slots__ = ("path", "module_path", "line", "node", "template")

    def __init__(
        self,
        path: str,
        module_path: Optional[str],
        line: int,
        node: ast.AST,
        template: Optional[str],
    ) -> None:
        self.path = path
        self.module_path = module_path
        self.line = line
        self.node = node
        #: Normalized name template; ``None`` when unresolvable.
        self.template = template


class StreamEntry:
    """One manifest row parsed statically from the stream table."""

    __slots__ = ("template", "owners", "path", "line", "node")

    def __init__(
        self,
        template: str,
        owners: Tuple[str, ...],
        path: str,
        line: int,
        node: ast.AST,
    ) -> None:
        self.template = template
        self.owners = owners
        self.path = path
        self.line = line
        self.node = node


def _type_checking_lines(tree: ast.Module) -> Set[int]:
    """Line numbers of statements inside ``if TYPE_CHECKING:`` blocks."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = None
        if isinstance(test, ast.Name):
            name = test.id
        elif isinstance(test, ast.Attribute):
            name = test.attr
        if name != "TYPE_CHECKING":
            continue
        for child in node.body:
            for sub in ast.walk(child):
                line = getattr(sub, "lineno", None)
                if line is not None:
                    lines.add(line)
    return lines


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments (flow-insensitive)."""
    table: Dict[str, str] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not (
            isinstance(value, ast.Constant) and isinstance(value.value, str)
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                table[target.id] = value.value
    return table


def normalize_template(node: ast.expr, constants: Dict[str, str]) -> Optional[str]:
    """The stream-name template of an argument expression.

    String literals are themselves; f-strings keep their literal parts
    with every interpolation normalized to ``{}``; plain names resolve
    through the module's string-constant table.  Anything else (method
    results, concatenation, parameters) is unresolvable -> ``None``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            elif isinstance(piece, ast.FormattedValue):
                parts.append("{}")
            else:  # pragma: no cover - no other f-string piece kinds exist
                return None
        return "".join(parts)
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def template_overlaps(a: str, b: str) -> bool:
    """Whether two templates can produce the same concrete stream name.

    Exact duplicates always overlap.  A fully literal name overlaps a
    template when it matches the template with every ``{}`` standing
    for one or more characters.  Two templates that both carry
    placeholders are compared on their literal skeletons only (a
    heuristic; the manifest keeps namespaces disjoint enough that the
    skeleton test is decisive in practice).
    """
    if a == b:
        return True
    return _matches_template(a, b) or _matches_template(b, a)


def _matches_template(name: str, template: str) -> bool:
    if "{}" not in template:
        return False
    pattern = ".+".join(re.escape(piece) for piece in template.split("{}"))
    return re.fullmatch(pattern, name) is not None


class ProjectContext:
    """Cross-file facts for one whole-program analyzer run."""

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.files: Dict[str, FileContext] = {}
        for ctx in sorted(contexts, key=lambda c: c.display_path):
            self.files[ctx.display_path] = ctx

        # -- import graph --------------------------------------------------
        self.import_edges: List[ImportEdge] = []
        # -- protocol surface ----------------------------------------------
        self.message_classes: Dict[str, MessageClass] = {}
        #: Builder function name -> the message class it returns.
        self.message_builders: Dict[str, str] = {}
        self.construction_sites: Dict[str, List[Site]] = {}
        self.handling_sites: Dict[str, List[Site]] = {}
        self.kind_literal_sites: List[Tuple[Site, str]] = []
        # -- stream graph --------------------------------------------------
        self.stream_draws: List[StreamDraw] = []
        #: Manifest rows, or ``None`` when no stream table was scanned.
        self.stream_entries: Optional[List[StreamEntry]] = None

        self._collect_import_edges()
        self._collect_message_classes()
        self._collect_message_builders()
        self._collect_protocol_sites()
        self._collect_stream_facts()

    # -- import graph -------------------------------------------------------

    def _collect_import_edges(self) -> None:
        for ctx in self.files.values():
            guarded = _type_checking_lines(ctx.tree)
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "repro" or alias.name.startswith("repro."):
                            self.import_edges.append(
                                ImportEdge(
                                    ctx.display_path,
                                    node.lineno,
                                    alias.name,
                                    node.lineno in guarded,
                                )
                            )
                elif isinstance(node, ast.ImportFrom) and node.module:
                    module = node.module
                    if module == "repro" or module.startswith("repro."):
                        self.import_edges.append(
                            ImportEdge(
                                ctx.display_path,
                                node.lineno,
                                module,
                                node.lineno in guarded,
                            )
                        )

    # -- message protocol surface -------------------------------------------

    def _message_modules(self) -> List[FileContext]:
        return [
            ctx
            for ctx in self.files.values()
            if ctx.display_path.endswith("/messages.py")
            or ctx.display_path == "messages.py"
        ]

    def _collect_message_classes(self) -> None:
        """Dataclasses in ``messages.py`` modules descending from ``Message``.

        Resolution is transitive within the scanned set: a class whose
        base resolves (by simple name or through the import table) to a
        known message class is itself a message class.  The fixed point
        converges in a couple of passes -- hierarchies are shallow.
        """
        candidates: List[Tuple[FileContext, ast.ClassDef]] = []
        for ctx in self._message_modules():
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    candidates.append((ctx, node))

        known: Dict[str, MessageClass] = {}
        for ctx, node in candidates:
            if node.name == "Message":
                known[node.name] = MessageClass(
                    node.name, ctx.display_path, node.lineno, base=True
                )
        changed = True
        while changed:
            changed = False
            for ctx, node in candidates:
                if node.name in known:
                    continue
                for base in node.bases:
                    base_name: Optional[str] = None
                    if isinstance(base, ast.Name):
                        base_name = base.id
                    elif isinstance(base, ast.Attribute):
                        base_name = base.attr
                    if base_name in known:
                        known[node.name] = MessageClass(
                            node.name, ctx.display_path, node.lineno, base=False
                        )
                        changed = True
                        break
        self.message_classes = known

    def _collect_message_builders(self) -> None:
        """Module-level functions of ``messages.py`` modules annotated to
        return a message class (``def power_grant(...) -> PowerGrant``).

        A call to one is a construction of that class, like a call to
        the class itself: hot paths build messages through such
        positional builders.
        """
        for ctx in self._message_modules():
            for node in ctx.tree.body:
                if isinstance(node, ast.FunctionDef) and node.returns is not None:
                    returns = node.returns
                    name: Optional[str] = None
                    if isinstance(returns, ast.Name):
                        name = returns.id
                    elif isinstance(returns, ast.Constant) and isinstance(
                        returns.value, str
                    ):
                        name = returns.value
                    cls = self.message_classes.get(name) if name else None
                    if cls is not None and not cls.base:
                        self.message_builders[node.name] = cls.name

    def _resolve_constructed_name(
        self, ctx: FileContext, node: ast.expr
    ) -> Optional[str]:
        """The message class a call of ``node`` constructs, if any."""
        name = self._resolve_message_name(ctx, node)
        if name is not None:
            return name
        if isinstance(node, ast.Name):
            return self.message_builders.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.message_builders.get(node.attr)
        return None

    def _resolve_message_name(self, ctx: FileContext, node: ast.expr) -> Optional[str]:
        """The message-class name ``node`` refers to, if any."""
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return None
        cls = self.message_classes.get(name)
        if cls is None or cls.base:
            return None
        if isinstance(node, ast.Name) and ctx.display_path != cls.path:
            # Outside the defining module the simple name must actually
            # be imported (or shadow nothing) -- resolve via the alias
            # table when it is there; accept unresolved names too, since
            # star imports and same-package re-exports are common.
            qualified = ctx.imports.get(name)
            if qualified is not None and not qualified.endswith(f".{name}"):
                return None
        return name

    def _collect_protocol_sites(self) -> None:
        for ctx in self.files.values():
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Call):
                    name = self._resolve_constructed_name(ctx, node.func)
                    if (
                        name is not None
                        and ctx.display_path != self.message_classes[name].path
                    ):
                        self.construction_sites.setdefault(name, []).append(
                            Site(ctx.display_path, node.lineno, node)
                        )
                    self._collect_isinstance(ctx, node)
                elif isinstance(node, ast.Compare):
                    self._collect_kind_compare(ctx, node)
                elif isinstance(node, ast.match_case):
                    pattern = node.pattern
                    if isinstance(pattern, ast.MatchClass):
                        name = self._resolve_message_name(ctx, pattern.cls)
                        if name is not None:
                            self.handling_sites.setdefault(name, []).append(
                                Site(ctx.display_path, pattern.lineno, pattern)
                            )

    def _collect_isinstance(self, ctx: FileContext, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            return
        if len(node.args) != 2:
            return
        types = node.args[1]
        type_nodes = (
            list(types.elts) if isinstance(types, ast.Tuple) else [types]
        )
        for type_node in type_nodes:
            name = self._resolve_message_name(ctx, type_node)
            if name is not None:
                self.handling_sites.setdefault(name, []).append(
                    Site(ctx.display_path, node.lineno, node)
                )

    def _collect_kind_compare(self, ctx: FileContext, node: ast.Compare) -> None:
        """``message.kind == "X"`` / ``message.kind in ("X", ...)`` sites."""
        left = node.left
        if not (isinstance(left, ast.Attribute) and left.attr == "kind"):
            return
        receiver = _receiver_key(left.value)
        if receiver not in _MESSAGE_RECEIVERS:
            return
        if not all(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            return
        for comparator in node.comparators:
            literal_nodes = (
                list(comparator.elts)
                if isinstance(comparator, (ast.Tuple, ast.List, ast.Set))
                else [comparator]
            )
            for literal in literal_nodes:
                if isinstance(literal, ast.Constant) and isinstance(literal.value, str):
                    self.kind_literal_sites.append(
                        (Site(ctx.display_path, literal.lineno, literal), literal.value)
                    )
                    cls = self.message_classes.get(literal.value)
                    if cls is not None and not cls.base:
                        # String dispatch is handling evidence too.
                        self.handling_sites.setdefault(literal.value, []).append(
                            Site(ctx.display_path, literal.lineno, literal)
                        )

    def _collect_stream_facts(self) -> None:
        for ctx in self.files.values():
            if ctx.display_path.endswith("sim/streams.py"):
                entries = self._parse_stream_table(ctx)
                if entries is not None:
                    if self.stream_entries is None:
                        self.stream_entries = []
                    self.stream_entries.extend(entries)
            constants = _string_constants(ctx.tree)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
                    continue
                if len(node.args) != 1 or node.keywords:
                    continue
                template = normalize_template(node.args[0], constants)
                self.stream_draws.append(
                    StreamDraw(
                        ctx.display_path,
                        ctx.module_path,
                        node.lineno,
                        node,
                        template,
                    )
                )

    @staticmethod
    def _parse_stream_table(ctx: FileContext) -> Optional[List[StreamEntry]]:
        """Statically evaluate the ``STREAM_TABLE`` literal."""
        for node in ctx.tree.body:
            target_names: List[str] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                target_names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                target_names = [node.target.id]
                value = node.value
            if STREAM_TABLE_NAME not in target_names or value is None:
                continue
            if not isinstance(value, (ast.Tuple, ast.List)):
                return None
            entries: List[StreamEntry] = []
            for element in value.elts:
                if not isinstance(element, ast.Call):
                    continue
                template: Optional[str] = None
                owners: Tuple[str, ...] = ()
                for keyword in element.keywords:
                    if keyword.arg == "template":
                        if isinstance(keyword.value, ast.Constant) and isinstance(
                            keyword.value.value, str
                        ):
                            template = keyword.value.value
                    elif keyword.arg == "owners":
                        if isinstance(keyword.value, (ast.Tuple, ast.List)):
                            owners = tuple(
                                e.value
                                for e in keyword.value.elts
                                if isinstance(e, ast.Constant)
                                and isinstance(e.value, str)
                            )
                positional = [
                    a for a in element.args if isinstance(a, ast.Constant)
                ]
                if template is None and positional:
                    first = positional[0].value
                    if isinstance(first, str):
                        template = first
                if template is not None:
                    entries.append(
                        StreamEntry(
                            template,
                            owners,
                            ctx.display_path,
                            element.lineno,
                            element,
                        )
                    )
            return entries
        return None


def _receiver_key(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None
