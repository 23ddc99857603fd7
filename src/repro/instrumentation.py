"""Event recording shared by all power managers.

Every manager (Penelope, SLURM, Fair) records the same event
vocabulary into a :class:`MetricsRecorder`; the analysis layer
(:mod:`repro.experiments.metrics`) derives the paper's metrics from it:

* **power redistribution time** -- from ``release`` and ``grant`` events,
* **turnaround time** -- from ``turnaround`` samples,
* cap/pool timelines and budget audits -- from ``cap`` and ``pool`` events.
"""

from __future__ import annotations

import json
import sys
from array import array
from itertools import repeat
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union


class TransactionEvent(NamedTuple):
    """One power movement.

    ``kind`` is one of:

    * ``"release"`` -- a decider freed power into a pool/server,
    * ``"grant"`` -- a pool/server granted power to a decider,
    * ``"local"`` -- a decider drained its own local pool,
    * ``"induced-release"`` -- power released due to urgency back-pressure.
    """

    time: float
    kind: str
    src: int
    dst: int
    watts: float
    urgent: bool = False


class TurnaroundSample(NamedTuple):
    """Time a decider spent waiting for a pool/server response."""

    time: float
    node: int
    wait_s: float
    granted_w: float
    timed_out: bool


class CapSample(NamedTuple):
    """A node's requested powercap after a decider iteration."""

    time: float
    node: int
    cap_w: float


class LedgerSample(NamedTuple):
    """One named term of a budget-conservation snapshot.

    The chaos auditor emits one sample per ledger term per probe (caps,
    pooled, escrow, in-flight, write-offs, residual, ...), so the full
    conservation trajectory of a run can be replayed from the recorder.
    """

    time: float
    name: str
    value: float


#: Builds a row from a tuple of its fields, skipping the generated
#: keyword-binding ``__new__``: ``_new_row(CapSample, (t, node, w))``.
_new_row = tuple.__new__

#: The recorder's row tables and their row types.  A row is a named
#: tuple of its fields in declaration order, so ``cls(*row)`` decodes it.
ROW_TYPES: Dict[str, Any] = {
    "transactions": TransactionEvent,
    "turnarounds": TurnaroundSample,
    "caps": CapSample,
    "samples": LedgerSample,
}

#: Undecoded row tables: a packed body (:func:`pack_rows`), or a
#: mapping of row lists (a journal record's inline rows).
RowSource = Union[bytes, Dict[str, Any]]


# -- the packed row body --------------------------------------------------------
#
# A result cache file stores the recorder's rows as a *packed body*: one
# canonical-JSON head line, then each table's columns as little-endian
# ``array`` bytes, tables in ROW_TYPES order and columns in field order.
# The head names the layout and gives, per table, its row count and one
# spec per column:
#
# * ``"d"`` -- float64, ``"q"`` -- int64, ``"?"`` -- bools as bytes;
# * ``["s", code, strings]`` -- indices (typecode ``code``) into ``strings``;
# * ``["j", values]`` -- the values themselves, for a column mixing types
#   (say an int among floats), kept in the head so they decode as written.
#
# A column is packed only when every value has exactly one of those types,
# so a decoded value is the recorded one bit for bit: same float bits,
# same int, bool or string.  Encoding the same rows as JSON text instead
# cost ~8 % of a cold campaign (each float formatted as decimal text).

#: The head's ``layout`` value; bodies of any other layout do not decode.
PACKED_LAYOUT = "columns-le/1"
#: What every packed body starts with (its head's first, sorted, key).
PACKED_PREFIX = b'{"layout":"' + PACKED_LAYOUT.encode("ascii") + b'",'
_BIG_ENDIAN = sys.byteorder != "little"
_INDEX_CODES = (("B", 1 << 8), ("H", 1 << 16), ("I", 1 << 32))


def _pack_column(column: Sequence[Any]) -> Tuple[Any, bytes]:
    """A column's head spec and its packed bytes (none for ``"j"``)."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    values: "array[Any]"
    if kind is float:
        spec: Any = "d"
        values = array("d", column)
    elif kind is bool:
        spec = "?"
        values = array("B", column)
    elif kind is int and -(1 << 63) <= min(column) and max(column) < 1 << 63:
        spec = "q"
        values = array("q", column)
    elif kind is str:
        strings = list(dict.fromkeys(column))
        code = next(code for code, limit in _INDEX_CODES if len(strings) <= limit)
        spec = ["s", code, strings]
        index = {string: position for position, string in enumerate(strings)}
        values = array(code, map(index.__getitem__, column))
    else:
        return ["j", list(column)], b""
    if _BIG_ENDIAN:
        values.byteswap()
    return spec, values.tobytes()


def pack_rows(tables: Dict[str, Sequence[Sequence[Any]]]) -> bytes:
    """The row tables (lists of field rows, keyed by :data:`ROW_TYPES`
    name; an absent table is empty) as one packed body."""
    head: Dict[str, Any] = {}
    chunks: List[bytes] = []
    for table in ROW_TYPES:
        rows = tables.get(table, [])
        specs = []
        for column in zip(*rows):
            spec, packed = _pack_column(column)
            specs.append(spec)
            chunks.append(packed)
        head[table] = [len(rows), specs]
    line = json.dumps(
        {"layout": PACKED_LAYOUT, "tables": head}, sort_keys=True, separators=(",", ":")
    )
    return b"".join([line.encode("utf-8"), b"\n", *chunks])


def unpack_columns(body: bytes) -> Dict[str, List[List[Any]]]:
    """Inverse of :func:`pack_rows`, by column: each table's field columns.

    Raises ``ValueError`` (``json.JSONDecodeError`` included) or
    ``KeyError``/``TypeError``/``IndexError`` on anything but a whole
    packed body.
    """
    if not body.startswith(PACKED_PREFIX):
        raise ValueError("not a packed row body")
    newline = body.index(b"\n")
    head = json.loads(body[:newline])
    if head["layout"] != PACKED_LAYOUT:
        raise ValueError(f"unknown row layout {head['layout']!r}")
    view = memoryview(body)
    offset = newline + 1
    tables: Dict[str, List[List[Any]]] = {}
    for table in ROW_TYPES:
        count, specs = head["tables"][table]
        columns: List[List[Any]] = []
        for spec in specs:
            if isinstance(spec, list) and spec[0] == "j":
                column = spec[1]
            else:
                code = spec[1] if isinstance(spec, list) else spec
                values = array("B" if code == "?" else code)
                end = offset + count * values.itemsize
                values.frombytes(view[offset:end])
                offset = end
                if _BIG_ENDIAN:
                    values.byteswap()
                if spec == "?":
                    column = list(map(bool, values))
                elif isinstance(spec, list):
                    column = list(map(spec[2].__getitem__, values))
                else:
                    column = values.tolist()
            if len(column) != count:
                raise ValueError(f"short {table} column")
            columns.append(column)
        if count and not columns:
            raise ValueError(f"{table} rows without columns")
        tables[table] = columns
    if offset != len(body):
        raise ValueError("trailing bytes after the row columns")
    return tables


class MetricsRecorder:
    """Append-only event log for one simulation run.

    Recording every cap sample of a thousand-node run would dominate
    memory, so cap sampling can be disabled; transaction and turnaround
    events are always kept (they are what the paper's figures need).
    Rows are named tuples, built positionally.

    A recorder replayed from a cache file or a journal record is built
    by :meth:`from_rows` and holds its row tables undecoded: the packed
    body is unpacked and the row tuples are built on the first access to
    any of the four row lists (through :meth:`__getattr__`, so a freshly
    simulated recorder keeps plain list attributes and recording costs
    nothing extra).  :meth:`row_tables` of a recorder nobody touched
    answers straight from the undecoded rows.
    """

    #: Undecoded row tables; set only on a :meth:`from_rows` recorder
    #: until its first row-list access.
    _rows: RowSource

    def __init__(self, record_caps: bool = True) -> None:
        self.transactions: List[TransactionEvent] = []
        self.turnarounds: List[TurnaroundSample] = []
        self.caps: List[CapSample] = []
        #: Conservation-ledger terms sampled by the chaos auditor.
        self.samples: List[LedgerSample] = []
        self._record_caps = record_caps
        #: Free-form counters managers may bump (drops, retries, ...).
        self.counters: Dict[str, int] = {}

    @classmethod
    def from_rows(
        cls, record_caps: bool, counters: Dict[str, int], rows: RowSource
    ) -> "MetricsRecorder":
        """A recorder whose row lists are decoded from ``rows`` on first use."""
        recorder = cls.__new__(cls)
        recorder._record_caps = record_caps
        recorder.counters = counters
        recorder._rows = rows
        return recorder

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal lookup fails, i.e. for a row list of a
        # from_rows recorder that is still undecoded.  Reads __dict__
        # directly so a half-built instance (mid-unpickling) cannot recurse.
        if name not in ROW_TYPES or "_rows" not in self.__dict__:
            raise AttributeError(name)
        tables = self.row_tables()
        del self._rows
        for table, row_type in ROW_TYPES.items():
            setattr(self, table, list(map(_new_row, repeat(row_type), tables[table])))
        return self.__dict__[name]

    def row_tables(self) -> Dict[str, Sequence[Sequence[Any]]]:
        """The row lists, keyed by :data:`ROW_TYPES` name.

        A live recorder hands over its own lists (rows are tuples, which
        JSON writes as arrays).  An undecoded recorder answers from its
        source rows (unpacking a packed body once) and builds no row
        tuple.
        """
        rows = self.__dict__.get("_rows")
        if rows is not None:
            if isinstance(rows, bytes):
                rows = self._rows = {
                    table: list(zip(*columns))
                    for table, columns in unpack_columns(rows).items()
                }
            # Ledger samples postdate the original codec; absent key means none.
            return {table: rows.get(table, []) for table in ROW_TYPES}
        return {
            "transactions": self.transactions,
            "turnarounds": self.turnarounds,
            "caps": self.caps,
            "samples": self.samples,
        }

    # -- recording ---------------------------------------------------------

    def transaction(
        self,
        time: float,
        kind: str,
        src: int,
        dst: int,
        watts: float,
        urgent: bool = False,
    ) -> None:
        if watts < 0:
            raise ValueError(f"negative transaction size {watts!r}")
        self.transactions.append(
            _new_row(TransactionEvent, (time, kind, src, dst, watts, urgent))
        )

    def turnaround(
        self,
        time: float,
        node: int,
        wait_s: float,
        granted_w: float,
        timed_out: bool,
    ) -> None:
        self.turnarounds.append(
            _new_row(TurnaroundSample, (time, node, wait_s, granted_w, timed_out))
        )

    def cap(self, time: float, node: int, cap_w: float) -> None:
        if self._record_caps:
            self.caps.append(_new_row(CapSample, (time, node, cap_w)))

    def sample(self, time: float, name: str, value: float) -> None:
        self.samples.append(_new_row(LedgerSample, (time, name, value)))

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    # -- simple views --------------------------------------------------------

    def grants(self) -> List[TransactionEvent]:
        return [t for t in self.transactions if t.kind == "grant"]

    def releases(self) -> List[TransactionEvent]:
        return [
            t
            for t in self.transactions
            if t.kind in ("release", "induced-release")
        ]

    def total_granted_w(self) -> float:
        return sum(t.watts for t in self.grants())

    def total_released_w(self) -> float:
        return sum(t.watts for t in self.releases())

    def turnaround_waits(self, include_timeouts: bool = True) -> List[float]:
        return [
            s.wait_s
            for s in self.turnarounds
            if include_timeouts or not s.timed_out
        ]

    def caps_of(self, node: int) -> List[Tuple[float, float]]:
        return [(s.time, s.cap_w) for s in self.caps if s.node == node]


def merge_recorders(recorders: Iterable[MetricsRecorder]) -> MetricsRecorder:
    """Merge several runs' logs (used by repetition sweeps).

    The merged recorder samples caps only if at least one input did:
    large-scale sweeps disable cap recording to bound memory, and merging
    must not silently re-enable it (the merged log would then mix runs
    that recorded caps with runs that could not have).
    """
    recorders = list(recorders)
    merged = MetricsRecorder(
        record_caps=any(r._record_caps for r in recorders) if recorders else True
    )
    for recorder in recorders:
        merged.transactions.extend(recorder.transactions)
        merged.turnarounds.extend(recorder.turnarounds)
        merged.caps.extend(recorder.caps)
        merged.samples.extend(recorder.samples)
        for key, value in recorder.counters.items():
            merged.counters[key] = merged.counters.get(key, 0) + value
    merged.transactions.sort(key=lambda t: t.time)
    merged.turnarounds.sort(key=lambda t: t.time)
    merged.caps.sort(key=lambda t: t.time)
    merged.samples.sort(key=lambda t: t.time)
    return merged
