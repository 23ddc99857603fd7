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
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple, Union


@dataclass(frozen=True, slots=True)
class TransactionEvent:
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


@dataclass(frozen=True, slots=True)
class TurnaroundSample:
    """Time a decider spent waiting for a pool/server response."""

    time: float
    node: int
    wait_s: float
    granted_w: float
    timed_out: bool


@dataclass(frozen=True, slots=True)
class CapSample:
    """A node's requested powercap after a decider iteration."""

    time: float
    node: int
    cap_w: float


@dataclass(frozen=True, slots=True)
class LedgerSample:
    """One named term of a budget-conservation snapshot.

    The chaos auditor emits one sample per ledger term per probe (caps,
    pooled, escrow, in-flight, write-offs, residual, ...), so the full
    conservation trajectory of a run can be replayed from the recorder.
    """

    time: float
    name: str
    value: float


#: The recorder's row tables and their row types.  A row is the
#: dataclass's fields in declaration order, so ``cls(*row)`` decodes it.
ROW_TYPES: Dict[str, Any] = {
    "transactions": TransactionEvent,
    "turnarounds": TurnaroundSample,
    "caps": CapSample,
    "samples": LedgerSample,
}

#: Undecoded row tables: a cache file's UTF-8 JSON body, or the parsed
#: mapping.
RowSource = Union[bytes, Dict[str, Any]]


class MetricsRecorder:
    """Append-only event log for one simulation run.

    Recording every cap sample of a thousand-node run would dominate
    memory, so cap sampling can be disabled; transaction and turnaround
    events are always kept (they are what the paper's figures need).

    A recorder replayed from a cache file or a journal record is built
    by :meth:`from_rows` and holds its row tables undecoded: the JSON
    is parsed and the row dataclasses are built on the first access to
    any of the four row lists (through :meth:`__getattr__`, so a freshly
    simulated recorder keeps plain list attributes and recording costs
    nothing extra).  :meth:`row_tables` of a recorder nobody touched
    re-encodes straight from the undecoded rows.
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
            setattr(self, table, [row_type(*row) for row in tables[table]])
        return self.__dict__[name]

    def row_tables(self) -> Dict[str, List[List[Any]]]:
        """The row lists as field rows, keyed by :data:`ROW_TYPES` name.

        An undecoded recorder answers from its source rows (parsing a
        JSON body once) and builds no row dataclass.
        """
        rows = self.__dict__.get("_rows")
        if rows is not None:
            if isinstance(rows, bytes):
                rows = self._rows = json.loads(rows)
            # Ledger samples postdate the original codec; absent key means none.
            return {table: rows.get(table, []) for table in ROW_TYPES}
        return {
            "transactions": [
                [t.time, t.kind, t.src, t.dst, t.watts, t.urgent]
                for t in self.transactions
            ],
            "turnarounds": [
                [s.time, s.node, s.wait_s, s.granted_w, s.timed_out]
                for s in self.turnarounds
            ],
            "caps": [[s.time, s.node, s.cap_w] for s in self.caps],
            "samples": [[s.time, s.name, s.value] for s in self.samples],
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
            TransactionEvent(
                time=time, kind=kind, src=src, dst=dst, watts=watts, urgent=urgent
            )
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
            TurnaroundSample(
                time=time,
                node=node,
                wait_s=wait_s,
                granted_w=granted_w,
                timed_out=timed_out,
            )
        )

    def cap(self, time: float, node: int, cap_w: float) -> None:
        if self._record_caps:
            self.caps.append(CapSample(time=time, node=node, cap_w=cap_w))

    def sample(self, time: float, name: str, value: float) -> None:
        self.samples.append(LedgerSample(time=time, name=name, value=value))

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
