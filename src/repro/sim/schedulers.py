"""The simulation engine's event queue.

The engine's queue of triggered events is a total order over
``(time, priority, sequence)`` tuples -- the *determinism contract*:
the queue must surface exactly the live entries in exactly that order,
or a replayed simulation silently diverges.  :class:`HeapScheduler`, a
binary heap over the full key, is the one implementation;
``tests/test_sim_scheduler_equivalence.py`` checks it against a
brute-force sorted-list model.

Ordering invariants:

* pops follow the strict ``(time, priority, sequence)`` total order,
  even across duplicate timestamps and zero-delay chains;
* entries pushed while the queue is mid-drain (same simulated instant)
  sort behind already-queued entries at the same key only via their
  sequence number;
* cancelled entries never surface from ``pop`` / ``pop_due`` / ``peek``
  and never count toward ``len()``.  Physically they are lazily
  deleted -- dropped when they reach the head or swept in bulk by
  :meth:`HeapScheduler.note_cancelled`-triggered compaction -- but that
  timing is internal: the scheduler keeps its *live* size exact via a
  dead-entry counter, and compaction bounds held garbage to at most the
  live entry count (cancellation storms cannot grow the queue without
  bound, see ``tests/test_sim_scheduler_cancellation.py``).
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.events import EventBase

#: Queue entries are ``(time, priority, sequence, event)``.
QueueItem = Tuple[float, int, int, "EventBase"]


class HeapScheduler:
    """One binary heap over the full ``(time, priority, sequence)`` key.

    ``push`` is an instance attribute bound to C-level ``heappush``: it
    is the single hottest call in the simulator -- every timeout,
    callback, process step and message delivery lands here.
    """

    __slots__ = ("_heap", "_dead", "push")

    def __init__(self) -> None:
        heap: List[QueueItem] = []
        self._heap = heap
        #: Cancelled entries still physically on the heap.
        self._dead = 0
        # C-level bound push: avoids a Python frame per enqueue on the
        # kernel's hottest path.
        self.push = partial(heappush, heap)

    def pop(self) -> Optional[QueueItem]:
        """Remove and return the least live entry, or ``None`` when empty."""
        heap = self._heap
        while heap:
            item = heappop(heap)
            if item[3]._cancelled:
                self._dead -= 1
                continue
            return item
        return None

    def pop_due(self, horizon: float) -> Optional[QueueItem]:
        """Like :meth:`pop`, but only when the head's time is <= ``horizon``."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._dead -= 1
        if heap and heap[0][0] <= horizon:
            return heappop(heap)
        return None

    def peek(self) -> Optional[QueueItem]:
        """The least live entry without removing it, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._dead -= 1
        return heap[0] if heap else None

    def note_cancelled(self) -> None:
        """Record that one *queued* entry was cancelled.

        Called by ``Timeout.cancel`` / ``Callback.cancel`` (through
        :meth:`Engine._note_cancelled`) exactly once per cancelled entry.
        The live size drops immediately; once dead entries outnumber
        live ones the heap is compacted, which bounds the memory held by
        cancelled-but-unexpired entries at O(live).
        """
        dead = self._dead + 1
        self._dead = dead
        if dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry in one O(n) pass.

        Rebuilds in place: ``push`` is bound to the heap list, so the
        list object must survive.
        """
        heap = self._heap
        heap[:] = [item for item in heap if not item[3]._cancelled]
        heapify(heap)
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) queued entries."""
        return len(self._heap) - self._dead


#: The benchmark harness under ``bench/`` reads these two names.
SCHEDULERS: Dict[str, Type[HeapScheduler]] = {"heap": HeapScheduler}


def default_scheduler_name() -> str:
    """The name of the engine's event queue (always ``"heap"``)."""
    return "heap"
