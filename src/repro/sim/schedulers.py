"""The simulation engine's event queue.

The engine's queue is a total order over ``(time, priority, sequence)``
keys -- the *determinism contract*: the queue must surface exactly the
live entries in exactly that order, or a replayed simulation silently
diverges.  :class:`HeapScheduler`, a binary heap over the full key, is
the one implementation; ``tests/test_sim_scheduler_equivalence.py``
checks it against a brute-force sorted-list model.

Entries are 5-tuples ``(time, priority, sequence, fn, args)`` (see
:mod:`repro.sim.events`): a bare call, a cancellable
:class:`~repro.sim.events.Handle` or a triggered event.  Sequence
numbers are unique, so the tuple comparison never reaches ``fn``.

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
  timing is internal: the scheduler keeps its *live* size exact from
  the set of cancelled sequence numbers still on the heap, and
  compaction bounds held garbage to at most the live entry count
  (cancellation storms cannot grow the queue without bound, see
  ``tests/test_sim_scheduler_cancellation.py``).
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

#: Queue entries are ``(time, priority, sequence, fn, args)``.
QueueItem = Tuple[float, int, int, Callable[..., Any], Tuple[Any, ...]]


class HeapScheduler:
    """One binary heap over the full ``(time, priority, sequence)`` key.

    ``push`` is an instance attribute bound to C-level ``heappush``: it
    is the single hottest call in the simulator -- every queued call,
    triggered event and message delivery lands here.

    Cancellation is by sequence number: ``_cancelled`` holds the
    sequence numbers of cancelled entries still on the heap, so an entry
    needs no flag of its own, and a pop looks one up only while some
    cancelled entry is still queued.
    """

    __slots__ = ("_heap", "_cancelled", "push")

    def __init__(self) -> None:
        heap: List[QueueItem] = []
        self._heap = heap
        #: Sequence numbers of cancelled entries still physically queued.
        self._cancelled: Set[int] = set()
        # C-level bound push: avoids a Python frame per enqueue on the
        # kernel's hottest path.
        self.push = partial(heappush, heap)

    def pop(self) -> Optional[QueueItem]:
        """Remove and return the least live entry, or ``None`` when empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            item = heappop(heap)
            if cancelled and item[2] in cancelled:
                cancelled.remove(item[2])
                continue
            return item
        return None

    def pop_due(self, horizon: float) -> Optional[QueueItem]:
        """Like :meth:`pop`, but only when the head's time is <= ``horizon``."""
        heap = self._heap
        cancelled = self._cancelled
        if cancelled:
            while heap and heap[0][2] in cancelled:
                cancelled.remove(heappop(heap)[2])
        if heap and heap[0][0] <= horizon:
            return heappop(heap)
        return None

    def peek(self) -> Optional[QueueItem]:
        """The least live entry without removing it, or ``None`` when empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][2] in cancelled:
            cancelled.remove(heappop(heap)[2])
        return heap[0] if heap else None

    def note_cancelled(self, sequence: int) -> None:
        """Record that the *queued* entry ``sequence`` was cancelled.

        Called by :meth:`Handle.cancel <repro.sim.events.Handle.cancel>`
        (through :meth:`Engine._note_cancelled`) exactly once per
        cancelled entry.  The live size drops immediately; once dead
        entries outnumber live ones the heap is compacted, which bounds
        the memory held by cancelled-but-unexpired entries at O(live).
        """
        cancelled = self._cancelled
        cancelled.add(sequence)
        if len(cancelled) * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry in one O(n) pass.

        Rebuilds in place: ``push`` is bound to the heap list, so the
        list object must survive.
        """
        heap = self._heap
        cancelled = self._cancelled
        heap[:] = [item for item in heap if item[2] not in cancelled]
        heapify(heap)
        cancelled.clear()

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) queued entries."""
        return len(self._heap) - len(self._cancelled)


#: The benchmark harness under ``bench/`` reads these two names.
SCHEDULERS: Dict[str, Type[HeapScheduler]] = {"heap": HeapScheduler}


def default_scheduler_name() -> str:
    """The name of the engine's event queue (always ``"heap"``)."""
    return "heap"
