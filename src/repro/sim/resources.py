"""The queueing primitive built on the event kernel.

:class:`Store` is a bounded FIFO of items.  Message inboxes are Stores;
the bounded capacity plus :meth:`Store.try_put` gives the packet-drop
semantics that drive the paper's scaling results.  Every node owns a
few, so a Store keeps its queues in plain lists (an empty ``list`` is
56 bytes, an empty ``deque`` 760): see the class docstring for why
``pop(0)`` stays cheap.

A power pool needs no lock: each transaction runs to completion inside
one event callback, so the event loop already serializes them (see
:mod:`repro.core.pool`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class StoreFull(Exception):
    """Raised by :meth:`Store.put_nowait` when the store is at capacity."""


class Store:
    """A bounded FIFO store of items.

    * :meth:`put_nowait` -- append, raising :class:`StoreFull` at capacity.
    * :meth:`try_put` -- append, returning False at capacity (packet drop).
    * :meth:`wait` -- hand the oldest item to ``fn(token, item)`` as soon
      as one is available.

    A waiting getter is a plain ``(fn, token)`` pair, so a wait builds
    no event.  A put that finds a getter waiting calls ``fn(token,
    item)`` in place: the owning loop resumes inside the put instead of
    behind a queued entry.  The queue hop would only defer the resume
    behind entries already queued for the same instant, and puts come
    from message deliveries, which land at continuous instants; the
    pinned fixtures and golden fingerprints are unchanged by it.  One
    hop per message delivered to an idle loop -- nearly every message --
    is measurable at sweep scale.  A wait on a non-empty store stays
    queued (see :meth:`wait`).

    Items and waiting getters sit in plain lists and leave from the front
    with ``pop(0)``.  That shift is O(len), but every store a run builds is
    small: message inboxes are capped at ``pool_inbox_capacity`` /
    ``server_inbox_capacity`` (128) or ``client_inbox_capacity`` (16), and
    a store has at most one waiting getter (its owning loop).  At that
    size ``pop(0)`` costs no more than ``deque.popleft``, while the empty
    list saves ~700 bytes per queue -- two queues per inbox, tens of
    thousands of inboxes in a 10k-node universe.  An unbounded store fed
    faster than it is drained would pay the linear shift; none exists.
    Slots drop the per-instance ``__dict__`` for the same reason.
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_items",
        "_getters",
        "total_put",
        "total_dropped",
    )

    def __init__(
        self,
        engine: "Engine",
        capacity: float = float("inf"),
        name: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "store"
        self._items: List[Any] = []
        self._getters: List[Tuple[Callable[[Any, Any], None], Any]] = []
        #: Counters for observability (drop rate is central to Fig. 5/7).
        self.total_put = 0
        self.total_dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def put_nowait(self, item: Any) -> None:
        """Insert ``item``; raise :class:`StoreFull` if at capacity."""
        if not self.try_put(item):
            raise StoreFull(f"{self.name} is at capacity {self.capacity}")

    def try_put(self, item: Any) -> bool:
        """Insert ``item`` if capacity allows.  Returns success.

        A failed ``try_put`` counts as a dropped packet.
        """
        # A waiting getter means the store is logically empty: hand over
        # directly (capacity cannot be exceeded in that case), in place
        # (see the class docstring).
        if self._getters:
            fn, token = self._getters.pop(0)
            self.total_put += 1
            fn(token, item)
            return True
        if len(self._items) >= self.capacity:
            self.total_dropped += 1
            return False
        self._items.append(item)
        self.total_put += 1
        return True

    def wait(self, fn: Callable[[Any, Any], None], token: Any) -> Any:
        """Hand the oldest item to ``fn(token, item)`` once one is available.

        On an empty store the getter waits for the next put, which calls
        ``fn`` in place, and this returns ``None``.  Otherwise the oldest
        item leaves now and is returned, and the call is queued as a bare
        entry at the key an event succeeding now would take.  ``token``
        tells the caller's waits apart (:meth:`cancel_wait`).
        """
        items = self._items
        if items:
            item = items.pop(0)
            self.engine.call_later(0.0, fn, token, item, name="store.hand-off")
            return item
        self._getters.append((fn, token))
        return None

    def cancel_wait(self, token: Any) -> bool:
        """Withdraw the getter waiting with ``token``; True if there was one.

        Without this, an abandoned getter would silently consume (and
        lose) the next item.  A hand-off :meth:`wait` already queued
        stays queued: its caller tells it apart by ``token``.
        """
        getters = self._getters
        for index, getter in enumerate(getters):
            if getter[1] == token:
                del getters[index]
                return True
        return False

    def get_nowait(self) -> Any:
        """Pop the oldest item immediately; raise ``IndexError`` if empty."""
        return self._items.pop(0)

    def drain(self) -> List[Any]:
        """Remove and return all queued items (used on node failure)."""
        items = self._items
        self._items = []
        return items
