"""Batched decider ticks: one engine event per period per stagger slot.

The per-node decider loop queues one tick entry per node per period --
O(nodes) engine entries for a control plane that, in the common sweep
configuration, fires every node at the same cadence anyway.  The
:class:`TickBatcher` replaces them with a single queued call per period
(per stagger slot) whose handler runs every node's tick body --
:meth:`~repro.core.decider.LocalDecider.tick_start` /
:meth:`~repro.core.decider.LocalDecider.tick_end` -- as a plain call
over a flat member list.

Equivalence contract
--------------------
With staggering off, a batched run must produce the same transactions,
cap trajectories and ledger balances as the per-node loop (the
differential rig in ``tests/test_sim_batched_equivalence.py``).  The
mechanism is *send-order preservation*: the shared ``net.latency``
stream is consumed in message-send order, so outcomes match exactly when
sends happen in the same order in both modes.  A request runs on the
decider's own state machine in both modes -- a reply is taken in place
on delivery, a fired deadline queues a wake-up -- and three rules keep
the rest aligned:

* A node's request starts *inline* at the node's position in the batch
  loop (:meth:`~repro.core.decider.LocalDecider.request_power`), so its
  request send interleaves with the other nodes' tick sends exactly like
  the per-node ticks did.
* Same-instant member order mirrors the engine's sequence-number
  semantics: each member carries an order key re-assigned from a
  monotone counter whenever the per-node loop would have queued that
  node's next tick (at its tick, at a mid-period grant completion, at
  registration).  Sorting by key before each batch reproduces the
  per-node processing order.
* A request timing out exactly at the node's next tick instant resumes
  *after* that instant's batch (a fired deadline queues its wake-up
  with a fresh sequence number; only a reply is taken in place), so the
  batch skips the still-requesting member and the request's end runs
  the missed tick inline -- reproducing the per-node loop's catch-up
  tick, which fires after every batch-ticked node, in deadline order
  among catch-ups.

Nodes whose request deadline would outlive the period cannot keep this
alignment (the per-node loop ticks them late and catches up), so the
batcher only :meth:`supports` configs with ``timeout_s <= period_s``;
the manager falls back to per-node loops otherwise.

With staggering *on*, per-node start offsets are quantized onto
``engine.tick_slots`` slots (one batch event per slot per period).  The
same single RNG draw as the per-node loop keeps the decider stream
aligned, but tick *timing* diverges by up to one slot width -- a
documented approximation, which is why ``batched_ticks`` defaults off
and the pinned fixtures never enable it.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim import Handle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import PenelopeConfig
    from repro.core.decider import LocalDecider
    from repro.sim.engine import Engine


class _Member:
    """One batched decider plus its ordering/lifecycle bookkeeping."""

    __slots__ = ("decider", "slot", "order", "due", "requesting", "dead")

    def __init__(
        self, decider: "LocalDecider", slot: "_Slot", order: int, due: float
    ) -> None:
        self.decider = decider
        self.slot = slot
        #: Same-instant ordering key (see module docstring): stands in
        #: for the sequence number of the tick entry the per-node loop
        #: would have queued for this node.
        self.order = order
        #: First instant this member may tick (guards members that join
        #: a slot while its batch call is already pending).
        self.due = due
        #: True while the decider's peer request is in flight.
        self.requesting = False
        #: Lazily-deleted (killed/stopped) members are purged at the
        #: next batch.
        self.dead = False


class _Slot:
    """All members sharing one tick phase, plus their queued batch call."""

    __slots__ = ("next_time", "members", "event", "dirty")

    def __init__(self, next_time: float) -> None:
        self.next_time = next_time
        self.members: List[_Member] = []
        self.event: Optional[Handle] = None
        #: Membership or order keys changed since the last batch ran.
        self.dirty = False


class SharedDeadline:
    """One request deadline for every request armed at one instant.

    ``waiters`` lists ``(decider, wait number)`` for every inbox wait
    started on it, in order -- a wait re-armed after a stray message is
    listed again under its fresh number; when it fires, each decider
    still in the listed wait queues its wake-up, in that order.
    """

    __slots__ = ("handle", "waiters")

    def __init__(self, engine: "Engine", timeout_s: float) -> None:
        self.waiters: List[Tuple["LocalDecider", int]] = []
        self.handle = engine.call_cancellable(
            timeout_s, self._fire, name="decider.shared-deadline"
        )

    @property
    def pending(self) -> bool:
        """True until the deadline fires (or the batcher stops)."""
        return self.handle.pending

    def _fire(self) -> None:
        for decider, wait in self.waiters:
            if decider._wait == wait:
                decider._on_deadline()
        self.waiters = []


class TickBatcher:
    """Drives every registered decider's tick from one event per period.

    Lifecycle: the Penelope manager creates one batcher per run when the
    engine's ``batched_ticks`` flag is set and :meth:`supports` accepts
    the protocol config, registers deciders with :meth:`add` instead of
    starting their per-node loops, and tears it down with :meth:`stop`.
    Kills route through ``LocalDecider.stop`` -> :meth:`remove`; revived
    deciders are re-:meth:`add`-ed and land on a slot matching their
    restart phase (their own slot when the phase is new, so unaligned
    revives keep exact per-node cadence).
    """

    def __init__(self, engine: "Engine", period_s: float, tick_slots: int = 1) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if tick_slots < 1:
            raise ValueError("tick_slots must be at least 1")
        self.engine = engine
        self.period_s = period_s
        self.tick_slots = tick_slots
        self._slots: List[_Slot] = []
        self._members: Dict[int, _Member] = {}
        self._order = count()
        #: The member whose tick body is currently executing (so a
        #: request that resolves synchronously keeps its position).
        self._current: Optional[_Member] = None
        #: Shared request deadline (see :meth:`request_deadline`) plus
        #: the instant it fires at (the cache key).
        self._deadline: Optional[SharedDeadline] = None
        self._deadline_at = 0.0

    @staticmethod
    def supports(config: "PenelopeConfig") -> bool:
        """Whether batching preserves per-node semantics for ``config``.

        A response timeout longer than the period makes a requesting
        node miss ticks and catch up late -- a cadence the single batch
        event cannot reproduce -- so such configs stay on per-node loops.
        """
        return config.timeout_s <= config.period_s

    # -- membership ---------------------------------------------------------

    def add(self, decider: "LocalDecider") -> None:
        """Register ``decider`` and schedule its first tick.

        Mirrors ``LocalDecider.start()``: re-attaches the network
        endpoint (crash-restarted deciders) and, with staggering on,
        consumes the same single start-offset draw from the decider's
        RNG stream as the per-node loop would (then quantizes it onto
        the slot grid).
        """
        node_id = decider.node_id
        if node_id in self._members or decider.is_running:
            raise RuntimeError(f"decider {node_id} already running")
        if decider.network.inbox_of(decider.addr) is not decider.inbox:
            decider.network.attach(decider.addr, decider.inbox)
        offset = 0.0
        stagger = decider.config.effective_stagger_s
        if stagger > 0:
            draw = float(decider._rng.uniform(0.0, stagger))
            width = stagger / self.tick_slots
            offset = int(draw / width) * width
        engine = self.engine
        now = engine.now
        first = now + offset + self.period_s
        slot = None
        for candidate in self._slots:
            # Same phase joined mid-cycle, or (offset 0) joined at an
            # instant whose batch is still pending -- the `due` guard
            # keeps the newcomer out of that pending batch.
            if candidate.next_time == first or (
                offset == 0.0 and candidate.next_time == now
            ):
                slot = candidate
                break
        if slot is None:
            slot = _Slot(next_time=first)
            slot.event = engine.call_cancellable(
                first - now, self._run_slot, slot, name="decider.batch"
            )
            self._slots.append(slot)
        member = _Member(decider, slot, next(self._order), first)
        slot.members.append(member)
        slot.dirty = True
        self._members[node_id] = member
        decider._batcher = self

    def remove(self, decider: "LocalDecider") -> None:
        """Deregister ``decider`` (kill/stop path); lazily purged."""
        decider._batcher = None
        member = self._members.pop(decider.node_id, None)
        if member is None:
            return
        member.dead = True
        member.slot.dirty = True
        if member.requesting:
            member.requesting = False
            decider.abandon_request()

    def stop(self) -> None:
        """Tear down every slot's batch call and request in flight."""
        if self._deadline is not None:
            self._deadline.handle.cancel()
        self._deadline = None
        for slot in self._slots:
            if slot.event is not None:
                slot.event.cancel()
            slot.event = None
            slot.members = []
        self._slots = []
        for member in self._members.values():
            member.dead = True
            member.decider._batcher = None
            if member.requesting:
                member.requesting = False
                member.decider.abandon_request()
        self._members.clear()

    @property
    def node_count(self) -> int:
        return len(self._members)

    # -- shared request deadlines -------------------------------------------

    def request_deadline(self, timeout_s: float) -> SharedDeadline:
        """One deadline for every request armed at this instant.

        All requests sent from one batch share the same deadline instant
        (``now + timeout_s``), so one queued call can wake every
        still-waiting request -- in the order the waits started, which
        is exactly the order N per-request deadlines would have queued
        their wake-ups (their sequence numbers are handed out in member
        order, and firing one is node-local).  This replaces one
        cancellable handle, queue entry and cancellation per request
        with one queue entry per batch.

        The cache key is the *fire instant*: a catch-up tick or an
        in-period retry arms its deadline at a different ``now``, so it
        gets (and possibly starts) a fresh shared deadline.  A shared
        deadline is never cancelled while the batcher runs -- a grant
        that beats it only ends its own wait -- so it fires once,
        mostly into already-settled waits.
        """
        engine = self.engine
        when = engine.now + timeout_s
        shared = self._deadline
        if shared is not None and self._deadline_at == when and shared.pending:
            return shared
        shared = SharedDeadline(engine, timeout_s)
        self._deadline = shared
        self._deadline_at = when
        return shared

    # -- the batch event ----------------------------------------------------

    def _run_slot(self, slot: _Slot) -> None:
        engine = self.engine
        now = engine.now
        period = self.period_s
        if slot.dirty:
            members = [m for m in slot.members if not m.dead]
            members.sort(key=_member_order)
            slot.members = members
            slot.dirty = False
        if not slot.members:
            # Every member killed/stopped: drop the slot entirely.
            self._slots.remove(slot)
            slot.event = None
            return
        skipped = False
        for member in slot.members:
            if member.dead or member.requesting or member.due > now:
                skipped = True
                continue
            self._tick_member(member)
        if skipped:
            # Skipped members kept keys older than the ones just handed
            # out; re-sort before the next batch.
            slot.dirty = True
        # Re-schedule at the END of the handler so this entry's sequence
        # number exceeds every request deadline queued above -- those
        # deadlines must fire (node-local bookkeeping only, no sends)
        # before the next batch, exactly like they beat per-node ticks.
        slot.next_time = now + period
        slot.event = engine.call_cancellable(
            period, self._run_slot, slot, name="decider.batch"
        )

    def _tick_member(self, member: _Member) -> None:
        """Run one member's tick body at the current instant."""
        member.due = self.engine.now + self.period_s
        member.order = next(self._order)
        decider = member.decider
        current = self._current
        self._current = member
        urgency = decider.tick_start()
        if urgency is None:
            decider.tick_end(False, 0.0)
        else:
            member.requesting = True
            decider.request_power(urgency)
        self._current = current

    def request_done(self, decider: "LocalDecider") -> None:
        """``decider``'s request ended (its ``tick_end`` has run)."""
        member = self._members[decider.node_id]
        member.requesting = False
        if member is self._current:
            # Resolved synchronously inside its own tick (e.g. empty
            # membership view skips the request): position unchanged.
            return
        if self.engine.now >= member.due:
            # The request resolved at the member's next tick instant --
            # after this instant's batch, which skipped the member as
            # still-requesting (a fired deadline queues its wake-up
            # with a fresh sequence number, so a same-instant timeout
            # always lands behind the batch call).  The per-node loop
            # runs its catch-up tick inline right here, after every
            # batch-ticked node, in deadline order among fellow
            # catch-ups -- do exactly that.
            self._tick_member(member)
        else:
            # Grant resolved mid-period: the per-node loop would queue
            # the node's next tick *now*, sequencing it behind every node
            # whose tick is already queued -- mirror that by re-keying
            # the member to the back.
            member.order = next(self._order)
            member.slot.dirty = True


def _member_order(member: _Member) -> int:
    return member.order
