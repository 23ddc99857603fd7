"""Batched decider ticks: one engine event per period per stagger slot.

The per-node decider loop costs one generator resume, one ``Timeout``
allocation and one scheduler round-trip per node per period -- O(nodes)
engine events for a control plane that, in the common sweep
configuration, fires every node at the same cadence anyway.  The
:class:`TickBatcher` replaces all of it with a single
:class:`~repro.sim.events.Callback` per period (per stagger slot) whose
handler runs every node's tick body -- hoisted into
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
sends happen in the same order in both modes.  The kernel's in-place
hand-offs (a put into an idle inbox, a reply ending a ``FirstOf`` wait,
an interrupt) resume their waiter the same way on both paths, and three
rules keep the rest aligned:

* A node's request body runs *inline* at the node's position in the
  batch loop (:class:`~repro.sim.process.InlineProcess` advances the
  continuation synchronously), so its request send interleaves with the
  other nodes' tick sends exactly like the per-node resumes did.
* Same-instant member order mirrors the engine's sequence-number
  semantics: each member carries an order key re-assigned from a
  monotone counter whenever the per-node loop would have created that
  node's next wake-up event (at its tick, at a mid-period grant
  completion, at registration).  Sorting by key before each batch
  reproduces the per-node processing order.
* A request timing out exactly at the node's next tick instant resumes
  *after* that instant's batch (``FirstOf`` re-schedules a deadline's
  resume with a fresh sequence number at fire time; only a reply
  resumes in place), so the batch skips the still-requesting member and
  the continuation runs the missed tick inline -- reproducing the
  per-node loop's catch-up tick, which fires after every batch-ticked
  node, in deadline order among catch-ups.

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
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.sim import (
    Callback,
    EventBase,
    InlineProcess,
    Interrupt,
    Process,
    Timeout,
    stop_process,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import PenelopeConfig
    from repro.core.decider import LocalDecider
    from repro.sim.engine import Engine


class _Member:
    """One batched decider plus its ordering/lifecycle bookkeeping."""

    __slots__ = ("decider", "slot", "order", "due", "requesting", "request", "dead")

    def __init__(
        self, decider: "LocalDecider", slot: "_Slot", order: int, due: float
    ) -> None:
        self.decider = decider
        self.slot = slot
        #: Same-instant ordering key (see module docstring): stands in
        #: for the sequence number of the wake-up event the per-node
        #: loop would have created for this node.
        self.order = order
        #: First instant this member may tick (guards members that join
        #: a slot while its batch callback is already pending).
        self.due = due
        #: True while a peer-request continuation is in flight.
        self.requesting = False
        self.request: Optional[Process] = None
        #: Lazily-deleted (killed/stopped) members are purged at the
        #: next batch.
        self.dead = False


class _Slot:
    """All members sharing one tick phase, plus their batch event."""

    __slots__ = ("next_time", "members", "event", "dirty")

    def __init__(self, next_time: float) -> None:
        self.next_time = next_time
        self.members: List[_Member] = []
        self.event: Optional[Callback] = None
        #: Membership or order keys changed since the last batch ran.
        self.dirty = False


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
        #: Shared request-deadline event (see :meth:`request_deadline`)
        #: plus the instant it fires at (the cache key).
        self._deadline: Optional[Timeout] = None
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
            slot.event = Callback(
                engine, first - now, self._run_slot, slot, name="tick-batch"
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
        request = member.request
        member.request = None
        if request is not None and request.is_alive:
            stop_process(request)

    def stop(self) -> None:
        """Tear down every slot event and in-flight continuation."""
        deadline = self._deadline
        if deadline is not None and deadline.callbacks is not None:
            if not deadline._cancelled:
                deadline.cancel()
        self._deadline = None
        for slot in self._slots:
            event = slot.event
            if event is not None and event.callbacks is not None:
                event.cancel()
            slot.event = None
            slot.members = []
        self._slots = []
        for member in self._members.values():
            member.dead = True
            member.decider._batcher = None
            request = member.request
            member.request = None
            if request is not None and request.is_alive:
                stop_process(request)
        self._members.clear()

    @property
    def node_count(self) -> int:
        return len(self._members)

    # -- shared request deadlines -------------------------------------------

    def request_deadline(self, timeout_s: float) -> Timeout:
        """One deadline event for every request armed at this instant.

        All requests sent from one batch share the same deadline instant
        (``now + timeout_s``), so a single :class:`Timeout` can wake
        every still-waiting ``FirstOf`` -- in member order, which is
        exactly the processing order N per-member deadline events would
        have had (their sequence numbers are handed out in member order,
        and their ``_process`` bodies are node-local).  This replaces
        one Timeout allocation + queue entry + cancellation per request
        with one queue entry per batch.

        The cache key is the *fire instant*: a catch-up tick or an
        in-period retry arms its deadline at a different ``now``, so it
        gets (and possibly starts) a fresh shared event.  The shared
        deadline is never cancelled -- grants that beat it leave their
        ``FirstOf`` resolved, whose ``_on_sub`` ignores the late firing
        -- so the per-batch event simply fires once, mostly into
        already-settled waiters.
        """
        engine = self.engine
        when = engine.now + timeout_s
        shared = self._deadline
        if (
            shared is not None
            and self._deadline_at == when
            and shared.callbacks is not None
        ):
            return shared
        shared = Timeout(engine, timeout_s, name="batched-deadline")
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
        # Re-schedule at the END of the handler so this event's sequence
        # number exceeds every request deadline created above -- those
        # deadlines must process (node-local bookkeeping only, no sends)
        # before the next batch, exactly like they beat per-node resumes.
        slot.next_time = now + period
        slot.event = Callback(engine, period, self._run_slot, slot, name="tick-batch")

    def _tick_member(self, member: _Member) -> None:
        """Run one member's tick body at the current instant."""
        engine = self.engine
        member.due = engine.now + self.period_s
        member.order = next(self._order)
        decider = member.decider
        current = self._current
        self._current = member
        urgency = decider.tick_start()
        if urgency is None:
            decider.tick_end(False, 0.0)
        else:
            member.requesting = True
            request = InlineProcess(
                engine,
                self._run_request(member, urgency),
                name=f"batched-request@{decider.node_id}",
            )
            if member.requesting:
                member.request = request
        self._current = current

    def _run_request(
        self, member: _Member, urgency: bool
    ) -> Generator[EventBase, Any, None]:
        """Continuation finishing one member's request-carrying tick."""
        decider = member.decider
        try:
            granted = yield from decider._request_from_peer(urgency)
        except Interrupt:
            member.requesting = False
            member.request = None
            return
        decider.tick_end(urgency, granted)
        self._request_done(member)

    def _request_done(self, member: _Member) -> None:
        member.requesting = False
        member.request = None
        if member is self._current:
            # Resolved synchronously inside its own tick (e.g. empty
            # membership view skips the request): position unchanged.
            return
        if self.engine.now >= member.due:
            # The request resolved at the member's next tick instant --
            # after this instant's batch, which skipped the member as
            # still-requesting (FirstOf re-schedules a deadline's resume
            # with a fresh sequence number at fire time, so a same-instant
            # timeout always lands behind the batch event).  The
            # per-node loop runs its catch-up tick inline right here,
            # after every batch-ticked node, in deadline order among
            # fellow catch-ups -- do exactly that.
            self._tick_member(member)
        else:
            # Grant resolved mid-period: the per-node loop would create
            # the node's next tick timeout *now*, sequencing it behind
            # every node whose wake-up already exists -- mirror that by
            # re-keying the member to the back.
            member.order = next(self._order)
            member.slot.dirty = True


def _member_order(member: _Member) -> int:
    return member.order
