"""Per-node membership view: the SWIM suspect/confirm state machine.

Each node's :class:`MemberView` holds a status (``alive``, ``suspect``
or ``dead``) and an incarnation number for every peer, merges gossiped
:class:`~repro.net.messages.MembershipUpdate` facts under the SWIM
precedence rules, and buffers accepted updates for re-dissemination with
a bounded retransmission budget.

Precedence (Das et al., SWIM):  for a subject currently ``(status s,
incarnation i)`` an incoming ``(status t, incarnation j)`` is accepted
iff

* ``t == alive``   and ``j > i``;
* ``t == suspect`` and (``j > i``, or ``j == i`` while ``s == alive``);
* ``t == dead``    and ``j >= i`` while ``s != dead``.

Only the subject itself ever bumps its incarnation (refuting a
suspicion, or rejoining after a crash-restart), which is what makes the
rules converge: a stale accusation can never override fresher
self-testimony.  *Direct* contact (an ack or any message from the peer)
additionally revives a suspected/confirmed peer in the local view
without minting gossip -- the observer cannot bump someone else's
incarnation, so global repair is left to the subject's own refutation
(see the accusation echo in :mod:`repro.membership.detector`).

The view is deliberately engine-free (callers pass ``now``): all timer
management lives in the detector, keeping this module a pure, easily
testable state machine.

Storage.  Every node's view lives in one process, so whatever a view
keeps per peer is paid N^2 times.  The per-peer state is therefore
flat columns indexed by slot -- a ``bytearray`` of status codes and an
``array('q')`` of incarnations, ~9 bytes per peer -- and a view built
from a :class:`~repro.net.roster.RosterView` takes its slots from the
roster's position index, built once per universe, instead of building
its own.  The gossip buffer keeps its pending status, incarnation and
remaining budget in columns over the same slots.  The transition log is
columns too (:class:`TransitionLog`, ~25 bytes per accepted change): a
storm of 512 nodes records ~170k changes, and a crash-restarted
generation leaves behind its log and nothing else.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.net.messages import (
    MEMBER_ALIVE as ALIVE,
    MEMBER_DEAD as DEAD,
    MEMBER_SUSPECT as SUSPECT,
    MembershipUpdate,
    membership_update,
)
from repro.net.roster import Roster, RosterView

__all__ = [
    "ALIVE",
    "DEAD",
    "STATUSES",
    "SUSPECT",
    "MemberView",
    "MembershipTransition",
    "TransitionLog",
]

#: Status names by column code (view and transition log).  ALIVE is code
#: 0, so a zeroed column is the optimistic initial view.
STATUSES = (ALIVE, SUSPECT, DEAD)
_CODES = {status: code for code, status in enumerate(STATUSES)}
_ALIVE, _SUSPECT, _DEAD = 0, 1, 2


def _code(status: str) -> int:
    code = _CODES.get(status)
    if code is None:
        raise ValueError(f"unknown membership status {status!r}")
    return code


@dataclass(frozen=True, slots=True)
class MembershipTransition:
    """One state change in one observer's view, as a record (tests and
    tools; the view itself logs columns)."""

    time: float
    observer: int
    subject: int
    status: str
    incarnation: int


class TransitionLog:
    """One observer's accepted state changes, in order, as four columns:
    time, subject, status code and incarnation (25 bytes per change).
    Iterating builds the :class:`MembershipTransition` records."""

    __slots__ = ("observer", "times", "subjects", "codes", "incarnations")

    def __init__(self, observer: int) -> None:
        self.observer = observer
        self.times = array("d")
        self.subjects = array("q")
        self.codes = bytearray()
        self.incarnations = array("q")

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[MembershipTransition]:
        observer = self.observer
        for time, subject, code, incarnation in zip(
            self.times, self.subjects, self.codes, self.incarnations
        ):
            yield MembershipTransition(time, observer, subject, STATUSES[code], incarnation)


def _shared_roster(node_id: int, peers: Sequence[int]) -> Optional[Roster]:
    """The roster whose slots the view can share when ``peers`` is that
    roster minus ``node_id`` (every slot then belongs to a peer or to
    ``node_id``); ``None`` for any other sequence."""
    if not isinstance(peers, RosterView) or node_id in peers:
        return None
    roster = peers.roster
    if len(peers) != len(roster) - (node_id in roster):
        return None
    return roster


class MemberView:
    """One node's converging picture of who is alive.

    Parameters
    ----------
    node_id:
        The owning node (the ``observer`` of every transition).
    peers:
        All *other* member ids; the initial view marks them alive at
        incarnation 0 (optimistic join).  A
        :class:`~repro.net.roster.RosterView` excluding ``node_id``
        lends the view its roster's slot index; any other sequence gets
        a private one.
    initial_incarnation:
        This node's own starting incarnation.  Crash-restarts pass the
        previous generation's value plus one, and any positive value is
        announced via the gossip buffer so peers holding a ``dead`` entry
        at the old incarnation revive us on contact.
    gossip_budget:
        How many times an accepted update is retransmitted (piggyback or
        dedicated gossip) before it ages out of the buffer.
    """

    def __init__(
        self,
        node_id: int,
        peers: Sequence[int],
        initial_incarnation: int = 0,
        gossip_budget: int = 4,
    ) -> None:
        if gossip_budget < 1:
            raise ValueError("gossip budget must be at least 1")
        self.node_id = node_id
        self.incarnation = initial_incarnation
        self._gossip_budget = gossip_budget
        roster = _shared_roster(node_id, peers)
        members: Sequence[int]
        if roster is None:
            members = sorted({*peers, node_id})
            index: Mapping[object, int] = {
                member: slot for slot, member in enumerate(members)
            }
            alive = [member for member in members if member != node_id]
        else:
            members, index = roster.members, roster.positions
            alive = sorted(peers)
        #: Member id -> slot in every column below, and slot -> member id.
        #: The index holds the peers and at most ``node_id``, whose member
        #: slot stays alive at incarnation 0: self-updates never reach
        #: :meth:`apply`.
        self._index = index
        self._members = members
        size = len(index)
        self._status = bytearray(size)
        self._incarnation = array("q", [0]) * size
        #: Alive peers in ascending id order, kept sorted by
        #: :meth:`_set_status` (see :meth:`alive_peers` for the cost).
        self._alive = alive
        #: Immutable snapshot of ``_alive`` handed to callers (who hold
        #: it across sends); dropped only when ``_alive`` changes.
        self._alive_cache: Optional[Tuple[int, ...]] = None
        #: The dissemination buffer: per slot, the pending update's
        #: status code and incarnation and its remaining budget (0 when
        #: nothing is pending), plus the pending ids as one sorted list
        #: per remaining budget (``_buckets[r]`` holds every node whose
        #: update has ``r`` transmissions left; ``_buckets[0]`` stays
        #: empty because exhausted updates leave the buffer).  Reading
        #: the buckets from the top down yields the ``(-remaining,
        #: node)`` order without sorting, so a selection of k updates
        #: costs O(k log n).
        self._pending_status = bytearray(size)
        self._pending_incarnation = array("q", [0]) * size
        self._remaining = array("B" if gossip_budget <= 0xFF else "L", [0]) * size
        self._pending_count = 0
        #: Buffer slots past the index, for updates about ids the index
        #: lacks (this node, when its roster does not list it).
        self._extra_slots: Dict[int, int] = {}
        self._buckets: List[List[int]] = [[] for _ in range(gossip_budget + 1)]
        #: Every accepted state change, in order (chaos metrics input).
        self.log = TransitionLog(node_id)
        #: Called with ``(subject, status, incarnation)`` of each change
        #: as it happens (detector timers, pool escrow hooks).
        self.listeners: List[Callable[[int, str, int], None]] = []
        #: Suspicions about *us* that we refuted by bumping incarnation.
        self.refutations = 0
        if initial_incarnation > 0:
            self.enqueue(node_id, ALIVE, initial_incarnation)

    # -- queries -------------------------------------------------------------

    def status_of(self, peer: int) -> str:
        slot = self._index.get(peer)
        return ALIVE if slot is None else STATUSES[self._status[slot]]

    def not_alive(self) -> List[Tuple[int, str]]:
        """``(member, status)`` for every member not held alive, in slot order.

        Byte searches over the status column visit only the accused
        slots, so a converged view costs two searches: the chaos report
        checks every live view this way rather than with a
        :meth:`status_of` per pair of live nodes.
        """
        status = self._status
        find = status.find
        slots = []
        for code in (_SUSPECT, _DEAD):
            slot = find(code)
            while slot >= 0:
                slots.append(slot)
                slot = find(code, slot + 1)
        slots.sort()
        members = self._members
        return [(members[slot], STATUSES[status[slot]]) for slot in slots]

    def incarnation_of(self, peer: int) -> int:
        slot = self._index.get(peer)
        return 0 if slot is None else self._incarnation[slot]

    def alive_peers(self) -> Sequence[int]:
        """Peers currently believed alive, in ascending id order.

        This sits on the decider's per-request hot path.  The alive set
        is kept sorted as statuses change (an O(log n) search plus a
        memmove per transition across the ALIVE boundary); the returned
        immutable tuple is cached and re-copied from it only after such a
        transition, so between changes every call returns the same
        object.
        """
        if self._alive_cache is None:
            self._alive_cache = tuple(self._alive)
        return self._alive_cache

    @property
    def has_pending_updates(self) -> bool:
        return self._pending_count > 0

    @property
    def transitions(self) -> List[MembershipTransition]:
        """The log as records, built on each call (tests and tools)."""
        return list(self.log)

    # -- state machine -------------------------------------------------------

    def apply(self, update: MembershipUpdate, now: float) -> bool:
        """Merge one gossiped fact about a *peer*; returns whether the
        fact was fresh enough to change the view (and was logged).

        Facts about the view's own node are the detector's business
        (refutation) and must not reach this method.
        """
        node = update.node
        if node == self.node_id:
            raise ValueError("self-updates are handled by the detector")
        slot = self._index.get(node)
        if slot is None:
            return False
        code = _code(update.status)
        incarnation = update.incarnation
        current = self._status[slot]
        known = self._incarnation[slot]
        # The precedence rules of the module docstring.
        if code == _ALIVE:
            accepted = incarnation > known
        elif code == _SUSPECT:
            accepted = current != _DEAD and (
                incarnation > known or (incarnation == known and current == _ALIVE)
            )
        else:
            accepted = current != _DEAD and incarnation >= known
        if not accepted:
            return False
        self._set_status(node, slot, code)
        self._incarnation[slot] = incarnation
        self._enqueue(node, slot, code, incarnation)
        self._record(node, code, incarnation, now)
        return True

    def observe_contact(self, peer: int, now: float) -> Optional[Tuple[str, int]]:
        """Direct liveness evidence (a message arrived from ``peer``).

        Locally revives a suspected/dead peer at its current incarnation
        and returns the overridden accusation ``(status, incarnation)``
        so the detector can echo it back to the subject for a proper
        incarnation-bumping refutation.  No gossip is minted here: an
        equal-incarnation ``alive`` would not override the accusation in
        anyone else's view anyway.
        """
        slot = self._index.get(peer)
        if slot is None:
            return None
        code = self._status[slot]
        if code == _ALIVE:
            return None
        incarnation = self._incarnation[slot]
        self._set_status(peer, slot, _ALIVE)
        self._record(peer, _ALIVE, incarnation, now)
        return STATUSES[code], incarnation

    def refute(self, accused_incarnation: int) -> int:
        """Refute a suspicion/death claim about *this* node.

        Bumps our incarnation past the accusation and gossips the fresh
        ``alive``; returns the new incarnation.
        """
        self.incarnation = accused_incarnation + 1
        self.refutations += 1
        self.enqueue(self.node_id, ALIVE, self.incarnation)
        return self.incarnation

    def _set_status(self, peer: int, slot: int, code: int) -> None:
        """Set ``peer``'s status, keeping the sorted alive set in step."""
        was_alive = self._status[slot] == _ALIVE
        self._status[slot] = code
        if was_alive == (code == _ALIVE):
            return
        if was_alive:
            del self._alive[bisect_left(self._alive, peer)]
        else:
            insort(self._alive, peer)
        self._alive_cache = None

    def _record(self, subject: int, code: int, incarnation: int, now: float) -> None:
        log = self.log
        log.times.append(now)
        log.subjects.append(subject)
        log.codes.append(code)
        log.incarnations.append(incarnation)
        status = STATUSES[code]
        for listener in self.listeners:
            listener(subject, status, incarnation)

    # -- dissemination buffer -------------------------------------------------

    def enqueue(self, node: int, status: str, incarnation: int) -> None:
        """Buffer an update for re-dissemination with a fresh budget."""
        slot = self._index.get(node)
        if slot is None:
            slot = self._extra_slots.get(node)
            if slot is None:
                slot = self._extra_slots[node] = len(self._remaining)
                self._pending_status.append(0)
                self._pending_incarnation.append(0)
                self._remaining.append(0)
        self._enqueue(node, slot, _code(status), incarnation)

    def _enqueue(self, node: int, slot: int, code: int, incarnation: int) -> None:
        budget = self._gossip_budget
        remaining = self._remaining[slot]
        if remaining:
            bucket = self._buckets[remaining]
            del bucket[bisect_left(bucket, node)]
        else:
            self._pending_count += 1
        self._pending_status[slot] = code
        self._pending_incarnation[slot] = incarnation
        self._remaining[slot] = budget
        insort(self._buckets[budget], node)

    def select_updates(self, max_updates: int) -> Tuple[MembershipUpdate, ...]:
        """Pick up to ``max_updates`` for one outgoing message.

        Freshest first (highest remaining budget, then lowest subject id
        -- a total order, so selection is deterministic); each pick
        spends one transmission, and exhausted updates leave the buffer.
        The picks are id-ordered prefixes of the budget buckets, highest
        first, and each moves one bucket down: O(k log n) for k picks.
        """
        if not self._pending_count or max_updates <= 0:
            return ()
        buckets = self._buckets
        picks: List[Tuple[int, List[int]]] = []
        wanted = max_updates
        for remaining in range(self._gossip_budget, 0, -1):
            bucket = buckets[remaining]
            if bucket:
                prefix = bucket[:wanted]
                del bucket[:wanted]
                picks.append((remaining, prefix))
                wanted -= len(prefix)
                if not wanted:
                    break
        # Spend only after choosing, so a pick moved one bucket down is
        # not chosen twice for the same message.
        slot_of = self._index.get
        extra_slots = self._extra_slots
        statuses = self._pending_status
        incarnations = self._pending_incarnation
        budgets = self._remaining
        picked: List[MembershipUpdate] = []
        for remaining, prefix in picks:
            lower = buckets[remaining - 1]
            for node in prefix:
                slot = slot_of(node)
                if slot is None:
                    slot = extra_slots[node]
                picked.append(
                    membership_update(node, STATUSES[statuses[slot]], incarnations[slot])
                )
                budgets[slot] = remaining - 1
                if remaining > 1:
                    insort(lower, node)
            if remaining == 1:
                self._pending_count -= len(prefix)
        return tuple(picked)
