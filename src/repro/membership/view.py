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
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.messages import (
    MEMBER_ALIVE as ALIVE,
    MEMBER_DEAD as DEAD,
    MEMBER_SUSPECT as SUSPECT,
    MembershipUpdate,
)

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "MemberState",
    "MemberView",
    "MembershipTransition",
]


@dataclass(slots=True)
class MemberState:
    """Mutable per-peer record inside a view."""

    status: str
    incarnation: int
    changed_at: float


@dataclass(frozen=True)
class MembershipTransition:
    """One state change in one observer's view (the metrics unit)."""

    time: float
    observer: int
    subject: int
    status: str
    incarnation: int


class _PendingUpdate:
    """A buffered update with its remaining retransmission budget."""

    __slots__ = ("status", "incarnation", "remaining")

    def __init__(self, status: str, incarnation: int, remaining: int) -> None:
        self.status = status
        self.incarnation = incarnation
        self.remaining = remaining


class MemberView:
    """One node's converging picture of who is alive.

    Parameters
    ----------
    node_id:
        The owning node (the ``observer`` of every transition).
    peers:
        All *other* member ids; the initial view marks them alive at
        incarnation 0 (optimistic join).
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
        self._members: Dict[int, MemberState] = {
            peer: MemberState(ALIVE, 0, 0.0)
            for peer in sorted(p for p in peers if p != node_id)
        }
        #: Alive peers in ascending id order, kept sorted by
        #: :meth:`_set_status` (see :meth:`alive_peers` for the cost).
        self._alive: List[int] = list(self._members)
        #: Immutable snapshot of ``_alive`` handed to callers (who hold
        #: it across sends); dropped only when ``_alive`` changes.
        self._alive_cache: Optional[Tuple[int, ...]] = None
        #: The dissemination buffer: node -> pending update, plus the
        #: same nodes as one sorted id list per remaining budget
        #: (``_buckets[r]`` holds every node whose update has ``r``
        #: transmissions left; ``_buckets[0]`` stays empty because
        #: exhausted updates leave the buffer).  Reading the buckets from
        #: the top down yields the ``(-remaining, node)`` order without
        #: sorting, so a selection of k updates costs O(k log n).
        self._pending: Dict[int, _PendingUpdate] = {}
        self._buckets: List[List[int]] = [[] for _ in range(gossip_budget + 1)]
        #: Every accepted state change, in order (chaos metrics input).
        self.transitions: List[MembershipTransition] = []
        #: Called with each transition as it happens (detector timers,
        #: pool escrow hooks).
        self.listeners: List[Callable[[MembershipTransition], None]] = []
        #: Suspicions about *us* that we refuted by bumping incarnation.
        self.refutations = 0
        if initial_incarnation > 0:
            self.enqueue(node_id, ALIVE, initial_incarnation)

    # -- queries -------------------------------------------------------------

    def status_of(self, peer: int) -> str:
        state = self._members.get(peer)
        return state.status if state is not None else ALIVE

    def incarnation_of(self, peer: int) -> int:
        state = self._members.get(peer)
        return state.incarnation if state is not None else 0

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

    def non_dead_peers(self) -> List[int]:
        return [
            peer
            for peer, state in self._members.items()
            if state.status != DEAD
        ]

    @property
    def has_pending_updates(self) -> bool:
        return bool(self._pending)

    # -- state machine -------------------------------------------------------

    def _accepts(self, state: MemberState, status: str, incarnation: int) -> bool:
        if status == ALIVE:
            return incarnation > state.incarnation
        if status == SUSPECT:
            if state.status == DEAD:
                return False
            return incarnation > state.incarnation or (
                incarnation == state.incarnation and state.status == ALIVE
            )
        if status == DEAD:
            return state.status != DEAD and incarnation >= state.incarnation
        raise ValueError(f"unknown membership status {status!r}")

    def apply(
        self, update: MembershipUpdate, now: float
    ) -> Optional[MembershipTransition]:
        """Merge one gossiped fact about a *peer*; returns the transition
        if the fact was fresh enough to change the view.

        Facts about the view's own node are the detector's business
        (refutation) and must not reach this method.
        """
        if update.node == self.node_id:
            raise ValueError("self-updates are handled by the detector")
        state = self._members.get(update.node)
        if state is None or not self._accepts(state, update.status, update.incarnation):
            return None
        self._set_status(update.node, state, update.status)
        state.incarnation = update.incarnation
        state.changed_at = now
        self.enqueue(update.node, update.status, update.incarnation)
        return self._record(update.node, update.status, update.incarnation, now)

    def observe_contact(self, peer: int, now: float) -> Optional[Tuple[str, int]]:
        """Direct liveness evidence (a message arrived from ``peer``).

        Locally revives a suspected/dead peer at its current incarnation
        and returns the overridden accusation ``(status, incarnation)``
        so the detector can echo it back to the subject for a proper
        incarnation-bumping refutation.  No gossip is minted here: an
        equal-incarnation ``alive`` would not override the accusation in
        anyone else's view anyway.
        """
        state = self._members.get(peer)
        if state is None or state.status == ALIVE:
            return None
        accusation = (state.status, state.incarnation)
        self._set_status(peer, state, ALIVE)
        state.changed_at = now
        self._record(peer, ALIVE, state.incarnation, now)
        return accusation

    def refute(self, accused_incarnation: int) -> int:
        """Refute a suspicion/death claim about *this* node.

        Bumps our incarnation past the accusation and gossips the fresh
        ``alive``; returns the new incarnation.
        """
        self.incarnation = accused_incarnation + 1
        self.refutations += 1
        self.enqueue(self.node_id, ALIVE, self.incarnation)
        return self.incarnation

    def _set_status(self, peer: int, state: MemberState, status: str) -> None:
        """Set ``peer``'s status, keeping the sorted alive set in step."""
        was_alive = state.status == ALIVE
        state.status = status
        if was_alive == (status == ALIVE):
            return
        if was_alive:
            del self._alive[bisect_left(self._alive, peer)]
        else:
            insort(self._alive, peer)
        self._alive_cache = None

    def _record(
        self, subject: int, status: str, incarnation: int, now: float
    ) -> MembershipTransition:
        transition = MembershipTransition(
            time=now,
            observer=self.node_id,
            subject=subject,
            status=status,
            incarnation=incarnation,
        )
        self.transitions.append(transition)
        for listener in self.listeners:
            listener(transition)
        return transition

    # -- dissemination buffer -------------------------------------------------

    def enqueue(self, node: int, status: str, incarnation: int) -> None:
        """Buffer an update for re-dissemination with a fresh budget."""
        budget = self._gossip_budget
        pending = self._pending.get(node)
        if pending is not None:
            bucket = self._buckets[pending.remaining]
            del bucket[bisect_left(bucket, node)]
        self._pending[node] = _PendingUpdate(status, incarnation, budget)
        insort(self._buckets[budget], node)

    def select_updates(self, max_updates: int) -> Tuple[MembershipUpdate, ...]:
        """Pick up to ``max_updates`` for one outgoing message.

        Freshest first (highest remaining budget, then lowest subject id
        -- a total order, so selection is deterministic); each pick
        spends one transmission, and exhausted updates leave the buffer.
        The picks are id-ordered prefixes of the budget buckets, highest
        first, and each moves one bucket down: O(k log n) for k picks.
        """
        if not self._pending or max_updates <= 0:
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
        pending_by_node = self._pending
        picked: List[MembershipUpdate] = []
        for remaining, prefix in picks:
            lower = buckets[remaining - 1]
            for node in prefix:
                pending = pending_by_node[node]
                picked.append(
                    MembershipUpdate(node, pending.status, pending.incarnation)
                )
                pending.remaining = remaining - 1
                if remaining == 1:
                    del pending_by_node[node]
                else:
                    insort(lower, node)
        return tuple(picked)
