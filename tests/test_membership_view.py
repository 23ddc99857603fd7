"""Unit tests for the SWIM membership view (pure state machine)."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.membership.view import ALIVE, DEAD, SUSPECT, MembershipTransition, MemberView
from repro.net.messages import MembershipUpdate
from repro.net.roster import Roster


def make_view(peers=(1, 2, 3), **kwargs):
    return MemberView(0, list(peers), **kwargs)


class TestPrecedenceRules:
    def test_initial_view_is_optimistic(self):
        view = make_view()
        assert list(view.alive_peers()) == [1, 2, 3]
        assert view.status_of(1) == ALIVE
        assert view.incarnation_of(1) == 0

    def test_alive_needs_strictly_higher_incarnation(self):
        view = make_view()
        assert view.apply(MembershipUpdate(1, ALIVE, 0), now=1.0) is False
        assert view.apply(MembershipUpdate(1, ALIVE, 1), now=1.0) is True
        assert view.incarnation_of(1) == 1

    def test_equal_incarnation_suspect_overrides_alive(self):
        view = make_view()
        assert view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0) is True
        assert view.status_of(1) == SUSPECT

    def test_suspect_does_not_override_suspect_at_same_incarnation(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, SUSPECT, 0), now=2.0) is False

    def test_suspect_never_overrides_dead(self):
        view = make_view()
        view.apply(MembershipUpdate(1, DEAD, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, SUSPECT, 5), now=2.0) is False
        assert view.status_of(1) == DEAD

    def test_dead_overrides_equal_incarnation_and_sticks(self):
        view = make_view()
        assert view.apply(MembershipUpdate(1, DEAD, 0), now=1.0) is True
        assert view.apply(MembershipUpdate(1, DEAD, 7), now=2.0) is False

    def test_fresher_alive_revives_the_dead(self):
        view = make_view()
        view.apply(MembershipUpdate(1, DEAD, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, ALIVE, 1), now=2.0) is True
        assert view.status_of(1) == ALIVE

    def test_stale_alive_does_not_revive(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 3), now=1.0)
        assert view.apply(MembershipUpdate(1, ALIVE, 3), now=2.0) is False
        assert view.status_of(1) == SUSPECT

    def test_self_updates_are_rejected(self):
        view = make_view()
        with pytest.raises(ValueError, match="self"):
            view.apply(MembershipUpdate(0, SUSPECT, 0), now=1.0)

    def test_unknown_peer_is_ignored(self):
        view = make_view()
        assert view.apply(MembershipUpdate(99, SUSPECT, 0), now=1.0) is False


class TestDirectContact:
    def test_contact_revives_suspect_and_returns_accusation(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 2), now=1.0)
        accusation = view.observe_contact(1, now=2.0)
        assert accusation == (SUSPECT, 2)
        assert view.status_of(1) == ALIVE

    def test_contact_with_alive_peer_is_a_noop(self):
        view = make_view()
        assert view.observe_contact(1, now=1.0) is None

    def test_contact_mints_no_gossip(self):
        # An equal-incarnation alive would not override the accusation in
        # anyone else's view; repair is the subject's refutation.
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        while view.select_updates(10):
            pass
        view.observe_contact(1, now=2.0)
        assert not view.has_pending_updates


class TestRefutation:
    def test_refute_bumps_past_the_accusation(self):
        view = make_view()
        assert view.refute(4) == 5
        assert view.incarnation == 5
        assert view.refutations == 1

    def test_refutation_is_gossiped(self):
        view = make_view()
        view.refute(0)
        updates = view.select_updates(10)
        assert MembershipUpdate(0, ALIVE, 1) in updates

    def test_restart_incarnation_is_announced(self):
        view = make_view(initial_incarnation=3)
        updates = view.select_updates(10)
        assert MembershipUpdate(0, ALIVE, 3) in updates


class TestDisseminationBuffer:
    def test_budget_limits_retransmissions(self):
        view = make_view(gossip_budget=2)
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert len(view.select_updates(10)) == 1
        assert len(view.select_updates(10)) == 1
        assert view.select_updates(10) == ()

    def test_selection_is_freshest_first_and_deterministic(self):
        view = make_view(gossip_budget=3)
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        view.select_updates(1)  # spend one transmission of node 1's update
        view.apply(MembershipUpdate(2, SUSPECT, 0), now=2.0)
        picked = view.select_updates(1)
        assert picked[0].node == 2  # fresher (full budget) wins

    def test_max_updates_bounds_the_batch(self):
        view = make_view()
        for peer in (1, 2, 3):
            view.apply(MembershipUpdate(peer, SUSPECT, 0), now=1.0)
        assert len(view.select_updates(2)) == 2


class TestAliveCache:
    def test_cache_tracks_status_changes(self):
        view = make_view()
        before = view.alive_peers()
        assert view.alive_peers() is before  # cached between changes
        view.apply(MembershipUpdate(2, SUSPECT, 0), now=1.0)
        suspected = view.alive_peers()
        assert suspected is not before  # a new tuple after a change
        assert list(suspected) == [1, 3]
        assert before == (1, 2, 3)  # a held result never changes
        view.apply(MembershipUpdate(2, DEAD, 0), now=1.5)
        assert view.alive_peers() is suspected  # no ALIVE-boundary crossing
        view.observe_contact(2, now=2.0)
        assert list(view.alive_peers()) == [1, 2, 3]

    def test_transitions_and_listeners_fire(self):
        seen = []
        view = make_view()
        view.listeners.append(lambda *fields: seen.append(fields))
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        view.apply(MembershipUpdate(1, DEAD, 0), now=2.0)
        view.observe_contact(1, now=3.0)
        assert seen == [(1, SUSPECT, 0), (1, DEAD, 0), (1, ALIVE, 0)]
        assert view.transitions == [
            MembershipTransition(1.0, 0, 1, SUSPECT, 0),
            MembershipTransition(2.0, 0, 1, DEAD, 0),
            MembershipTransition(3.0, 0, 1, ALIVE, 0),
        ]
        log = view.log
        assert (log.observer, len(log), log.codes) == (0, 3, bytearray([1, 2, 0]))
        assert [view.status_of(peer) for peer in (1, 2, 3)] == [ALIVE, ALIVE, ALIVE]


class _ReferenceView:
    """The view's semantics written the plain way: the alive set is a
    filter over every member, the buffer a full sort by
    ``(-remaining, node)``."""

    def __init__(self, node_id, peers, initial_incarnation, gossip_budget):
        self.node_id = node_id
        self.budget = gossip_budget
        self.members = {p: [ALIVE, 0] for p in sorted(set(peers) - {node_id})}
        self.pending = {}
        if initial_incarnation > 0:
            self.enqueue(node_id, ALIVE, initial_incarnation)

    def alive_peers(self):
        return tuple(p for p, (status, _) in self.members.items() if status == ALIVE)

    def apply(self, node, status, incarnation):
        state = self.members.get(node)
        if state is None:
            return False
        current, known = state
        if status == ALIVE:
            accepted = incarnation > known
        elif status == SUSPECT:
            accepted = current != DEAD and (
                incarnation > known or (incarnation == known and current == ALIVE)
            )
        else:
            accepted = current != DEAD and incarnation >= known
        if accepted:
            state[:] = [status, incarnation]
            self.enqueue(node, status, incarnation)
        return accepted

    def observe_contact(self, node):
        state = self.members.get(node)
        if state is None or state[0] == ALIVE:
            return None
        accusation = tuple(state)
        state[0] = ALIVE
        return accusation

    def enqueue(self, node, status, incarnation):
        self.pending[node] = [status, incarnation, self.budget]

    def select_updates(self, k):
        if not self.pending or k <= 0:
            return ()
        order = sorted(self.pending.items(), key=lambda item: (-item[1][2], item[0]))
        picked = []
        for node, entry in order[:k]:
            picked.append(MembershipUpdate(node, entry[0], entry[1]))
            entry[2] -= 1
            if entry[2] <= 0:
                del self.pending[node]
        return tuple(picked)


NODE = 0
SUBJECTS = st.integers(min_value=0, max_value=14)  # 0 is the view's own node
STATUSES = st.sampled_from([ALIVE, SUSPECT, DEAD])
INCARNATIONS = st.integers(min_value=0, max_value=4)


def _buffer_slot(view, node):
    slot = view._index.get(node)
    return view._extra_slots.get(node) if slot is None else slot


class ViewMatchesReference(RuleBasedStateMachine):
    """Random operation sequences over varied budgets and peer sets: the
    kept-ordered alive set and budget buckets must answer exactly as the
    filter-and-sort reference does after every step.  Two views run side
    by side: one built from a plain list (a private slot index) and one
    from a :class:`RosterView` (the roster's shared index, with or
    without this node in the roster, in either id order)."""

    @initialize(
        peers=st.lists(st.integers(min_value=0, max_value=12), max_size=12),
        initial_incarnation=st.integers(min_value=0, max_value=2),
        gossip_budget=st.integers(min_value=1, max_value=5),
        self_in_roster=st.booleans(),
        descending=st.booleans(),
    )
    def build(self, peers, initial_incarnation, gossip_budget, self_in_roster, descending):
        members = sorted(set(peers) - {NODE} | ({NODE} if self_in_roster else set()))
        roster = Roster(members[::-1] if descending else members)
        shared = MemberView(NODE, roster.without(NODE), initial_incarnation, gossip_budget)
        assert shared._index is roster.positions
        listed = MemberView(NODE, peers, initial_incarnation, gossip_budget)
        self.views = (shared, listed)
        self.ref = _ReferenceView(NODE, peers, initial_incarnation, gossip_budget)
        self.now = 0.0

    @rule(node=SUBJECTS, status=STATUSES, incarnation=INCARNATIONS)
    def apply(self, node, status, incarnation):
        self.now += 1.0
        update = MembershipUpdate(node, status, incarnation)
        if node == NODE:
            for view in self.views:
                with pytest.raises(ValueError, match="self"):
                    view.apply(update, self.now)
            return
        accepted = self.ref.apply(node, status, incarnation)
        for view in self.views:
            logged = len(view.log)
            assert view.apply(update, self.now) is accepted
            assert len(view.log) == logged + accepted
            if accepted:
                assert view.transitions[-1] == MembershipTransition(
                    self.now, NODE, node, status, incarnation
                )

    @rule(node=SUBJECTS)
    def observe_contact(self, node):
        self.now += 1.0
        accusation = self.ref.observe_contact(node)
        for view in self.views:
            assert view.observe_contact(node, self.now) == accusation

    @rule(accused=INCARNATIONS)
    def refute(self, accused):
        incarnations = {view.refute(accused) for view in self.views}
        assert incarnations == {accused + 1}
        self.ref.enqueue(NODE, ALIVE, incarnations.pop())

    @rule(node=SUBJECTS, status=STATUSES, incarnation=INCARNATIONS)
    def enqueue(self, node, status, incarnation):
        for view in self.views:
            view.enqueue(node, status, incarnation)
        self.ref.enqueue(node, status, incarnation)

    @rule(k=st.integers(min_value=0, max_value=6))
    def select_updates(self, k):
        expected = self.ref.select_updates(k)
        for view in self.views:
            assert view.select_updates(k) == expected

    @invariant()
    def views_agree(self):
        shared, listed = self.views
        assert shared.transitions == listed.transitions
        for view in self.views:
            assert tuple(view.alive_peers()) == self.ref.alive_peers()
            assert view.has_pending_updates == bool(self.ref.pending)
            for node, (status, incarnation) in self.ref.members.items():
                assert view.status_of(node) == status
                assert view.incarnation_of(node) == incarnation
            # Ids outside the membership -- this node, ids no roster
            # lists -- read as the optimistic default.
            for node in range(-2, 17):
                if node not in self.ref.members:
                    assert view.status_of(node) == ALIVE
                    assert view.incarnation_of(node) == 0
            # The one-scan listing of accused members, each once, in the
            # view's slot order.
            accused = view.not_alive()
            assert sorted(accused) == sorted(
                (node, status)
                for node, (status, _) in self.ref.members.items()
                if status != ALIVE
            )
            assert [view._index[node] for node, _ in accused] == sorted(
                view._index[node] for node, _ in accused
            )

    @invariant()
    def every_pending_node_sits_in_its_budget_bucket(self):
        for view in self.views:
            buckets = view._buckets
            assert not buckets[0]
            placed = {}
            for remaining, bucket in enumerate(buckets):
                assert bucket == sorted(bucket)
                for node in bucket:
                    assert node not in placed
                    placed[node] = remaining
            # The buffer columns: one slot per indexed id plus one per
            # extra id, each holding its bucket's budget (0 when idle).
            index, extra = view._index, view._extra_slots
            size = len(index) + len(extra)
            assert not set(index) & set(extra)
            assert sorted(extra.values()) == list(range(len(index), size))
            assert len(view._status) == len(view._incarnation) == len(index)
            columns = (view._pending_status, view._pending_incarnation, view._remaining)
            assert [len(column) for column in columns] == [size] * 3
            assert view._pending_count == len(placed)
            for node in [*index, *extra]:
                assert view._remaining[_buffer_slot(view, node)] == placed.pop(node, 0)
            assert not placed  # every buffered id has a slot
            # ... and each pending slot holds the reference's update.
            for node, (status, incarnation, remaining) in self.ref.pending.items():
                slot = _buffer_slot(view, node)
                assert view._pending_status[slot] == (ALIVE, SUSPECT, DEAD).index(status)
                assert view._pending_incarnation[slot] == incarnation
                assert view._remaining[slot] == remaining


TestViewMatchesReference = ViewMatchesReference.TestCase
TestViewMatchesReference.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
