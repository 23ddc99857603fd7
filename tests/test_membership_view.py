"""Unit tests for the SWIM membership view (pure state machine)."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.membership.view import ALIVE, DEAD, SUSPECT, MemberView
from repro.net.messages import MembershipUpdate


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
        assert view.apply(MembershipUpdate(1, ALIVE, 0), now=1.0) is None
        assert view.apply(MembershipUpdate(1, ALIVE, 1), now=1.0) is not None
        assert view.incarnation_of(1) == 1

    def test_equal_incarnation_suspect_overrides_alive(self):
        view = make_view()
        transition = view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert transition is not None
        assert view.status_of(1) == SUSPECT

    def test_suspect_does_not_override_suspect_at_same_incarnation(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, SUSPECT, 0), now=2.0) is None

    def test_suspect_never_overrides_dead(self):
        view = make_view()
        view.apply(MembershipUpdate(1, DEAD, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, SUSPECT, 5), now=2.0) is None
        assert view.status_of(1) == DEAD

    def test_dead_overrides_equal_incarnation_and_sticks(self):
        view = make_view()
        assert view.apply(MembershipUpdate(1, DEAD, 0), now=1.0) is not None
        assert view.apply(MembershipUpdate(1, DEAD, 7), now=2.0) is None

    def test_fresher_alive_revives_the_dead(self):
        view = make_view()
        view.apply(MembershipUpdate(1, DEAD, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, ALIVE, 1), now=2.0) is not None
        assert view.status_of(1) == ALIVE

    def test_stale_alive_does_not_revive(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 3), now=1.0)
        assert view.apply(MembershipUpdate(1, ALIVE, 3), now=2.0) is None
        assert view.status_of(1) == SUSPECT

    def test_self_updates_are_rejected(self):
        view = make_view()
        with pytest.raises(ValueError, match="self"):
            view.apply(MembershipUpdate(0, SUSPECT, 0), now=1.0)

    def test_unknown_peer_is_ignored(self):
        view = make_view()
        assert view.apply(MembershipUpdate(99, SUSPECT, 0), now=1.0) is None


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
        view.listeners.append(seen.append)
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        view.apply(MembershipUpdate(1, DEAD, 0), now=2.0)
        assert [t.status for t in seen] == [SUSPECT, DEAD]
        assert [t.subject for t in seen] == [1, 1]
        assert view.transitions == seen
        assert list(view.non_dead_peers()) == [2, 3]


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


class ViewMatchesReference(RuleBasedStateMachine):
    """Random operation sequences over varied budgets and peer sets: the
    kept-ordered alive set and budget buckets must answer exactly as the
    filter-and-sort reference does after every step."""

    @initialize(
        peers=st.lists(st.integers(min_value=0, max_value=12), max_size=12),
        initial_incarnation=st.integers(min_value=0, max_value=2),
        gossip_budget=st.integers(min_value=1, max_value=5),
    )
    def build(self, peers, initial_incarnation, gossip_budget):
        self.view = MemberView(NODE, peers, initial_incarnation, gossip_budget)
        self.ref = _ReferenceView(NODE, peers, initial_incarnation, gossip_budget)
        self.now = 0.0

    @rule(node=SUBJECTS, status=STATUSES, incarnation=INCARNATIONS)
    def apply(self, node, status, incarnation):
        self.now += 1.0
        if node == NODE:
            with pytest.raises(ValueError, match="self"):
                self.view.apply(MembershipUpdate(node, status, incarnation), self.now)
            return
        transition = self.view.apply(
            MembershipUpdate(node, status, incarnation), self.now
        )
        assert (transition is not None) == self.ref.apply(node, status, incarnation)

    @rule(node=SUBJECTS)
    def observe_contact(self, node):
        self.now += 1.0
        assert self.view.observe_contact(node, self.now) == self.ref.observe_contact(
            node
        )

    @rule(accused=INCARNATIONS)
    def refute(self, accused):
        incarnation = self.view.refute(accused)
        self.ref.enqueue(NODE, ALIVE, incarnation)

    @rule(node=SUBJECTS, status=STATUSES, incarnation=INCARNATIONS)
    def enqueue(self, node, status, incarnation):
        self.view.enqueue(node, status, incarnation)
        self.ref.enqueue(node, status, incarnation)

    @rule(k=st.integers(min_value=0, max_value=6))
    def select_updates(self, k):
        assert self.view.select_updates(k) == self.ref.select_updates(k)

    @invariant()
    def views_agree(self):
        assert tuple(self.view.alive_peers()) == self.ref.alive_peers()
        assert self.view.has_pending_updates == bool(self.ref.pending)
        for node, (status, incarnation) in self.ref.members.items():
            assert self.view.status_of(node) == status
            assert self.view.incarnation_of(node) == incarnation

    @invariant()
    def every_pending_node_sits_in_its_budget_bucket(self):
        buckets = self.view._buckets
        assert not buckets[0]
        placed = {}
        for remaining, bucket in enumerate(buckets):
            assert bucket == sorted(bucket)
            for node in bucket:
                assert node not in placed
                placed[node] = remaining
        assert placed == {
            node: pending.remaining for node, pending in self.view._pending.items()
        }


TestViewMatchesReference = ViewMatchesReference.TestCase
TestViewMatchesReference.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
