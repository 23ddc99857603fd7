"""The shared roster and its per-node views against the lists they replace.

Every decider used to copy ``[p for p in peers if p != node_id]`` for
itself; a :class:`~repro.net.roster.RosterView` must be indistinguishable
from that list to every caller, down to the peers a seeded decider draws.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.net.network import Network
from repro.net.roster import Roster, RosterView
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

#: Node ids the decider rig's topology hosts.
N_IDS = 24


@st.composite
def rosters(draw, ids=st.integers(0, N_IDS - 1)):
    """``(peers, node_id)``: unique ids in any order, with or without the node."""
    peers = draw(st.lists(ids, unique=True, max_size=N_IDS))
    if peers and draw(st.booleans()):
        node_id = draw(st.sampled_from(peers))
    else:
        node_id = draw(ids)
    return peers, node_id


class TestRoster:
    def test_duplicate_members_are_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Roster([1, 2, 1])

    def test_ascending_copy_is_built_once(self):
        roster = Roster([3, 1, 2])
        assert roster.ascending().members == (1, 2, 3)
        assert roster.ascending() is roster.ascending()
        in_order = Roster([1, 2, 3])
        assert in_order.ascending() is in_order


class TestViewMatchesList:
    @settings(max_examples=300, deadline=None)
    @given(rosters(ids=st.integers(-50, 50)))
    def test_sequence_protocol(self, case):
        peers, node_id = case
        view = Roster(peers).without(node_id)
        reference = [p for p in peers if p != node_id]
        assert len(view) == len(reference)
        assert bool(view) == bool(reference)
        assert list(view) == reference
        assert view[1:-1] == tuple(reference[1:-1])
        n = len(reference)
        for i in range(-n - 2, n + 2):
            if -n <= i < n:
                assert view[i] == reference[i]
            else:
                with pytest.raises(IndexError):
                    view[i]
        for value in (*peers, node_id, 51, -51):
            assert (value in view) == (value in reference)


def make_decider(peers, node_id, seed):
    engine = Engine()
    rngs = RngRegistry(seed=seed)
    network = Network(
        engine, Topology(N_IDS, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )
    config = PenelopeConfig(stagger_start=False)
    rapl = SimulatedRapl(
        engine, SKYLAKE_6126_NODE, rngs.stream("rapl"), initial_cap_w=160.0,
        enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
    )
    pool = PowerPool(engine, network, node_id, config, rngs.stream("pool"))
    return LocalDecider(
        engine, network, node_id, rapl, pool, peers=peers, initial_cap_w=160.0,
        config=config, rng=rngs.stream("decider"),
    )


def choices(decider, reference, ops):
    """Replay ``ops`` on ``decider``; the peers ``_choose_peer`` returned."""
    picks = []
    for op, k in ops:
        peer = reference[k % len(reference)]
        if op == "choose":
            picks.append(decider._choose_peer())
        else:
            decider._suspect(peer)
    return picks


OPS = st.lists(
    st.tuples(
        st.sampled_from(["choose", "choose", "suspect"]),
        st.integers(0, 1000),
    ),
    max_size=60,
)


class TestDeciderOnView:
    """A decider on the view draws exactly what one on the copied list did."""

    @staticmethod
    def compare(peers, node_id, seed, ops):
        reference = [p for p in peers if p != node_id]
        on_view = make_decider(peers, node_id, seed)
        on_list = make_decider(peers, node_id, seed)
        on_list.peers = list(reference)
        assert isinstance(on_view.peers, RosterView)
        assert choices(on_view, reference, ops) == choices(on_list, reference, ops)
        assert on_view.recorder.counters == on_list.recorder.counters
        return on_view

    @settings(max_examples=150, deadline=None)
    @given(
        case=rosters(),
        seed=st.integers(0, 2**16),
        ops=OPS,
    )
    def test_choose_peer_sequences_match(self, case, seed, ops):
        peers, node_id = case
        assume([p for p in peers if p != node_id])
        self.compare(peers, node_id, seed, ops)

    def test_suspicion_redraws_match(self):
        ops = (
            [("suspect", k) for k in range(4)]
            + [("choose", 0)] * 10
            + [("suspect", 4)]
            + [("choose", 0)] * 40
        )
        decider = self.compare([5, 0, 9, 3, 7, 1], 3, seed=11, ops=ops)
        assert decider.recorder.counters["decider.suspicion_redraws"] > 0
