"""Tests for power discovery: uniform random over the roster or the live view."""

from __future__ import annotations

from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def make_decider(peers=(1, 2, 3), membership=False):
    engine = Engine()
    rngs = RngRegistry(seed=5)
    network = Network(
        engine, Topology(5, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )
    config = PenelopeConfig(stagger_start=False, enable_membership=membership)
    rapl = SimulatedRapl(
        engine, SKYLAKE_6126_NODE, rngs.stream("rapl"), initial_cap_w=160.0,
        enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
    )
    detector = None
    if membership:
        from repro.membership import FailureDetector

        detector = FailureDetector(
            engine, network, 0, [0, *peers], config, rngs.stream("membership.0")
        )
    pool = PowerPool(
        engine, network, 0, config, rngs.stream("pool"), membership=detector
    )
    decider = LocalDecider(
        engine, network, 0, rapl, pool, peers=list(peers),
        initial_cap_w=160.0, config=config, rng=rngs.stream("decider"),
        membership=detector,
    )
    return decider


def mark(decider, peer, status):
    """Force ``peer`` to ``status`` in the decider's membership view."""
    from repro.net.messages import MembershipUpdate

    view = decider._membership.view
    incarnation = view.incarnation_of(peer)
    view.apply(MembershipUpdate(peer, status, incarnation), now=0.0)


class TestRandom:
    def test_uniform_coverage(self):
        decider = make_decider()
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 2, 3}

    def test_never_self(self):
        decider = make_decider(peers=(0, 1, 2))
        assert 0 not in decider.peers
        picks = {decider._choose_peer() for _ in range(50)}
        assert 0 not in picks

    def test_expired_suspicion_restores_the_candidate(self):
        decider = make_decider()
        decider._suspect(2)
        decider.engine.run(until=decider.config.suspicion_ttl_s + 1.0)
        decider._purge_suspicion()
        assert 2 not in decider._suspicion
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 2, 3}


class TestMembershipDiscovery:
    def test_candidates_come_from_the_live_view(self):
        from repro.net.messages import MEMBER_DEAD

        decider = make_decider(membership=True)
        mark(decider, 2, MEMBER_DEAD)
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 3}

    def test_suspects_are_excluded_without_redraws(self):
        from repro.net.messages import MEMBER_SUSPECT

        decider = make_decider(membership=True)
        mark(decider, 1, MEMBER_SUSPECT)
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {2, 3}
        assert decider.recorder.counters.get("decider.suspicion_redraws", 0) == 0

    def test_empty_view_degrades_to_local_only(self):
        from repro.net.messages import MEMBER_DEAD

        decider = make_decider(membership=True)
        for peer in (1, 2, 3):
            mark(decider, peer, MEMBER_DEAD)
        assert decider._choose_peer() is None
        assert decider.recorder.counters.get("decider.no_live_peers", 0) == 1


class TestEndToEnd:
    def test_random_discovery_shifts_power_and_audits(self):
        from repro.experiments.harness import RunSpec, run_single

        result = run_single(
            RunSpec(
                "penelope",
                ("EP", "DC"),
                65.0,
                n_clients=6,
                workload_scale=0.15,
                seed=6,
            )
        )
        assert result.recorder.total_granted_w() > 0
        result.audit.check()
