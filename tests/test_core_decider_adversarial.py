"""Adversarial robustness tests for the local decider.

A peer-to-peer protocol must tolerate misbehaving peers: the decider
should survive junk messages, duplicate replies, and oversized grants
without ever violating the §2.1 constraints on its own node.
"""

from __future__ import annotations

from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.net.messages import (
    PORT_DECIDER,
    PORT_POOL,
    Addr,
    ExcessReport,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import Network
from repro.net.server import RequestServer
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

SPEC = SKYLAKE_6126_NODE
INITIAL = 160.0


class AdversarialRig:
    """Decider on node 0; node 1 hosts a scripted (malicious) pool."""

    def __init__(self, reply_factory=None):
        self.engine = Engine()
        self.rngs = RngRegistry(seed=13)
        self.config = PenelopeConfig(stagger_start=False)
        self.network = Network(
            self.engine,
            Topology(2, latency=LatencyModel(sigma=0.0)),
            self.rngs.stream("net"),
        )
        self.rapl = SimulatedRapl(
            self.engine, SPEC, self.rngs.stream("rapl"), initial_cap_w=INITIAL,
            enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
        )
        self.pool = PowerPool(
            self.engine, self.network, 0, self.config, self.rngs.stream("pool")
        )
        self.reply_factory = reply_factory or (lambda request: ())
        self.evil_server = RequestServer(
            self.engine,
            self.network,
            Addr(1, PORT_POOL),
            lambda msg: self.reply_factory(msg),
            self.rngs.stream("evil"),
            service_time=(1e-6, 1e-6),
        )
        self.decider = LocalDecider(
            self.engine, self.network, 0, self.rapl, self.pool, peers=[1],
            initial_cap_w=INITIAL, config=self.config,
            rng=self.rngs.stream("decider"),
        )
        self.pool.start()
        self.evil_server.start()
        self.decider.start()

    def check_node_invariants(self):
        assert SPEC.is_safe_cap(self.decider.cap_w)
        assert self.pool.balance_w >= 0.0

    def run_hungry_periods(self, n=3):
        self.rapl.set_consumption(INITIAL)
        self.engine.run(until=self.engine.now + n * self.config.period_s + 1e-2)


class TestOversizedGrants:
    def test_huge_grant_clamped_and_banked(self):
        def reply(request):
            return (
                PowerGrant(
                    src=Addr(1, PORT_POOL), dst=request.src, delta=10_000.0,
                    reply_to=request.msg_id,
                ),
            )
        rig = AdversarialRig(reply)
        rig.run_hungry_periods(1)
        rig.check_node_invariants()
        assert rig.decider.cap_w == SPEC.max_cap_w
        # The unusable watts are banked, never silently discarded.
        assert rig.pool.balance_w > 0


class TestDuplicateReplies:
    def test_duplicate_grants_are_absorbed_safely(self):
        def reply(request):
            grant = dict(
                src=Addr(1, PORT_POOL), dst=request.src, delta=10.0,
                reply_to=request.msg_id,
            )
            return (PowerGrant(**grant), PowerGrant(**grant))
        rig = AdversarialRig(reply)
        rig.run_hungry_periods(2)
        rig.check_node_invariants()
        # The duplicate is treated as a stale grant and banked, not lost
        # and not double-applied onto the cap in the same instant.
        counters = rig.decider.recorder.counters
        assert counters.get("decider.stale_grants_banked", 0) >= 1


class TestJunkMessages:
    def test_unrelated_message_kinds_are_counted_and_ignored(self):
        def reply(request):
            return (
                ReleaseDirective(src=Addr(1, PORT_POOL), dst=request.src),
                ExcessReport(src=Addr(1, PORT_POOL), dst=request.src, delta=5.0),
                PowerGrant(
                    src=Addr(1, PORT_POOL), dst=request.src, delta=2.0,
                    reply_to=request.msg_id,
                ),
            )
        rig = AdversarialRig(reply)
        rig.run_hungry_periods(2)
        rig.check_node_invariants()
        assert rig.decider.recorder.counters.get(
            "decider.unexpected_messages", 0
        ) >= 1

    def test_wrong_correlation_id_grants_still_banked(self):
        def reply(request):
            return (
                PowerGrant(
                    src=Addr(1, PORT_POOL), dst=request.src, delta=7.0,
                    reply_to=999_999,
                ),
            )
        rig = AdversarialRig(reply)
        rig.run_hungry_periods(2)
        rig.check_node_invariants()
        # Mismatched replies are banked into the local pool (power is power).
        banked = rig.decider.recorder.counters.get(
            "decider.stale_grants_banked", 0
        )
        assert banked >= 1

    def test_unsolicited_requests_to_decider_port_ignored(self):
        rig = AdversarialRig()
        rig.network.send(
            PowerRequest(src=Addr(1, PORT_DECIDER), dst=rig.decider.addr)
        )
        rig.run_hungry_periods(1)
        rig.check_node_invariants()
        assert rig.decider.recorder.counters.get(
            "decider.unexpected_messages", 0
        ) >= 1


class TestSilentPeer:
    def test_never_answering_peer_only_costs_timeouts(self):
        rig = AdversarialRig(lambda request: ())
        rig.run_hungry_periods(4)
        rig.check_node_invariants()
        assert rig.decider.cap_w == INITIAL
        timeouts = rig.decider.recorder.counters.get(
            "decider.request_timeouts", 0
        )
        # With the default timeout == period, the period-bounded retry
        # budget admits no retries: one request per iteration, as before.
        assert timeouts >= 3
        assert rig.decider.recorder.counters.get(
            "decider.request_retries", 0
        ) == 0


class TestGrantFlood:
    def test_unsolicited_grant_flood_is_banked_not_crashing(self):
        rig = AdversarialRig()
        for _ in range(50):
            rig.network.send(
                PowerGrant(
                    src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=3.0,
                    reply_to=4242,
                )
            )
        rig.run_hungry_periods(2)
        rig.check_node_invariants()
        # Flooded power lands in the pool (the inbox bound may shed some).
        assert rig.pool.balance_w >= 0.0
        assert rig.decider.recorder.counters.get(
            "decider.stale_grants_banked", 0
        ) > 0
