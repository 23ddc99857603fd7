"""Engine-level tests for the SWIM failure detector.

A rig of bare detectors on a shared fabric (no pools/deciders): kill,
partition and heal the network directly and check what each node's view
concludes, and how fast.
"""

from __future__ import annotations

import pytest

from repro.core.config import PenelopeConfig
from repro.membership import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.membership.messages import MembershipGossip
from repro.net.messages import PORT_MEMBERSHIP, Addr, MembershipUpdate
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

PERIOD = 0.5


class Rig:
    def __init__(self, n=5, seed=11, **config_kwargs):
        config_kwargs.setdefault("enable_membership", True)
        config_kwargs.setdefault("membership_probe_period_s", PERIOD)
        config_kwargs.setdefault("membership_probe_timeout_s", 0.2)
        config_kwargs.setdefault("membership_suspect_timeout_s", 2 * PERIOD)
        self.engine = Engine()
        self.rngs = RngRegistry(seed=seed)
        self.config = PenelopeConfig(**config_kwargs)
        self.topology = Topology(n, latency=LatencyModel(sigma=0.0))
        self.network = Network(self.engine, self.topology, self.rngs.stream("net"))
        self.detectors = {}
        peers = list(range(n))
        for node in peers:
            detector = FailureDetector(
                self.engine,
                self.network,
                node,
                peers,
                self.config,
                self.rngs.stream(f"membership.{node}"),
            )
            detector.start()
            self.detectors[node] = detector

    def kill(self, node):
        self.network.mark_dead(node)
        self.detectors[node].stop()

    def run_to(self, t):
        self.engine.run(until=t)

    def statuses_of(self, subject):
        return {
            node: det.view.status_of(subject)
            for node, det in self.detectors.items()
            if node != subject and det.is_running
        }


class TestDetection:
    def test_killed_node_is_suspected_then_confirmed(self):
        rig = Rig()
        rig.run_to(2.0)
        rig.kill(4)
        rig.run_to(20.0)
        assert set(rig.statuses_of(4).values()) == {DEAD}

    def test_detection_latency_within_three_periods(self):
        # Median over observers; the ISSUE acceptance bound is the chaos
        # sweep's median, this is the same property on a clean rig.
        rig = Rig(n=8)
        rig.run_to(2.0)
        rig.kill(5)
        rig.run_to(30.0)
        firsts = []
        for node, det in rig.detectors.items():
            if node == 5 or not det.is_running:
                continue
            times = [
                t.time
                for t in det.view.transitions
                if t.subject == 5 and t.status != ALIVE and t.time >= 2.0
            ]
            assert times, f"node {node} never noticed the kill"
            firsts.append(min(times))
        firsts.sort()
        median = firsts[len(firsts) // 2]
        assert median - 2.0 <= 3 * PERIOD + rig.config.membership_suspect_timeout_s

    def test_no_false_positives_on_a_healthy_cluster(self):
        rig = Rig(n=6)
        rig.run_to(30.0)
        for node, det in rig.detectors.items():
            assert det.recorder.counters.get("membership.confirms", 0) == 0
            for peer in rig.detectors:
                if peer != node:
                    assert det.view.status_of(peer) == ALIVE

    def test_probe_rounds_are_counted(self):
        rig = Rig(n=3)
        rig.run_to(10.0)
        for det in rig.detectors.values():
            # ~one round per period minus the start stagger.
            assert det.probe_rounds >= 15


class TestIndirectProbes:
    def test_ping_reqs_fire_when_direct_probe_fails(self):
        rig = Rig()
        rig.run_to(2.0)
        rig.kill(4)
        rig.run_to(15.0)
        total = sum(
            det.recorder.counters.get("membership.ping_reqs", 0)
            for det in rig.detectors.values()
        )
        relayed = sum(
            det.recorder.counters.get("membership.relayed_pings", 0)
            for det in rig.detectors.values()
        )
        assert total > 0
        assert relayed > 0

    def test_no_indirect_probes_when_disabled(self):
        rig = Rig(membership_indirect_probes=0)
        rig.run_to(2.0)
        rig.kill(4)
        rig.run_to(15.0)
        total = sum(
            det.recorder.counters.get("membership.ping_reqs", 0)
            for det in rig.detectors.values()
        )
        assert total == 0
        assert set(rig.statuses_of(4).values()) == {DEAD}


class TestRefutation:
    def test_false_accusation_is_refuted_with_higher_incarnation(self):
        rig = Rig()
        rig.run_to(2.0)
        # Slander node 2 at its current incarnation, told to node 0.
        rig.network.send(
            MembershipGossip(
                src=Addr(4, PORT_MEMBERSHIP),
                dst=Addr(0, PORT_MEMBERSHIP),
                gossip=(MembershipUpdate(2, SUSPECT, 0),),
            )
        )
        rig.run_to(20.0)
        # The subject bumped its incarnation and everyone believes alive.
        assert rig.detectors[2].view.incarnation >= 1
        assert set(rig.statuses_of(2).values()) == {ALIVE}
        assert rig.detectors[2].view.refutations >= 1

    def test_accusation_echo_reaches_the_subject(self):
        rig = Rig()
        rig.run_to(2.0)
        rig.network.send(
            MembershipGossip(
                src=Addr(4, PORT_MEMBERSHIP),
                dst=Addr(0, PORT_MEMBERSHIP),
                gossip=(MembershipUpdate(2, SUSPECT, 0),),
            )
        )
        rig.run_to(20.0)
        echoes = sum(
            det.recorder.counters.get("membership.accusation_echoes", 0)
            for det in rig.detectors.values()
        )
        assert echoes >= 1


class TestPartitionHeal:
    def test_views_reconverge_after_heal(self):
        rig = Rig(n=6)
        rig.run_to(2.0)
        rig.topology.partition([4, 5])
        rig.run_to(10.0)  # long enough to suspect/confirm across the cut
        majority_sees_dead = any(
            rig.detectors[0].view.status_of(peer) != ALIVE for peer in (4, 5)
        )
        assert majority_sees_dead
        rig.topology.heal([4, 5])
        rig.run_to(40.0)
        for node, det in rig.detectors.items():
            for peer in rig.detectors:
                if peer != node:
                    assert det.view.status_of(peer) == ALIVE, (node, peer)

    def test_dead_peers_stay_in_probe_rotation(self):
        # Probing the confirmed-dead is the rejoin channel: the rotation
        # must keep cycling over them.
        rig = Rig(n=3)
        rig.run_to(1.0)
        rig.kill(2)
        rig.run_to(20.0)
        pings_after = rig.detectors[0].recorder.counters.get("membership.pings", 0)
        rig.run_to(30.0)
        assert (
            rig.detectors[0].recorder.counters.get("membership.pings", 0)
            > pings_after
        )


class TestDegradation:
    def test_detector_idles_without_peers(self):
        rig = Rig(n=1)
        rig.run_to(10.0)
        det = rig.detectors[0]
        assert det.probe_rounds == 0
        assert det.recorder.counters.get("membership.pings", 0) == 0
        assert list(det.live_peers()) == []

    def test_double_start_is_rejected(self):
        rig = Rig(n=2)
        with pytest.raises(RuntimeError, match="already running"):
            rig.detectors[0].start()

    def test_stop_preserves_view_and_detaches(self):
        rig = Rig(n=3)
        rig.run_to(5.0)
        rig.detectors[0].stop()
        assert not rig.detectors[0].is_running
        assert list(rig.detectors[0].view.alive_peers()) == [1, 2]
        # Endpoint is gone: messages to it are dropped, not mishandled.
        before = rig.network.stats.dropped_unattached
        rig.network.send(
            MembershipGossip(
                src=Addr(1, PORT_MEMBERSHIP), dst=Addr(0, PORT_MEMBERSHIP)
            )
        )
        rig.run_to(6.0)
        # Our gossip (plus any peer probes of the stopped node) dropped.
        assert rig.network.stats.dropped_unattached >= before + 1


class TestStop:
    """A stopped probe loop leaves no queued entry that acts: the
    stagger, round or indirect-probe wait it was in surfaces as a
    no-op, even after a restart."""

    def test_stop_before_the_first_step(self):
        rig = Rig(n=3)
        det = rig.detectors[0]
        rng = rig.rngs.stream("membership.0")
        state = rng.bit_generator.state
        det.stop()
        rig.run_to(5.0)
        assert det.probe_rounds == 0
        assert det.recorder.counters == {}
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("stop_at", [2.0 + 0.07 * i for i in range(15)])
    def test_stop_mid_round(self, stop_at):
        # Node 2 is dead, so rounds aimed at it wait on indirect probes
        # too: the stop instants cover both kinds of wait.
        rig = Rig(n=4)
        rig.kill(2)
        rig.run_to(stop_at)
        det = rig.detectors[0]
        det.stop()
        rounds, counters = det.probe_rounds, dict(det.recorder.counters)
        transitions = len(det.view.log)
        rig.run_to(stop_at + 4 * PERIOD)
        assert det.probe_rounds == rounds
        assert det.recorder.counters == counters
        assert len(det.view.log) == transitions

    @pytest.mark.parametrize("stop_at", [2.0 + 0.07 * i for i in range(8)])
    def test_restart_after_a_stop_mid_round_runs_one_loop(self, stop_at):
        rig = Rig(n=3)
        rig.run_to(stop_at)
        det = rig.detectors[0]
        det.stop()
        det.start()
        rounds = det.probe_rounds
        rig.run_to(stop_at + 10 * PERIOD)
        # One loop: a stagger of under a period, then one round per period.
        assert 9 <= det.probe_rounds - rounds <= 10
