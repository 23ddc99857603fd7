"""Unit tests for message delivery, drops, partitions and failures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.messages import PORT_DECIDER, PORT_POOL, Addr, PowerGrant, PowerRequest
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.sim.resources import Store


@pytest.fixture
def net(engine, rngs):
    topology = Topology(4, latency=LatencyModel(sigma=0.0))
    return Network(engine, topology, rngs.stream("net"))


def request(src: int, dst: int) -> PowerRequest:
    return PowerRequest(src=Addr(src, PORT_DECIDER), dst=Addr(dst, PORT_POOL))


class TestDelivery:
    def test_message_arrives_after_latency(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        msg = request(0, 1)
        net.send(msg)
        assert len(inbox) == 0  # not delivered synchronously
        engine.run()
        assert len(inbox) == 1
        assert inbox.get_nowait() is msg
        assert engine.now == pytest.approx(120e-6)

    def test_delivers_the_sent_instance(self, engine, net):
        # Messages are frozen, so the network delivers the sender's
        # instance itself; a duplication echo delivers that same
        # instance a second time.
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.enable_duplication(0.999999, np.random.default_rng(0))
        msg = request(0, 1)
        net.send(msg)
        engine.run()
        assert net.stats.duplicated == 1
        first, echo = inbox.get_nowait(), inbox.get_nowait()
        assert first is msg and echo is msg
        assert len(inbox) == 0
        assert not hasattr(msg, "send_time")

    def test_loopback_faster_than_remote(self, engine, net):
        inbox_local = Store(engine)
        net.attach(Addr(0, PORT_POOL), inbox_local)
        net.send(request(0, 0))
        engine.run()
        assert engine.now == pytest.approx(5e-6)

    def test_two_endpoints_one_node(self, engine, net):
        pool_inbox, decider_inbox = Store(engine), Store(engine)
        net.attach(Addr(1, PORT_POOL), pool_inbox)
        net.attach(Addr(1, PORT_DECIDER), decider_inbox)
        net.send(request(0, 1))
        net.send(PowerGrant(src=Addr(0, PORT_POOL), dst=Addr(1, PORT_DECIDER), delta=1.0))
        engine.run()
        assert len(pool_inbox) == 1 and len(decider_inbox) == 1

    def test_stats_counted(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.send(request(0, 1))
        engine.run()
        assert net.stats.sent == 1
        assert net.stats.delivered == 1
        assert net.stats.dropped == 0
        assert net.stats.by_kind == {"PowerRequest": 1}


class TestDrops:
    def test_unattached_destination_drops(self, engine, net):
        net.send(request(0, 3))
        engine.run()
        assert net.stats.dropped_unattached == 1

    def test_overflow_drops(self, engine, net):
        inbox = Store(engine, capacity=1)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.send(request(0, 1))
        net.send(request(2, 1))
        engine.run()
        assert len(inbox) == 1
        assert net.stats.dropped_overflow == 1
        assert net.stats.delivered == 1

    def test_dead_source_drops_immediately(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.mark_dead(0)
        net.send(request(0, 1))
        engine.run()
        assert len(inbox) == 0
        assert net.stats.dropped_dead == 1

    def test_death_in_flight_drops(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.send(request(0, 1))
        net.mark_dead(1)  # dies while the message is in flight
        engine.run()
        assert len(inbox) == 0
        assert net.stats.dropped_dead == 1

    def test_mark_alive_restores(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.mark_dead(1)
        net.mark_alive(1)
        net.send(request(0, 1))
        engine.run()
        assert len(inbox) == 1

    def test_partition_drops_cross_traffic(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.topology.partition([1])
        net.send(request(0, 1))
        engine.run()
        assert net.stats.dropped_partition == 1

    def test_dropped_total_aggregates(self, engine, net):
        net.mark_dead(0)
        net.send(request(0, 1))
        net.send(request(2, 3))  # unattached
        engine.run()
        assert net.stats.dropped == 2


class TestAttachment:
    def test_double_attach_rejected(self, engine, net):
        net.attach(Addr(1, PORT_POOL), Store(engine))
        with pytest.raises(ValueError):
            net.attach(Addr(1, PORT_POOL), Store(engine))

    def test_attach_outside_topology_rejected(self, engine, net):
        with pytest.raises(ValueError):
            net.attach(Addr(99, PORT_POOL), Store(engine))

    def test_detach_then_messages_drop(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.detach(Addr(1, PORT_POOL))
        net.send(request(0, 1))
        engine.run()
        assert net.stats.dropped_unattached == 1

    def test_inbox_of(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        assert net.inbox_of(Addr(1, PORT_POOL)) is inbox
        assert net.inbox_of(Addr(2, PORT_POOL)) is None


class TestDatagramHandlers:
    """Synchronous handler endpoints (``attach_handler``)."""

    def test_handler_invoked_at_arrival_time(self, engine, net):
        got = []
        net.attach_handler(Addr(1, PORT_POOL), got.append)
        net.send(request(0, 1))
        assert got == []  # not delivered synchronously at send time
        engine.run()
        assert len(got) == 1
        assert net.stats.delivered == 1

    def test_handler_conflicts_with_inbox_and_itself(self, engine, net):
        net.attach_handler(Addr(1, PORT_POOL), lambda m: None)
        with pytest.raises(ValueError):
            net.attach_handler(Addr(1, PORT_POOL), lambda m: None)
        with pytest.raises(ValueError):
            net.attach(Addr(1, PORT_POOL), Store(engine))
        # ...and the other way round.
        net.attach(Addr(2, PORT_POOL), Store(engine))
        with pytest.raises(ValueError):
            net.attach_handler(Addr(2, PORT_POOL), lambda m: None)

    def test_handler_outside_topology_rejected(self, engine, net):
        with pytest.raises(ValueError):
            net.attach_handler(Addr(99, PORT_POOL), lambda m: None)

    def test_detach_stops_handler_delivery(self, engine, net):
        got = []
        net.attach_handler(Addr(1, PORT_POOL), got.append)
        net.detach(Addr(1, PORT_POOL))
        net.send(request(0, 1))
        engine.run()
        assert got == []
        assert net.stats.dropped_unattached == 1

    def test_dead_destination_still_drops(self, engine, net):
        got = []
        net.attach_handler(Addr(1, PORT_POOL), got.append)
        net.send(request(0, 1))
        net.mark_dead(1)  # dies while the message is in flight
        engine.run()
        assert got == []
        assert net.stats.dropped_dead == 1

    def test_partition_still_drops(self, engine, net):
        got = []
        net.attach_handler(Addr(1, PORT_POOL), got.append)
        net.topology.partition([1])
        net.send(request(0, 1))
        engine.run()
        assert got == []
        assert net.stats.dropped_partition == 1


class TestDeadDropSplit:
    """Dead-node drops are attributed to send time vs arrival time."""

    def test_dead_source_counted_as_src(self, engine, net):
        net.mark_dead(0)
        net.send(request(0, 1))
        engine.run()
        assert net.stats.dropped_dead_src == 1
        assert net.stats.dropped_dead_dst == 0
        assert net.stats.dropped_dead == 1

    def test_death_in_flight_counted_as_dst(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.send(request(0, 1))
        net.mark_dead(1)
        engine.run()
        assert net.stats.dropped_dead_src == 0
        assert net.stats.dropped_dead_dst == 1
        assert net.stats.dropped_dead == 1

    def test_both_modes_aggregate(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.send(request(0, 1))
        net.mark_dead(1)  # in-flight destination death
        net.mark_dead(2)
        net.send(request(2, 3))  # dead source
        engine.run()
        assert net.stats.dropped_dead_src == 1
        assert net.stats.dropped_dead_dst == 1
        assert net.stats.dropped_dead == 2
        assert net.stats.dropped == 2


class TestStreamAlignment:
    """One latency draw per send, *before* drop checks (see Network.send)."""

    @staticmethod
    def _arrival_time(kill_first_sender: bool) -> float:
        from repro.sim.engine import Engine

        engine = Engine()
        rng = np.random.default_rng(42)
        net = Network(engine, Topology(4, latency=LatencyModel(sigma=0.3)), rng)
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        arrival = {}

        inbox.wait(lambda token, item: arrival.setdefault("t", engine.now), "watch")
        if kill_first_sender:
            net.mark_dead(2)
        net.send(request(2, 3))  # dropped at send in the faulty variant
        net.send(request(0, 1))  # must arrive at the same instant either way
        engine.run()
        return arrival["t"]

    def test_drop_does_not_shift_later_latency_draws(self):
        assert self._arrival_time(False) == self._arrival_time(True)
