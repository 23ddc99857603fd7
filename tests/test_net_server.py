"""Unit tests for the serial request server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PenelopeConfig
from repro.managers.slurm import SlurmConfig
from repro.net.messages import PORT_DECIDER, PORT_SERVER, Addr, PowerGrant, PowerRequest
from repro.net.network import Network
from repro.net.server import RequestServer
from repro.net.topology import LatencyModel, Topology
from repro.sim.events import PRIORITY_URGENT
from repro.sim.resources import Store


@pytest.fixture
def net(engine, rngs):
    return Network(
        engine, Topology(4, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )


def make_server(engine, net, rngs, handler=None, **kwargs):
    handler = handler or (lambda message: ())
    return RequestServer(
        engine,
        net,
        Addr(3, PORT_SERVER),
        handler,
        rngs.stream("server"),
        **kwargs,
    )


def send_request(net, src=0):
    message = PowerRequest(src=Addr(src, PORT_DECIDER), dst=Addr(3, PORT_SERVER))
    net.send(message)
    return message


class TestServiceLoop:
    def test_handler_called_per_message(self, engine, net, rngs):
        seen = []
        server = make_server(engine, net, rngs, handler=lambda m: (seen.append(m), ())[1])
        server.start()
        for src in range(3):
            send_request(net, src)
        engine.run()
        assert len(seen) == 3
        assert server.requests_served == 3

    def test_serial_service_time_accumulates(self, engine, net, rngs):
        server = make_server(engine, net, rngs, service_time=(1e-3, 1e-3))
        server.start()
        for src in range(3):
            send_request(net, src)
        engine.run()
        assert server.busy_time == pytest.approx(3e-3)
        # Three serial 1 ms services after a 120 us flight.
        assert engine.now == pytest.approx(120e-6 + 3e-3)

    def test_replies_are_sent(self, engine, net, rngs):
        def handler(message):
            return (
                PowerGrant(
                    src=Addr(3, PORT_SERVER),
                    dst=message.src,
                    delta=1.0,
                    reply_to=message.msg_id,
                ),
            )
        client_inbox = Store(engine)
        net.attach(Addr(0, PORT_DECIDER), client_inbox)
        server = make_server(engine, net, rngs, handler=handler)
        server.start()
        request = send_request(net, 0)
        engine.run()
        assert len(client_inbox) == 1
        reply = client_inbox.get_nowait()
        assert reply.reply_to == request.msg_id

    def test_bounded_inbox_drops_overflow(self, engine, net, rngs):
        # Service is much slower than arrivals: the queue saturates.
        server = make_server(
            engine, net, rngs, service_time=(1.0, 1.0), inbox_capacity=2
        )
        server.start()
        for src in range(4):
            send_request(net, src % 4)
        engine.run()
        # One in service + 2 queued; the 4th was dropped.
        assert net.stats.dropped_overflow >= 1
        assert server.requests_served + len(server.inbox) <= 4

    def test_zero_service_time(self, engine, net, rngs):
        server = make_server(engine, net, rngs, service_time=(0.0, 0.0))
        server.start()
        send_request(net)
        engine.run()
        assert server.requests_served == 1
        assert server.busy_time == 0.0

    def test_invalid_service_time(self, engine, net, rngs):
        with pytest.raises(ValueError):
            make_server(engine, net, rngs, service_time=(2.0, 1.0))


class TestServiceTimeDraw:
    """``lo + (hi - lo) * random()`` must be numpy's ``uniform(lo, hi)``."""

    @pytest.mark.parametrize(
        "service_time",
        [PenelopeConfig().pool_service_time_s, SlurmConfig().server_service_time_s],
        ids=["pool", "slurm-server"],
    )
    @pytest.mark.parametrize("seed", [0, 2022])
    def test_draws_and_stream_position_equal_uniforms(self, engine, net, service_time, seed):
        lo, hi = service_time
        server = RequestServer(
            engine, net, Addr(3, PORT_SERVER), lambda message: (),
            np.random.default_rng(seed), service_time=service_time,
        )
        reference = np.random.default_rng(seed)
        drawn = [server._sample_service_time() for _ in range(20_000)]
        expected = [float(reference.uniform(lo, hi)) for _ in range(20_000)]
        assert [value.hex() for value in drawn] == [value.hex() for value in expected]
        assert all(type(value) is float for value in drawn)
        assert server._rng.bit_generator.state == reference.bit_generator.state


class TestLifecycle:
    def test_double_start_rejected(self, engine, net, rngs):
        server = make_server(engine, net, rngs)
        server.start()
        with pytest.raises(RuntimeError):
            server.start()

    def test_stop_kills_loop_and_drains_queue(self, engine, net, rngs):
        server = make_server(engine, net, rngs, service_time=(1.0, 1.0))
        server.start()
        for src in range(3):
            send_request(net, src)
        engine.run(until=0.5)  # first request in service, two queued
        server.stop()
        engine.run()
        assert not server.is_running
        assert server.queue_depth == 0
        assert server.requests_served == 0  # first service never finished

    def test_messages_after_stop_pile_up_unserved(self, engine, net, rngs):
        server = make_server(engine, net, rngs)
        server.start()
        server.stop()
        send_request(net)
        engine.run()
        assert server.requests_served == 0

    def test_restart_after_stop(self, engine, net, rngs):
        server = make_server(engine, net, rngs)
        server.start()
        server.stop()
        engine.run()
        server.start()
        send_request(net)
        engine.run()
        assert server.requests_served == 1

    def test_restart_of_a_waiting_loop_serves_the_first_request(
        self, engine, net, rngs
    ):
        # The loop has started and waits on its inbox when it is stopped.
        # Its getter must leave with it, or the restarted loop's first
        # request is handed to the dead loop's getter and never served.
        server = make_server(engine, net, rngs)
        server.start()
        engine.run()
        server.stop()
        engine.run()
        server.start()
        send_request(net)
        engine.run()
        assert server.requests_served == 1
        send_request(net)
        engine.run()
        assert server.requests_served == 2

    def test_stop_mid_service_never_handles_that_request(self, engine, net, rngs):
        seen = []
        server = make_server(
            engine, net, rngs, handler=lambda m: (seen.append(m), ())[1],
            service_time=(1.0, 1.0),
        )
        server.start()
        send_request(net, 0)
        engine.run(until=0.5)  # in service until ~1.0
        server.stop()
        engine.run()  # the service's queued end surfaces and does nothing
        assert seen == []
        assert server.requests_served == 0 and server.busy_time == 0.0
        # A crash-restart serves the next request normally.
        server.start()
        request = send_request(net, 1)
        engine.run()
        assert seen == [request]
        assert server.requests_served == 1 and server.busy_time == 1.0

    def test_restart_mid_service_serves_only_new_requests(self, engine, net, rngs):
        # A standby taking over at the same address the instant the old
        # loop dies (HA failover): the dead loop's queued service end must
        # neither run the handler nor end the new loop's service early.
        seen = []
        server = make_server(
            engine, net, rngs, handler=lambda m: (seen.append(m), ())[1],
            service_time=(1.0, 1.0),
        )
        server.start()
        send_request(net, 0)
        engine.run(until=0.5)
        server.stop()
        server.start()
        request = send_request(net, 1)
        engine.run(until=1.2)  # past the dead loop's service end
        assert seen == [] and server.requests_served == 0
        engine.run()
        assert seen == [request]
        assert server.requests_served == 1
        assert engine.now == pytest.approx(0.5 + 120e-6 + 1.0)

    def test_restart_while_a_queued_hand_off_is_pending(self, engine, net, rngs):
        # The loop's first wait finds a request already in the inbox and
        # queues its hand-off; the server is stopped and restarted at that
        # instant, before the hand-off surfaces.  The request left the
        # inbox with the dead loop: neither loop may handle it.
        seen = []
        server = make_server(
            engine, net, rngs, handler=lambda m: (seen.append(m), ())[1]
        )
        server.start()
        stale = PowerRequest(src=Addr(0, PORT_DECIDER), dst=Addr(3, PORT_SERVER))
        assert server.inbox.try_put(stale)  # there before the loop's first step
        left_in_inbox = []

        def restart():
            left_in_inbox.append(len(server.inbox))
            server.stop()
            server.start()

        # Urgent like the start hop and queued after it: it runs once the
        # first wait has queued the hand-off, before that surfaces.
        engine.call_later(0.0, restart, name="test.restart", priority=PRIORITY_URGENT)
        engine.run(until=0.0)
        assert left_in_inbox == [0]
        # The dead loop's hand-off surfaced and started no service.
        assert engine.peek() == float("inf")
        assert seen == [] and server.requests_served == 0
        request = send_request(net, 1)
        engine.run()
        assert seen == [request] and server.requests_served == 1

    def test_stop_before_the_first_step(self, engine, net, rngs):
        server = make_server(engine, net, rngs)
        server.start()
        server.stop()  # the start hop is still queued
        assert not server.is_running
        engine.run()
        assert server.inbox._getters == []
        server.start()
        send_request(net)
        engine.run()
        assert server.requests_served == 1

    def test_utilization(self, engine, net, rngs):
        server = make_server(engine, net, rngs, service_time=(0.5, 0.5))
        server.start()
        send_request(net)
        engine.run()
        engine.run(until=engine.now + 0.5)
        assert 0.0 < server.utilization() < 1.0
