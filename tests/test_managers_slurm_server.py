"""Unit tests for the SLURM central server's handler logic."""

from __future__ import annotations

import pytest

from repro.instrumentation import MetricsRecorder
from repro.managers.slurm import SlurmConfig, SlurmServer
from repro.net.messages import (
    PORT_DECIDER,
    Addr,
    ExcessReport,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology


@pytest.fixture
def server(engine, rngs):
    network = Network(
        engine, Topology(8, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )
    return SlurmServer(
        engine, network, 7, SlurmConfig(), rngs.stream("srv"), MetricsRecorder()
    )


def request(server, src=0, urgent=False, alpha=0.0):
    return server._handle(
        PowerRequest(
            src=Addr(src, PORT_DECIDER),
            dst=server.addr,
            urgent=urgent,
            alpha=alpha,
        )
    )


def report(server, delta, src=0):
    return server._handle(
        ExcessReport(src=Addr(src, PORT_DECIDER), dst=server.addr, delta=delta)
    )


class TestExcessHandling:
    def test_reports_accumulate(self, server):
        report(server, 30.0)
        report(server, 12.0, src=1)
        assert server.pool_w == pytest.approx(42.0)
        assert server.excess_received_w == pytest.approx(42.0)

    def test_reports_produce_no_reply(self, server):
        assert report(server, 10.0) == ()


class TestGranting:
    def test_non_urgent_rate_limited(self, server):
        report(server, 200.0)
        (grant,) = request(server, src=1)
        assert isinstance(grant, PowerGrant)
        assert grant.delta == pytest.approx(20.0)  # 10% of 200
        assert server.pool_w == pytest.approx(180.0)

    def test_grant_correlates_to_request(self, server):
        report(server, 100.0)
        message = PowerRequest(src=Addr(1, PORT_DECIDER), dst=server.addr)
        (grant,) = server._handle(message)
        assert grant.reply_to == message.msg_id
        assert grant.dst == message.src

    def test_empty_pool_grants_zero(self, server):
        (grant,) = request(server)
        assert grant.delta == 0.0

    def test_pool_never_negative(self, server):
        report(server, 5.0)
        for src in range(5):
            request(server, src=src, urgent=True, alpha=100.0)
            assert server.pool_w >= 0.0


class TestUrgency:
    def test_urgent_served_greedily(self, server):
        report(server, 200.0)
        (grant,) = request(server, urgent=True, alpha=75.0)
        assert grant.delta == pytest.approx(75.0)
        assert not server.has_unmet_urgency

    def test_unmet_urgent_need_recorded(self, server):
        report(server, 10.0)
        request(server, src=3, urgent=True, alpha=50.0)
        assert server.has_unmet_urgency
        assert 3 in server._urgent_deficits

    def test_directive_sent_while_urgency_unmet(self, server):
        request(server, src=3, urgent=True, alpha=50.0)
        replies = request(server, src=4)  # non-urgent bystander
        kinds = [type(m).__name__ for m in replies]
        assert kinds == ["PowerGrant", "ReleaseDirective"]
        assert replies[0].delta == 0.0  # pool reserved for the urgent node
        directive = replies[1]
        assert isinstance(directive, ReleaseDirective)
        assert directive.on_behalf_of == 3

    def test_urgent_node_recovery_clears_deficit(self, server):
        request(server, src=3, urgent=True, alpha=50.0)
        request(server, src=3)  # now non-urgent: it recovered
        assert not server.has_unmet_urgency

    def test_satisfied_urgent_clears_deficit(self, server):
        request(server, src=3, urgent=True, alpha=50.0)
        report(server, 100.0)
        request(server, src=3, urgent=True, alpha=50.0)
        assert not server.has_unmet_urgency

    def test_deficit_expires_by_ttl(self, server):
        request(server, src=3, urgent=True, alpha=50.0)
        server.engine.now = 100.0
        assert not server.has_unmet_urgency

    def test_urgency_disabled_treats_urgent_as_plain(self, engine, rngs):
        network = Network(
            engine, Topology(8, latency=LatencyModel(sigma=0.0)), rngs.stream("n2")
        )
        server = SlurmServer(
            engine, network, 7, SlurmConfig(enable_urgency=False),
            rngs.stream("s2"), MetricsRecorder(),
        )
        report(server, 200.0)
        (grant,) = request(server, urgent=True, alpha=75.0)
        assert grant.delta == pytest.approx(20.0)  # rate limit still applies


class TestScaleAwareLimit:
    def test_divides_pool_among_recent_requesters(self, engine, rngs):
        network = Network(
            engine, Topology(8, latency=LatencyModel(sigma=0.0)), rngs.stream("n3")
        )
        server = SlurmServer(
            engine, network, 7, SlurmConfig(rate_scheme="scale-aware"),
            rngs.stream("s3"), MetricsRecorder(),
        )
        report(server, 90.0)
        for src in range(3):
            request(server, src=src)
        # Three requesters in the window; last saw pool/3-ish shares.
        assert server._active_requesters() == 3

    def test_requesters_age_out_of_window(self, engine, rngs):
        network = Network(
            engine, Topology(8, latency=LatencyModel(sigma=0.0)), rngs.stream("n4")
        )
        server = SlurmServer(
            engine, network, 7, SlurmConfig(rate_scheme="scale-aware"),
            rngs.stream("s4"), MetricsRecorder(),
        )
        request(server, src=0)
        engine.now = 10.0  # far past one period
        assert server._active_requesters() == 0


class TestBookkeeping:
    def test_unexpected_message_counted(self, server):
        server._handle(
            PowerGrant(src=Addr(0, PORT_DECIDER), dst=server.addr, delta=1.0)
        )
        assert server.recorder.counters.get("slurm.server.unexpected_message") == 1

    def test_grants_recorded(self, server):
        report(server, 100.0)
        request(server, src=2)
        grants = server.recorder.grants()
        assert grants and grants[0].dst == 2
