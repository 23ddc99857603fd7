"""Unit tests for the SLURM-style centralized manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.managers.slurm import SlurmConfig, SlurmManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster


def build(n_clients=4, cap=80.0, config=None, seed=0, assign=True, scale=0.2):
    engine = Engine()
    budget = n_clients * 2 * cap
    cluster_config = ClusterConfig(
        n_nodes=n_clients + 1,
        system_power_budget_w=budget * (n_clients + 1) / n_clients,
    )
    cluster = Cluster(engine, cluster_config, RngRegistry(seed=seed))
    if assign:
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(n_clients), rng=np.random.default_rng(seed),
            scale=scale,
        )
        cluster.install_assignment(assignment)
    manager = SlurmManager(config=config)
    manager.install(cluster, client_ids=list(range(n_clients)), budget_w=budget)
    cluster.start_workloads()
    return engine, cluster, manager


class TestConfig:
    def test_paper_service_time(self):
        config = SlurmConfig()
        assert config.server_service_time_s == (80e-6, 100e-6)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(rate=0.0),
            dict(rate=1.5),
            dict(lower_limit_w=0),
            dict(upper_limit_w=0.5),
            dict(rate_scheme="bogus"),
            dict(server_inbox_capacity=0),
            dict(client_inbox_capacity=0),
            dict(urgency_ttl_s=0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SlurmConfig(**bad)

    def test_with_period(self):
        fast = SlurmConfig().with_period(0.05)
        assert fast.period_s == 0.05
        assert fast.rate_scheme == SlurmConfig().rate_scheme

    def test_with_period_preserves_explicit_timeout(self):
        fast = SlurmConfig(response_timeout_s=0.2).with_period(0.05)
        assert fast.timeout_s == 0.2


class TestTopologyWiring:
    def test_server_gets_dedicated_node(self):
        _, cluster, manager = build(n_clients=4)
        assert manager.server_node_id == 4
        assert 4 not in manager.clients

    def test_explicit_server_node(self):
        engine = Engine()
        cluster = Cluster(
            engine,
            ClusterConfig(n_nodes=3, system_power_budget_w=3 * 160.0),
            RngRegistry(seed=0),
        )
        manager = SlurmManager(server_node_id=0)
        manager.install(cluster, client_ids=[1, 2], budget_w=320.0)
        assert manager.server_node_id == 0

    def test_server_node_cannot_be_client(self):
        engine = Engine()
        cluster = Cluster(
            engine,
            ClusterConfig(n_nodes=3, system_power_budget_w=3 * 160.0),
            RngRegistry(seed=0),
        )
        manager = SlurmManager(server_node_id=1)
        with pytest.raises(ValueError):
            manager.install(cluster, client_ids=[1, 2], budget_w=320.0)

    def test_no_spare_node_rejected(self):
        engine = Engine()
        cluster = Cluster(
            engine,
            ClusterConfig(n_nodes=2, system_power_budget_w=2 * 160.0),
            RngRegistry(seed=0),
        )
        manager = SlurmManager()
        with pytest.raises(ValueError, match="dedicated server node"):
            manager.install(cluster, client_ids=[0, 1], budget_w=320.0)


class TestServerBehaviour:
    def test_excess_flows_to_server_and_back(self):
        engine, cluster, manager = build()
        manager.start()
        engine.run(until=10.0)
        server = manager.server
        assert server.excess_received_w > 0  # DC nodes reported excess
        assert server.granted_out_w > 0  # EP nodes received power
        manager.audit().check()

    def test_grant_limit_fixed_scheme(self):
        _, _, manager = build(config=SlurmConfig(rate_scheme="fixed"))
        server = manager.server
        server.pool_w = 200.0
        assert server.grant_limit_w() == pytest.approx(20.0)
        server.pool_w = 1000.0
        assert server.grant_limit_w() == 30.0
        server.pool_w = 5.0
        assert server.grant_limit_w() == 1.0

    def test_grant_limit_scale_aware_scheme(self):
        _, _, manager = build(config=SlurmConfig(rate_scheme="scale-aware"))
        server = manager.server
        server.pool_w = 100.0
        server._recent_requests.extend([0.0] * 10)
        # Pool divided over the 10 requesters of the last period.
        assert server.grant_limit_w() == pytest.approx(10.0)

    def test_run_improves_on_fair_static(self):
        # End-to-end: compared to leaving the caps static, shifting helps.
        engine, cluster, manager = build(n_clients=4, cap=65.0, seed=1)
        manager.start()
        runtime = cluster.run_to_completion()
        manager.audit().check()

        engine2 = Engine()
        cluster2 = Cluster(
            engine2,
            ClusterConfig(n_nodes=5, system_power_budget_w=5 * 130.0),
            RngRegistry(seed=1),
        )
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(1), scale=0.2
        )
        cluster2.install_assignment(assignment)
        static_runtime = cluster2.run_to_completion()
        assert runtime < static_runtime

    def test_server_death_freezes_shifting(self):
        engine, cluster, manager = build()
        manager.start()
        engine.run(until=3.0)
        served_before = manager.server.server.requests_served
        cluster.kill_node(manager.server_node_id)
        engine.run(until=8.0)
        assert manager.server.server.requests_served == served_before
        manager.audit().check()  # budget still conserved (power lost, not created)

    def test_client_timeouts_after_server_death(self):
        engine, cluster, manager = build()
        manager.start()
        cluster.kill_node(manager.server_node_id)
        engine.run(until=5.0)
        assert manager.recorder.counters.get("slurm.client.request_timeouts", 0) > 0


class TestCentralizedUrgency:
    def test_urgent_deficit_tracked_and_directives_sent(self):
        engine, cluster, manager = build(n_clients=4, cap=65.0)
        manager.start()
        engine.run(until=20.0)
        # DC nodes release, EP nodes below initial rise; directives appear
        # whenever an urgent node could not be fully served.
        counters = manager.recorder.counters
        # The mechanism exercises at least one of its two paths.
        assert (
            counters.get("slurm.server.release_directives", 0) > 0
            or not manager.server._urgent_deficits
        )
        manager.audit().check()

    def test_urgency_disabled(self):
        engine, cluster, manager = build(
            config=SlurmConfig(enable_urgency=False)
        )
        manager.start()
        engine.run(until=10.0)
        assert manager.recorder.counters.get("slurm.server.release_directives", 0) == 0

    def test_deficit_expires(self):
        _, _, manager = build()
        server = manager.server
        server._urgent_deficits[1] = (10.0, 0.0)
        server.engine.now = 100.0  # long past the TTL
        assert not server.has_unmet_urgency


class TestAccounting:
    def test_in_flight_non_negative(self):
        engine, cluster, manager = build()
        manager.start()
        for t in range(1, 8):
            engine.run(until=float(t))
            assert manager.in_flight_power_w() >= 0.0
            manager.audit().check()

    def test_pooled_power_is_server_pool(self):
        _, _, manager = build()
        manager.server.pool_w = 55.0
        assert manager.pooled_power_w() == 55.0
