"""Unit tests for the PenelopeManager wrapper."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster


def build(n=4, cap=70.0, config=None, seed=0, scale=0.2):
    engine = Engine()
    budget = n * 2 * cap
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=n, system_power_budget_w=budget),
        RngRegistry(seed=seed),
    )
    manager = PenelopeManager(config=config)
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(n), rng=np.random.default_rng(seed), scale=scale
    )
    cluster.install_assignment(assignment, manager.config.overhead_factor)
    manager.install(cluster, client_ids=list(range(n)), budget_w=budget)
    cluster.start_workloads()
    return engine, cluster, manager


class TestWiring:
    def test_one_pool_and_decider_per_node(self):
        _, _, manager = build(n=4)
        assert set(manager.pools) == {0, 1, 2, 3}
        assert set(manager.deciders) == {0, 1, 2, 3}

    def test_no_server_anywhere(self):
        _, cluster, manager = build(n=4)
        # Every node is a client; there is no coordinator endpoint.
        assert len(manager.client_ids) == cluster.config.n_nodes

    def test_deciders_know_their_peers(self):
        _, _, manager = build(n=4)
        for node_id, decider in manager.deciders.items():
            assert node_id not in decider.peers
            assert len(decider.peers) == 3

    def test_default_config_type(self):
        assert isinstance(PenelopeManager().config, PenelopeConfig)


class TestExecution:
    def test_runs_and_audits(self):
        engine, cluster, manager = build()
        manager.start()
        runtime = cluster.run_to_completion()
        assert runtime > 0
        manager.audit().check()

    def test_power_shifts_from_donor_to_hungry(self):
        engine, cluster, manager = build(cap=65.0)
        manager.start()
        engine.run(until=10.0)
        # EP nodes (0, 1) should have risen above the even split; DC (2, 3)
        # should have fallen below it.
        even = manager.initial_caps[0]
        ep_caps = [manager.deciders[i].cap_w for i in (0, 1)]
        dc_caps = [manager.deciders[i].cap_w for i in (2, 3)]
        assert max(ep_caps) > even
        assert min(dc_caps) < even
        manager.audit().check()

    def test_decider_caps_match_rapl(self):
        engine, cluster, manager = build()
        manager.start()
        engine.run(until=7.0)
        for node_id, decider in manager.deciders.items():
            assert decider.cap_w == pytest.approx(
                cluster.node(node_id).rapl.cap_w
            )

    def test_stop_halts_all_daemons(self):
        engine, cluster, manager = build()
        manager.start()
        engine.run(until=3.0)
        manager.stop()
        iterations = [d.iterations for d in manager.deciders.values()]
        engine.run(until=6.0)
        assert [d.iterations for d in manager.deciders.values()] == iterations

    def test_node_kill_takes_down_its_daemons(self):
        engine, cluster, manager = build()
        manager.start()
        engine.run(until=3.0)
        cluster.kill_node(0)
        engine.run(until=4.0)
        assert not manager.deciders[0].is_running
        assert not manager.pools[0].server.is_running
        # The rest keep going.
        assert manager.deciders[1].is_running

    def test_survives_node_kill_and_audits(self):
        engine, cluster, manager = build(seed=5)
        manager.start()
        engine.run(until=2.0)
        cluster.kill_node(3)
        runtime = cluster.run_to_completion()
        assert runtime > 0
        manager.audit().check()


class TestAccounting:
    def test_in_flight_settles_to_zero_nominally(self):
        engine, cluster, manager = build()
        manager.start()
        cluster.run_to_completion()
        manager.stop()
        engine.run()  # drain remaining deliveries
        assert manager.in_flight_power_w() == pytest.approx(0.0, abs=1e-9)

    def test_pooled_power_sums_pools(self):
        _, _, manager = build()
        manager.pools[0].deposit(5.0)
        manager.pools[1].deposit(7.0)
        assert manager.pooled_power_w() == pytest.approx(12.0)

    def test_audit_continuously_during_run(self):
        engine, cluster, manager = build(cap=65.0, seed=9)
        manager.start()
        for t in np.linspace(0.5, 12.0, 24):
            engine.run(until=float(t))
            manager.audit().check()


class TestSharedRoster:
    """Every node's agents view one roster; install memory is linear in N."""

    def test_every_decider_views_the_same_roster(self):
        _, _, manager = build(n=6)
        assert manager.roster.members == tuple(range(6))
        assert all(d.peers.roster is manager.roster for d in manager.deciders.values())

    def test_every_detector_views_the_same_sorted_roster(self):
        _, _, manager = build(n=6, config=PenelopeConfig(enable_membership=True))
        ascending = manager.roster.ascending()
        assert all(d.peers.roster is ascending for d in manager.detectors.values())

    def test_install_memory_grows_linearly(self):
        def install_peak_bytes(n):
            budget = n * 2 * 70.0
            cluster = Cluster(
                Engine(),
                ClusterConfig(n_nodes=n, system_power_budget_w=budget),
                RngRegistry(seed=0),
            )
            manager = PenelopeManager()
            client_ids = list(range(n))
            tracemalloc.start()
            try:
                manager.install(cluster, client_ids=client_ids, budget_w=budget)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 4x the nodes: linear growth gives ~4x the peak; a private O(N)
        # peer list per node gives ~16x.
        assert install_peak_bytes(2000) < 6 * install_peak_bytes(500)
