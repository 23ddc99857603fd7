"""Unit tests for the Cluster container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster


def make_cluster(n=4, cap_per_socket=80.0, seed=0):
    engine = Engine()
    config = ClusterConfig(
        n_nodes=n, system_power_budget_w=n * 2 * cap_per_socket
    )
    return engine, Cluster(engine, config, RngRegistry(seed=seed))


class TestConfig:
    def test_fair_share(self):
        config = ClusterConfig(n_nodes=10, system_power_budget_w=1600.0)
        assert config.fair_share_w == 160.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            # 10 W/node fair share is below the 60 W safe minimum.
            ClusterConfig(n_nodes=10, system_power_budget_w=100.0).validate_budget()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(system_power_budget_w=0.0)


class TestConstruction:
    def test_nodes_created_with_fair_caps(self):
        _, cluster = make_cluster(n=4, cap_per_socket=80.0)
        assert len(cluster.nodes) == 4
        for node in cluster.nodes:
            assert node.rapl.cap_w == 160.0

    def test_node_lookup(self):
        _, cluster = make_cluster()
        assert cluster.node(2).node_id == 2
        assert list(cluster.node_ids) == [0, 1, 2, 3]

    def test_snapshots(self):
        _, cluster = make_cluster(n=3)
        caps = cluster.cap_snapshot()
        assert caps == {0: 160.0, 1: 160.0, 2: 160.0}
        assert set(cluster.power_snapshot()) == {0, 1, 2}

    def test_total_requested_caps(self):
        _, cluster = make_cluster(n=3)
        assert cluster.total_requested_caps_w() == 480.0


class TestRunToCompletion:
    def test_runs_assignment_to_makespan(self):
        engine, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(0), scale=0.1
        )
        cluster.install_assignment(assignment)
        runtime = cluster.run_to_completion()
        assert runtime > 0
        assert runtime == max(
            node.executor.finished_at for node in cluster.compute_nodes()
        )

    def test_livelock_guard_is_cancelled_after_completion(self):
        # The unfired time-limit guard must not survive the run: a later
        # drain of the same engine would otherwise leap the clock to the
        # guard's far-future expiry.
        engine, cluster = make_cluster(n=2)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=0.05)
        cluster.install_assignment(assignment)
        runtime = cluster.run_to_completion(time_limit_s=1e7)
        engine.run()
        assert engine.now < 1e7
        assert engine.now >= runtime

    def test_auto_start_can_be_disabled(self):
        engine, cluster = make_cluster(n=2)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=0.05)
        cluster.install_assignment(assignment)
        with pytest.raises(RuntimeError):
            cluster.run_to_completion(time_limit_s=10.0, start_workloads=False)

    def test_time_limit_guards_livelock(self):
        engine, cluster = make_cluster(n=2)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=1.0)
        cluster.install_assignment(assignment)
        with pytest.raises(RuntimeError, match="did not complete"):
            cluster.run_to_completion(time_limit_s=1.0)

    def test_stops_two_same_instant_hops_after_the_last_settle(self):
        # Every executor's ``done`` fires just before its ``settled``.
        # A chain of zero-delay calls started there shows where the run
        # stops: the last settle queues a hop that queues the stop, so
        # at the final instant a call queued after the first hop still
        # runs, and one queued after the second does not.
        engine, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(0), scale=0.1
        )
        cluster.install_assignment(assignment)
        ran = []

        def chain(depth):
            ran.append((engine.now, depth))
            if depth < 3:
                engine.call_later(0.0, chain, depth + 1, name="test.chain")

        for node in cluster.compute_nodes():
            node.executor.done.callbacks.append(lambda event: chain(0))
        runtime = cluster.run_to_completion()
        assert [depth for when, depth in ran if when == runtime] == [0, 1, 2]
        engine.run()
        assert [depth for when, depth in ran if when == runtime] == [0, 1, 2, 3]

    def test_compute_nodes_excludes_bare_nodes(self):
        _, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=0.05)
        cluster.install_assignment(assignment)
        assert len(cluster.compute_nodes()) == 2


class TestKillNode:
    def test_kill_marks_network_dead(self):
        engine, cluster = make_cluster(n=3)
        cluster.kill_node(1)
        assert not cluster.node(1).alive
        assert cluster.network.is_dead(1)
        assert len(cluster.alive_nodes()) == 2

    def test_completion_with_killed_node(self):
        engine, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(0), scale=0.2
        )
        cluster.install_assignment(assignment)
        cluster.start_workloads()
        engine.run(until=2.0)
        cluster.kill_node(0)
        runtime = cluster.run_to_completion()
        assert cluster.node(0).executor.finished_at is None
        survivors = [
            node.executor.finished_at
            for node in cluster.compute_nodes()
            if node.executor.finished_at is not None
        ]
        assert runtime == max(survivors)
