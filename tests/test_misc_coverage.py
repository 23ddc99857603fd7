"""Small-surface tests for corners not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instrumentation import MetricsRecorder, merge_recorders
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import RngRegistry


class TestClusterViews:
    @pytest.fixture
    def cluster(self):
        from repro.cluster.cluster import Cluster, ClusterConfig

        engine = Engine()
        return Cluster(
            engine,
            ClusterConfig(n_nodes=3, system_power_budget_w=3 * 160.0),
            RngRegistry(seed=0),
        )

    def test_total_caps_with_dead_nodes(self, cluster):
        cluster.kill_node(0)
        assert cluster.total_requested_caps_w(only_alive=True) == 320.0
        assert cluster.total_requested_caps_w(only_alive=False) == 480.0

    def test_power_snapshot_reflects_consumption(self, cluster):
        cluster.node(1).rapl.set_consumption(123.0)
        snapshot = cluster.power_snapshot()
        assert snapshot[1] == 123.0

    def test_repr_of_node(self, cluster):
        text = repr(cluster.node(2))
        assert "SimNode 2" in text and "alive" in text


class TestMergeRecorders:
    def test_turnarounds_and_caps_sorted(self):
        a, b = MetricsRecorder(), MetricsRecorder()
        a.turnaround(5.0, 0, 0.1, 1.0, False)
        b.turnaround(2.0, 1, 0.2, 0.0, True)
        a.cap(9.0, 0, 100.0)
        b.cap(3.0, 1, 120.0)
        merged = merge_recorders([a, b])
        assert [s.time for s in merged.turnarounds] == [2.0, 5.0]
        assert [s.time for s in merged.caps] == [3.0, 9.0]


class TestEngineUntilFailedEvent:
    def test_already_failed_event_raises_its_exception(self, engine):
        event = engine.event()
        event.fail(ValueError("pre-failed"))
        with pytest.raises(SimulationError, match="pre-failed"):
            engine.run()
        with pytest.raises(ValueError, match="pre-failed"):
            engine.run(until=event)


class TestWorkloadJitterDoesNotChangePhaseCount:
    def test_structure_is_stable_across_instances(self):
        from repro.workloads.apps import APP_NAMES, build_app

        rng = np.random.default_rng(0)
        for name in APP_NAMES:
            nominal = build_app(name)
            jittered = build_app(name, rng=rng)
            assert nominal.n_phases == jittered.n_phases
            assert [p.name for p in nominal.phases] == [
                p.name for p in jittered.phases
            ]


class TestPackageSurface:
    def test_version_exported(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.managers
        import repro.net
        import repro.power
        import repro.sim
        import repro.workloads

        for module in (
            repro.analysis, repro.managers, repro.net,
            repro.power, repro.sim, repro.workloads,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None
