"""Tests for the hardware-efficiency (benefit 3) experiment."""

from __future__ import annotations

import pytest

from repro.experiments.hardware_efficiency import (
    ThroughputResult,
    compare_hardware_efficiency,
    format_hardware_efficiency,
)
from repro.experiments.harness import RunSpec, build_run

FAST = dict(total_nodes=9, budget_w=9 * 2 * 50.0, workload_scale=0.15, seed=2)
MANAGERS = ("penelope", "slurm", "slurm-ha")


@pytest.fixture(scope="module")
def cg():
    return compare_hardware_efficiency(MANAGERS, app="CG", **FAST)


@pytest.fixture(scope="module")
def ep():
    return compare_hardware_efficiency(("penelope", "slurm"), app="EP", **FAST)


class TestThroughputResult:
    def test_throughput_arithmetic(self):
        result = ThroughputResult(
            manager="x", total_nodes=10, compute_nodes=8,
            makespan_s=100.0, work_per_client_s=50.0,
        )
        assert result.throughput == pytest.approx(4.0)


class TestRun:
    def test_penelope_computes_on_all_nodes(self, cg):
        assert cg["penelope"].compute_nodes == 9

    def test_slurm_withholds_one(self, cg):
        assert cg["slurm"].compute_nodes == 8

    def test_ha_withholds_two(self, cg):
        assert cg["slurm-ha"].compute_nodes == 7

    def test_too_little_hardware_rejected(self):
        with pytest.raises(ValueError):
            compare_hardware_efficiency(
                ("slurm-ha",), total_nodes=3, budget_w=160.0, app="CG"
            )

    @pytest.mark.parametrize("manager", MANAGERS)
    def test_work_per_client_is_the_built_clients_mean(self, cg, manager):
        # The work is redrawn from the seed, not read off the run: it must
        # equal what the run's executors were given.
        result = cg[manager]
        spec = RunSpec(
            manager, ("CG", "CG"), FAST["budget_w"] / (2 * result.compute_nodes),
            n_clients=result.compute_nodes, seed=FAST["seed"],
            workload_scale=FAST["workload_scale"],
        )
        _, cluster, _ = build_run(spec)
        work = sum(node.executor.workload.total_work_s for node in cluster.compute_nodes())
        assert result.work_per_client_s == work / result.compute_nodes
        assert spec.budget_w == pytest.approx(FAST["budget_w"])


class TestTradeOff:
    def test_memory_bound_favors_more_nodes(self, cg):
        assert cg["penelope"].throughput > cg["slurm"].throughput

    def test_compute_bound_favors_fewer_nodes(self, ep):
        assert ep["penelope"].throughput < ep["slurm"].throughput

    def test_format(self, cg):
        text = format_hardware_efficiency(cg)
        assert "Benefit 3" in text
        assert all(manager in text for manager in MANAGERS)

    def test_best_design_prints_unit_throughput(self, ep):
        best, runner_up = format_hardware_efficiency(ep).splitlines()[3:]
        # Rows are sorted best first; throughput is relative to the best.
        assert best.split()[0] == "slurm" and best.endswith(" 1.000x")
        assert runner_up.split()[0] == "penelope"
        assert not runner_up.endswith(" 1.000x")
