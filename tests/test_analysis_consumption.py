"""Cluster-level consumption analysis from per-node meter traces.

The budget audit in :mod:`repro.managers.base` checks the *cap*
accounting (§2.1 constraint 1 on assignments).  These tests check the
physical side: the cluster's **actual total draw** over time, rebuilt
from every node's energy-meter trace.  Under correct capping the total
draw can exceed the instantaneous sum of enforced caps only during RAPL's
convergence window, and never exceeds the system budget by more than the
enforcement transients allow.

Only these tests use the analysis, so it lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.cluster.cluster import Cluster


def enable_power_tracing(cluster: Cluster) -> None:
    """Turn on per-node power-breakpoint recording (call before running)."""
    for node in cluster.nodes:
        node.rapl.meter.enable_trace()


def total_consumption_curve(
    traces: Sequence[List[Tuple[float, float]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum per-node piecewise-constant power traces into a cluster curve.

    Each trace is a list of ``(time, watts)`` breakpoints (right-
    continuous).  Returns ``(times, total_watts)`` with a breakpoint at
    every instant any node's draw changed.
    """
    if not traces:
        raise ValueError("no traces given")
    breakpoints = np.unique(
        np.concatenate([[t for t, _ in trace] for trace in traces])
    )
    total = np.zeros_like(breakpoints)
    for trace in traces:
        times = np.array([t for t, _ in trace])
        watts = np.array([w for _, w in trace])
        index = np.searchsorted(times, breakpoints, side="right") - 1
        valid = index >= 0
        total[valid] += watts[index[valid]]
    return breakpoints, total


def cluster_consumption_curve(cluster: Cluster) -> Tuple[np.ndarray, np.ndarray]:
    """The cluster's total actual draw over time (tracing must be on)."""
    return total_consumption_curve([node.rapl.meter.trace for node in cluster.nodes])


@dataclass(frozen=True)
class ConsumptionReport:
    """Summary of a run's physical power behaviour."""

    budget_w: float
    peak_w: float
    mean_w: float
    #: Longest contiguous stretch with total draw above the budget --
    #: bounded by the RAPL enforcement window under correct operation.
    longest_over_budget_s: float
    over_budget_fraction: float

    @property
    def peak_utilization(self) -> float:
        return self.peak_w / self.budget_w


def analyze_consumption(
    times: np.ndarray,
    watts: np.ndarray,
    budget_w: float,
    horizon_s: float,
) -> ConsumptionReport:
    """Check a total-draw curve against the system budget.

    ``horizon_s`` closes the final segment (curves are right-open).
    """
    if budget_w <= 0:
        raise ValueError("budget must be positive")
    if times.size == 0:
        raise ValueError("empty curve")
    edges = np.append(times, horizon_s)
    durations = np.clip(np.diff(edges), 0.0, None)
    span = durations.sum()
    if span <= 0:
        raise ValueError("horizon before first breakpoint")
    mean = float(np.dot(watts, durations) / span)
    over = watts > budget_w + 1e-9
    over_time = float(durations[over].sum())
    # Longest contiguous over-budget stretch.
    longest = 0.0
    current = 0.0
    for is_over, duration in zip(over, durations):
        if is_over:
            current += duration
            longest = max(longest, current)
        else:
            current = 0.0
    return ConsumptionReport(
        budget_w=budget_w,
        peak_w=float(watts.max()),
        mean_w=mean,
        longest_over_budget_s=longest,
        over_budget_fraction=over_time / span,
    )


class TestTotalConsumptionCurve:
    def test_single_trace_passthrough(self):
        times, watts = total_consumption_curve([[(0.0, 100.0), (5.0, 50.0)]])
        assert list(times) == [0.0, 5.0]
        assert list(watts) == [100.0, 50.0]

    def test_two_traces_summed_at_union_of_breakpoints(self):
        times, watts = total_consumption_curve(
            [
                [(0.0, 100.0), (4.0, 20.0)],
                [(0.0, 50.0), (2.0, 80.0)],
            ]
        )
        assert list(times) == [0.0, 2.0, 4.0]
        assert list(watts) == [150.0, 180.0, 100.0]

    def test_trace_starting_late_counts_zero_before(self):
        times, watts = total_consumption_curve(
            [[(0.0, 10.0)], [(3.0, 5.0)]]
        )
        assert list(times) == [0.0, 3.0]
        assert list(watts) == [10.0, 15.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            total_consumption_curve([])


class TestAnalyzeConsumption:
    def test_simple_report(self):
        times = np.array([0.0, 5.0])
        watts = np.array([100.0, 200.0])
        report = analyze_consumption(times, watts, budget_w=150.0, horizon_s=10.0)
        assert report.peak_w == 200.0
        assert report.mean_w == pytest.approx(150.0)
        assert report.longest_over_budget_s == pytest.approx(5.0)
        assert report.over_budget_fraction == pytest.approx(0.5)
        assert report.peak_utilization == pytest.approx(200.0 / 150.0)

    def test_never_over_budget(self):
        report = analyze_consumption(
            np.array([0.0]), np.array([100.0]), budget_w=150.0, horizon_s=10.0
        )
        assert report.longest_over_budget_s == 0.0
        assert report.over_budget_fraction == 0.0

    def test_contiguous_over_budget_stretch(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        watts = np.array([200.0, 210.0, 100.0, 220.0])
        report = analyze_consumption(times, watts, budget_w=150.0, horizon_s=4.0)
        assert report.longest_over_budget_s == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_consumption(np.array([0.0]), np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            analyze_consumption(np.array([]), np.array([]), 10.0, 1.0)


class TestPhysicalBudgetEndToEnd:
    """The §2.1 physical constraint, measured on real runs."""

    @pytest.mark.parametrize("manager", ["fair", "penelope", "slurm"])
    def test_actual_draw_respects_budget_up_to_enforcement_lag(self, manager):
        from repro.experiments.harness import RunSpec, build_run

        spec = RunSpec(
            manager, ("EP", "DC"), 70.0, n_clients=6, workload_scale=0.15,
            seed=10,
        )
        engine, cluster, mgr = build_run(spec)
        enable_power_tracing(cluster)
        mgr.start()
        runtime = cluster.run_to_completion()
        times, watts = cluster_consumption_curve(cluster)
        # Client draw only: exclude an idle server node's floor if present.
        client_budget = spec.budget_w + (
            cluster.config.n_nodes - spec.n_clients
        ) * cluster.config.spec.idle_w
        report = analyze_consumption(
            times, watts, budget_w=client_budget, horizon_s=runtime
        )
        # Any excursion above budget is a RAPL-convergence transient:
        # bounded by the 0.5 s enforcement window (plus scheduling slack)
        # and rare over the run.
        assert report.longest_over_budget_s <= 1.0
        assert report.over_budget_fraction < 0.10
        # And the system actually uses a healthy share of its budget.
        assert report.mean_w > 0.4 * client_budget
