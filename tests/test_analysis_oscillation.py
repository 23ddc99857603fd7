"""Power-oscillation analysis (§3.2).

The paper's rate limit exists partly to damp *power oscillation*: a node
that receives too much power in one transaction cannot use it all, gets
classified as having excess next period, releases, turns hungry again,
and so on -- "the powercap on a node [can] oscillate wildly".

The metrics below quantify that from a run's cap samples:

* **total movement** -- sum of absolute cap changes (watt-steps a node's
  cap took);
* **net change** -- |final - initial|;
* **oscillation index** -- the wasted movement, ``(total - net) / 2``:
  how many watts were raised only to be lowered again (or vice versa).
  Zero for a monotone trajectory.

Only these tests read the metrics, so they live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import pytest

from repro.instrumentation import MetricsRecorder


@dataclass(frozen=True)
class OscillationStats:
    """Cap-trajectory churn for one node."""

    node: int
    samples: int
    initial_cap_w: float
    final_cap_w: float
    total_movement_w: float

    @property
    def net_change_w(self) -> float:
        return abs(self.final_cap_w - self.initial_cap_w)

    @property
    def oscillation_index_w(self) -> float:
        """Watts moved back and forth to no net effect."""
        return max(0.0, (self.total_movement_w - self.net_change_w) / 2.0)

    @property
    def churn_ratio(self) -> float:
        """Total movement per watt of net change (1.0 = perfectly direct;
        large = oscillatory).  ``inf`` when the cap ends where it began
        but moved in between."""
        if self.net_change_w == 0:
            return float("inf") if self.total_movement_w > 0 else 1.0
        return self.total_movement_w / self.net_change_w


def node_oscillation(
    recorder: MetricsRecorder, node: int, initial_cap_w: Optional[float] = None
) -> OscillationStats:
    """Oscillation statistics for one node's recorded cap trajectory.

    ``initial_cap_w`` anchors the trajectory's start; when omitted the
    first recorded sample is used (cap recording must be enabled).
    """
    trajectory: List[Tuple[float, float]] = recorder.caps_of(node)
    if not trajectory and initial_cap_w is None:
        raise ValueError(
            f"no cap samples for node {node}; was record_caps enabled?"
        )
    caps = [cap for _, cap in trajectory]
    start = initial_cap_w if initial_cap_w is not None else caps[0]
    series = [start] + caps
    movement = sum(abs(b - a) for a, b in zip(series, series[1:]))
    return OscillationStats(
        node=node,
        samples=len(caps),
        initial_cap_w=start,
        final_cap_w=series[-1],
        total_movement_w=movement,
    )


def cluster_oscillation(
    recorder: MetricsRecorder,
    node_ids: Iterable[int],
    initial_caps: Optional[Dict[int, float]] = None,
) -> Dict[int, OscillationStats]:
    """Per-node oscillation stats for all of ``node_ids``."""
    initial_caps = initial_caps or {}
    return {
        node: node_oscillation(recorder, node, initial_caps.get(node))
        for node in node_ids
    }


def mean_oscillation_index_w(
    recorder: MetricsRecorder,
    node_ids: Iterable[int],
    initial_caps: Optional[Dict[int, float]] = None,
) -> float:
    """Average wasted cap movement across nodes (the §3.2 damping target)."""
    stats = cluster_oscillation(recorder, node_ids, initial_caps)
    if not stats:
        raise ValueError("no nodes given")
    return sum(s.oscillation_index_w for s in stats.values()) / len(stats)


def recorder_for(node: int, caps):
    recorder = MetricsRecorder()
    for time, cap in enumerate(caps):
        recorder.cap(float(time), node, cap)
    return recorder


class TestNodeOscillation:
    def test_monotone_trajectory_has_zero_index(self):
        recorder = recorder_for(0, [110.0, 120.0, 130.0])
        stats = node_oscillation(recorder, 0, initial_cap_w=100.0)
        assert stats.total_movement_w == pytest.approx(30.0)
        assert stats.net_change_w == pytest.approx(30.0)
        assert stats.oscillation_index_w == 0.0
        assert stats.churn_ratio == pytest.approx(1.0)

    def test_ping_pong_is_pure_oscillation(self):
        recorder = recorder_for(0, [130.0, 100.0, 130.0, 100.0])
        stats = node_oscillation(recorder, 0, initial_cap_w=100.0)
        assert stats.total_movement_w == pytest.approx(120.0)
        assert stats.net_change_w == 0.0
        assert stats.oscillation_index_w == pytest.approx(60.0)
        assert stats.churn_ratio == float("inf")

    def test_mixed_trajectory(self):
        # 100 -> 150 -> 120: moved 80, net +20, wasted (80-20)/2 = 30.
        recorder = recorder_for(0, [150.0, 120.0])
        stats = node_oscillation(recorder, 0, initial_cap_w=100.0)
        assert stats.oscillation_index_w == pytest.approx(30.0)

    def test_implicit_initial_from_first_sample(self):
        recorder = recorder_for(0, [100.0, 130.0])
        stats = node_oscillation(recorder, 0)
        assert stats.initial_cap_w == 100.0
        assert stats.total_movement_w == pytest.approx(30.0)

    def test_no_samples_without_initial_rejected(self):
        with pytest.raises(ValueError, match="record_caps"):
            node_oscillation(MetricsRecorder(), 0)

    def test_no_samples_with_initial_is_static(self):
        stats = node_oscillation(MetricsRecorder(), 0, initial_cap_w=100.0)
        assert stats.total_movement_w == 0.0
        assert stats.churn_ratio == 1.0


class TestClusterAggregates:
    def test_cluster_oscillation(self):
        recorder = MetricsRecorder()
        recorder.cap(1.0, 0, 120.0)
        recorder.cap(1.0, 1, 80.0)
        stats = cluster_oscillation(recorder, [0, 1], {0: 100.0, 1: 100.0})
        assert stats[0].total_movement_w == pytest.approx(20.0)
        assert stats[1].total_movement_w == pytest.approx(20.0)

    def test_mean_index(self):
        recorder = MetricsRecorder()
        recorder.cap(1.0, 0, 130.0)
        recorder.cap(2.0, 0, 100.0)  # 30 wasted
        recorder.cap(1.0, 1, 110.0)  # monotone
        mean = mean_oscillation_index_w(recorder, [0, 1], {0: 100.0, 1: 100.0})
        assert mean == pytest.approx(15.0)

    def test_mean_of_nothing_rejected(self):
        with pytest.raises(ValueError):
            mean_oscillation_index_w(MetricsRecorder(), [])


class TestRateLimitDampsOscillation:
    def test_unlimited_transactions_oscillate_more(self):
        """End-to-end §3.2 check: removing getMaxSize increases churn."""
        from repro.core.config import PenelopeConfig
        from repro.experiments.harness import RunSpec, run_single

        def churn(enable_rate_limit):
            result = run_single(
                RunSpec(
                    "penelope",
                    ("FT", "DC"),
                    65.0,
                    n_clients=6,
                    workload_scale=0.25,
                    seed=8,
                    manager_config=PenelopeConfig(
                        enable_rate_limit=enable_rate_limit
                    ),
                    record_caps=True,
                )
            )
            initial = result.spec.budget_w / result.spec.n_clients
            return mean_oscillation_index_w(
                result.recorder, range(6), {n: initial for n in range(6)}
            )

        assert churn(enable_rate_limit=False) > churn(enable_rate_limit=True)
