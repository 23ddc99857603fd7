"""Nearest-rank percentiles and the speed-normalised stopwatch."""

import math

import pytest

from bench import timing
from bench.timing import REFERENCE_PROBE_S, Stopwatch, nearest_rank


@pytest.mark.parametrize(
    "values, pct, expected",
    [
        (list(range(1, 11)), 50, 5),
        (list(range(1, 11)), 90, 9),
        (list(range(1, 11)), 100, 10),
        (list(range(1, 11)), 10, 1),
        (list(range(1, 11)), 91, 10),
        ([7.0], 50, 7.0),
        ([7.0], 90, 7.0),
        ([3, 1, 2], 50, 2),
        (list(range(1, 101)), 90, 90),
    ],
)
def test_nearest_rank_picks_the_observed_value(values, pct, expected):
    assert nearest_rank(values, pct) == expected


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 150])
def test_nearest_rank_index_follows_the_sample_count(n):
    values = [float(i) for i in range(n)]
    for pct in (50, 90):
        rank = math.ceil(pct * n / 100)
        assert nearest_rank(values, pct) == values[rank - 1]
        below = sum(1 for v in values if v <= nearest_rank(values, pct))
        assert below / n >= pct / 100


@pytest.mark.parametrize("pct", [0, -5, 100.5])
def test_nearest_rank_rejects_bad_percentiles(pct):
    with pytest.raises(ValueError):
        nearest_rank([1.0, 2.0], pct)


def test_nearest_rank_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_stopwatch_scales_ops_by_the_bracketing_probes(monkeypatch):
    probes = iter([2 * REFERENCE_PROBE_S] * 3 + [REFERENCE_PROBE_S])
    monkeypatch.setattr(timing, "probe_s", lambda: next(probes))
    sw = Stopwatch()
    sw.begin()
    sw.op(0.010)
    sw.op(0.030)
    sw.end()
    assert sw.ops_raw == [0.010, 0.030]
    # Probes of 2x the reference bracket the ops: they ran at half speed.
    assert sw.ops_norm == pytest.approx([0.005, 0.015])
    assert sw.wall_norm == pytest.approx(sw.wall_raw / 2)
    sw.begin()
    sw.op(0.020)
    sw.end()
    # The next section opens on its own probe (2x) and closes on 1x.
    assert sw.ops_norm[-1] == pytest.approx(0.020 * 2 / 3)


def test_stopwatch_sections_must_pair():
    sw = Stopwatch()
    with pytest.raises(RuntimeError):
        sw.end()
    sw.begin()
    with pytest.raises(RuntimeError):
        sw.begin()
