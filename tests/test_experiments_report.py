"""Unit tests for the text report formatters."""

from __future__ import annotations

from repro.analysis.stats import summarize
from repro.experiments.faulty import FaultyResult
from repro.experiments.nominal import NominalResult
from repro.experiments.overhead import OverheadResult
from repro.experiments.report import (
    format_faulty,
    format_frequency_figures,
    format_nominal,
    format_overhead,
    format_scale_figures,
    format_scaling_series,
)
from repro.experiments.scaling import ScalingResult, ScalingSpec
from repro.instrumentation import MetricsRecorder

PAIR = ("EP", "DC")


def nominal_result():
    result = NominalResult(
        caps=(60.0, 80.0), systems=("slurm", "penelope"), pairs=(PAIR,)
    )
    result.normalized = {
        ("slurm", 60.0, PAIR): 1.10,
        ("slurm", 80.0, PAIR): 1.05,
        ("penelope", 60.0, PAIR): 1.08,
        ("penelope", 80.0, PAIR): 1.04,
    }
    return result


def scaling_result(manager, x_value, turnaround_mean=1e-3, capped=False):
    return ScalingResult(
        spec=ScalingSpec(manager=manager, n_clients=8),
        available_w=100.0,
        redistribution_median_s=1.5,
        redistribution_total_s=10.0,
        total_capped=capped,
        turnaround=summarize([turnaround_mean]),
        timeout_fraction=0.0,
        messages_sent=10,
        messages_dropped_overflow=0,
        server_requests_served=5,
        recorder=MetricsRecorder(),
    )


class TestNominalReport:
    def test_contains_caps_and_geomeans(self):
        text = format_nominal(nominal_result())
        assert "Figure 2" in text
        assert "60" in text and "80" in text
        assert "overall" in text
        assert "1.1000" in text

    def test_advantage_line(self):
        text = format_nominal(nominal_result())
        assert "SLURM outperforms Penelope" in text
        assert "paper: +1.8%" in text


class TestFaultyReport:
    def test_formats(self):
        result = FaultyResult(
            caps=(60.0,), systems=("slurm", "penelope"), pairs=(PAIR,)
        )
        result.normalized = {
            ("slurm", 60.0, PAIR): 0.97,
            ("penelope", 60.0, PAIR): 1.08,
        }
        text = format_faulty(result)
        assert "Figure 3" in text
        assert "Penelope outperforms SLURM" in text
        assert "paper: 8-15%" in text


class TestOverheadReport:
    def test_formats(self):
        result = OverheadResult(
            cap_w_per_socket=80.0,
            runtimes={"EP": (100.0, 101.3), "DC": (50.0, 51.0)},
        )
        text = format_overhead(result)
        assert "mean overhead" in text
        assert "EP" in text and "DC" in text
        assert "1.30%" in text


class TestScalingReports:
    def make_results(self, xs, key_is_freq=True):
        results = {}
        for manager in ("penelope", "slurm"):
            for x in xs:
                results[(manager, x)] = scaling_result(manager, x)
        return results

    def test_series_table(self):
        results = self.make_results([1.0, 5.0])
        text = format_scaling_series(
            results, x_label="iters/s", metric="redistribution_median_s",
            title="T",
        )
        assert "penelope" in text and "slurm" in text
        assert "1.5" in text

    def test_capped_total_flagged(self):
        results = {("penelope", 1.0): scaling_result("penelope", 1.0, capped=True)}
        text = format_scaling_series(
            results, x_label="iters/s", metric="redistribution_total_s",
            title="T",
        )
        assert "*" in text

    def test_missing_cell_renders_dash(self):
        results = {("penelope", 1.0): scaling_result("penelope", 1.0)}
        text = format_scaling_series(
            {**results, ("slurm", 2.0): scaling_result("slurm", 2.0)},
            x_label="x", metric="redistribution_median_s", title="T",
        )
        assert "-" in text

    def test_frequency_figures_bundle(self):
        figures = format_frequency_figures(self.make_results([1.0, 2.0]))
        assert set(figures) == {"fig4", "fig5", "fig7", "fig7_std"}
        assert "Figure 4" in figures["fig4"]
        assert "Figure 5" in figures["fig5"]
        assert "Figure 7" in figures["fig7"]

    def test_scale_figures_bundle(self):
        figures = format_scale_figures(self.make_results([44, 132]))
        assert set(figures) == {"fig6", "fig8"}
        assert "Figure 6" in figures["fig6"]
        assert "Figure 8" in figures["fig8"]

    def test_turnaround_in_milliseconds(self):
        figures = format_frequency_figures(
            {("penelope", 1.0): scaling_result("penelope", 1.0, 2.5e-3)}
        )
        assert "2.5" in figures["fig7"]
