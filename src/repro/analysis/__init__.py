"""Statistics helpers used by the experiment harness and reports."""

from repro.analysis.stats import (
    DistributionSummary,
    geometric_mean,
    normalized_performance,
    summarize,
)
from repro.analysis.timeseries import cumulative_arrivals, time_to_fraction

__all__ = [
    "DistributionSummary",
    "cumulative_arrivals",
    "geometric_mean",
    "normalized_performance",
    "summarize",
    "time_to_fraction",
]
