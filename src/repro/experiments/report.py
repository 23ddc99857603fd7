"""Text reports in the shape of the paper's figures.

Every figure of the evaluation is a bar chart or box-plot series; these
formatters print the same rows/series as aligned text tables so the
benchmark harness can regenerate each one without a plotting stack.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, Tuple

from repro.experiments.faulty import FaultyResult
from repro.experiments.nominal import NominalResult
from repro.experiments.overhead import OverheadResult
from repro.experiments.runner import ProgressEvent
from repro.experiments.scaling import ScalingResult


def describe_spec(spec: object) -> str:
    """A one-line human label for any sweep spec type."""
    # Specs without a manager field (chaos, bench) label as their type.
    default = type(spec).__name__.removesuffix("Spec").lower() or str(spec)
    parts = [str(getattr(spec, "manager", default))]
    pair = getattr(spec, "pair", None)
    if pair:
        parts.append(":".join(pair))
    for attr, label in (
        ("cap_w_per_socket", "cap"),
        ("n_clients", "nodes"),
        ("frequency_hz", "hz"),
        ("seed", "seed"),
    ):
        value = getattr(spec, attr, None)
        if value is not None:
            parts.append(f"{label}={value:g}" if isinstance(value, float) else f"{label}={value}")
    return " ".join(parts)


def format_progress(event: ProgressEvent) -> str:
    """One sweep-progress line, e.g. ``[ 12/180] fair EP:DC cap=60 ... 3.1s``."""
    width = len(str(event.total))
    status = "cached" if event.cached else f"{event.duration_s:.1f}s"
    return (
        f"[{event.index + 1:>{width}}/{event.total}] "
        f"{describe_spec(event.spec)} ... {status}"
    )


def print_progress(event: ProgressEvent) -> None:
    """Progress listener for the CLI: one line per finished run, stderr."""
    print(format_progress(event), file=sys.stderr)


def _cap_table(result: NominalResult) -> List[str]:
    """The Fig. 2/3 table: header, one geomean row per cap, overall row."""
    header = f"{'cap W/socket':>14} | " + " | ".join(f"{s:>9}" for s in result.systems)
    lines = [header, "-" * len(header)]
    per_cap = {s: result.geomean_per_cap(s) for s in result.systems}
    for cap in result.caps:
        lines.append(
            f"{cap:>14.0f} | "
            + " | ".join(
                f"{per_cap[s].get(cap, float('nan')):>9.4f}" for s in result.systems
            )
        )
    lines.append(
        f"{'overall':>14} | "
        + " | ".join(f"{result.overall_geomean(s):>9.4f}" for s in result.systems)
    )
    return lines


def format_nominal(result: NominalResult, title: str = "Figure 2") -> str:
    """Figure 2: geomean normalized performance per cap and overall."""
    lines = [
        f"{title}: Performance Under Nominal Conditions "
        f"(normalized to Fair, geomean over {len(result.pairs)} pairs)",
        *_cap_table(result),
    ]
    if {"slurm", "penelope"} <= set(result.systems):
        advantage = result.mean_advantage("slurm", "penelope")
        lines.append(
            f"SLURM outperforms Penelope by {100 * advantage:+.2f}% on average "
            f"(paper: +1.8%, never more than 3%)"
        )
    return "\n".join(lines)


def format_faulty(result: FaultyResult, title: str = "Figure 3") -> str:
    """Figure 3: geomean normalized performance under induced failures."""
    lines = [
        f"{title}: Performance Under Faulty Conditions "
        f"(normalized to Fair, geomean over {len(result.pairs)} pairs; "
        f"SLURM server / one Penelope client killed mid-run)",
        *_cap_table(result),
    ]
    if {"slurm", "penelope"} <= set(result.systems):
        advantage = result.penelope_advantage_over_slurm()
        lines.append(
            f"Penelope outperforms SLURM by {100 * advantage:+.2f}% on average "
            f"(paper: 8-15%)"
        )
    return "\n".join(lines)


def format_overhead(result: OverheadResult, title: str = "Section 4.2") -> str:
    """§4.2: per-app slowdown of Penelope-on vs a static cap."""
    lines = [
        f"{title}: Penelope overhead on one node "
        f"(static cap {result.cap_w_per_socket:.0f} W/socket vs Penelope running)",
        f"{'app':>5} | {'static s':>10} | {'penelope s':>10} | {'slowdown':>9}",
        "-" * 45,
    ]
    for app in sorted(result.runtimes):
        static, managed = result.runtimes[app]
        lines.append(
            f"{app:>5} | {static:>10.2f} | {managed:>10.2f} | "
            f"{100 * result.slowdown(app):>8.2f}%"
        )
    lines.append(
        f"mean overhead: {100 * result.mean_overhead:.2f}%  (paper: ~1.3%)"
    )
    return "\n".join(lines)


def format_scaling_series(
    results: Mapping[Tuple[str, object], ScalingResult],
    x_label: str,
    metric: str,
    title: str,
    unit: str = "s",
    scale: float = 1.0,
) -> str:
    """One Figure 4-8 panel: ``metric`` per manager over the swept axis.

    ``metric`` is an attribute of :class:`ScalingResult`
    (``redistribution_median_s``, ``redistribution_total_s``,
    ``turnaround_mean_s``) or ``"turnaround_std_s"``.
    """
    managers = sorted({manager for manager, _ in results})
    xs = sorted({x for _, x in results})  # type: ignore[type-var]
    lines = [title, f"{x_label:>14} | " + " | ".join(f"{m:>12}" for m in managers)]
    lines.append("-" * len(lines[-1]))
    for x in xs:
        cells = []
        for manager in managers:
            result = results.get((manager, x))
            if result is None:
                cells.append(f"{'-':>12}")
                continue
            if metric == "turnaround_std_s":
                value = (
                    result.turnaround.std if result.turnaround is not None else float("nan")
                )
            else:
                value = getattr(result, metric)
            suffix = "*" if metric == "redistribution_total_s" and result.total_capped else " "
            cells.append(f"{value * scale:>11.4g}{suffix}")
        lines.append(f"{x:>14} | " + " | ".join(cells))
    lines.append(f"(values in {unit}; '*' = never completed, capped at the window)")
    return "\n".join(lines)


def format_frequency_figures(
    results: Mapping[Tuple[str, float], ScalingResult],
) -> Dict[str, str]:
    """Figures 4, 5 and 7 from one frequency sweep."""
    return {
        "fig4": format_scaling_series(
            results,
            x_label="iters/s",
            metric="redistribution_median_s",
            title="Figure 4: Median redistribution time (50% of available power) vs frequency",
        ),
        "fig5": format_scaling_series(
            results,
            x_label="iters/s",
            metric="redistribution_total_s",
            title="Figure 5: Total redistribution time (100% of available power) vs frequency",
        ),
        "fig7": format_scaling_series(
            results,
            x_label="iters/s",
            metric="turnaround_mean_s",
            title="Figure 7: Mean turnaround time vs frequency",
            unit="ms",
            scale=1e3,
        ),
        "fig7_std": format_scaling_series(
            results,
            x_label="iters/s",
            metric="turnaround_std_s",
            title="Figure 7 (companion): turnaround std-dev vs frequency",
            unit="ms",
            scale=1e3,
        ),
    }


def format_scale_figures(
    results: Mapping[Tuple[str, int], ScalingResult],
) -> Dict[str, str]:
    """Figures 6 and 8 from one scale sweep."""
    return {
        "fig6": format_scaling_series(
            results,
            x_label="nodes",
            metric="redistribution_median_s",
            title="Figure 6: Median redistribution time (50% of available power) vs scale",
        ),
        "fig8": format_scaling_series(
            results,
            x_label="nodes",
            metric="turnaround_mean_s",
            title="Figure 8: Mean turnaround time vs scale",
            unit="ms",
            scale=1e3,
        ),
    }
