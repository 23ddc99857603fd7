"""``python -m bench --compare A.json B.json``: two sets of runs, metric by metric.

``A`` is the parent's set, ``B`` the change's; each is a
``results.json`` written by ``python -m bench [--repeat N]``.  For every
(workload, end-to-end metric) both sides' median and quartiles are
shown with the change's delta, signed so that positive is worse, and a
verdict against the metric's bound from ``BENCHMARK.json``:

* ``unresolved`` -- one side's own quartile spread exceeds the bound,
  so a difference of that size could be noise (unless every run of B
  reads better than every run of A, which is ``better``);
* ``worse`` / ``better`` -- the medians differ by more than the bound;
* ``same`` -- otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run["trace"] and metric in run["metrics"]
    ]


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool) -> Tuple[float, str]:
    """The change's signed delta (positive = worse) and its verdict."""
    qa, qb = quartiles(a), quartiles(b)
    delta = (qb[1] - qa[1]) / qa[1]
    worse = delta if lower_is_better else -delta
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    if spread_a > bound or spread_b > bound:
        b_wins = max(b) < min(a) if lower_is_better else min(b) > max(a)
        return worse, "better" if b_wins else "unresolved"
    if worse > bound:
        return worse, "worse"
    if worse < -bound:
        return worse, "better"
    return worse, "same"


def compare_files(a_path: Path, b_path: Path, definition: Dict[str, Any]) -> str:
    a_runs = json.loads(a_path.read_text())["runs"]
    b_runs = json.loads(b_path.read_text())["runs"]
    workloads = [w["name"] for w in definition["workloads"]]
    def cell(values: Sequence[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

    lines = [
        f"{'workload':<18} {'metric':<12} {'A median [Q1, Q3]':>34} "
        f"{'B median [Q1, Q3]':>34} {'delta':>7} {'bound':>6}  verdict"
    ]
    for workload in workloads:
        for metric in definition["end_to_end"]:
            name = metric["name"]
            a = _values(a_runs, workload, name)
            b = _values(b_runs, workload, name)
            if not a or not b:
                continue
            worse, call = verdict(a, b, metric["bound"], metric["better"] == "lower")
            lines.append(
                f"{workload:<18} {name:<12} {cell(a):>34} {cell(b):>34} "
                f"{worse:>+7.1%} {metric['bound']:>6.0%}  {call}"
            )
    return "\n".join(lines)
