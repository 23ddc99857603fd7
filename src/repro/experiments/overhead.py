"""§4.2: Penelope's per-node overhead.

"We measure the runtime of each workload ... on a single node under a
static cap.  We then run all the workloads again, but this time launching
Penelope on this node.  This is a one node system, so no power is being
shared ... We observe an average of 1.3% overhead across all workloads."

In the reproduction the daemon cost is a model input
(``overhead_factor``, default 0.013), so this experiment is a consistency
check rather than a discovery: it verifies that the modelled daemons --
including their cap perturbations from sensor noise -- produce the
expected end-to-end slowdown and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunSpec
from repro.experiments.runner import raise_on_failures, run_sweep
from repro.workloads.apps import APP_NAMES


@dataclass(frozen=True)
class OverheadResult:
    """Per-app slowdowns of Penelope-on versus static cap."""

    cap_w_per_socket: float
    #: app -> (static runtime, penelope runtime).
    runtimes: Dict[str, Tuple[float, float]]

    def slowdown(self, app: str) -> float:
        static, managed = self.runtimes[app]
        return managed / static - 1.0

    @property
    def mean_overhead(self) -> float:
        """Mean percent slowdown across apps (paper: ~1.3 %)."""
        return float(
            np.mean([self.slowdown(app) for app in sorted(self.runtimes)])
        )


def run_overhead_experiment(
    apps: Sequence[str] = APP_NAMES,
    cap_w_per_socket: float = 80.0,
    seed: int = 0,
    workload_scale: float = 1.0,
    config: Optional[PenelopeConfig] = None,
    **runner_kwargs: Any,
) -> OverheadResult:
    """Measure Penelope-on vs static-cap runtimes for every app (§4.2).

    The static cap is a one-node Fair run: Fair sets the cap once and runs
    no daemons, so it adds no overhead.  ``runner_kwargs`` (``jobs``,
    ``cache_dir``, ...) pass through to :func:`run_sweep`.
    """
    size = dict(n_clients=1, seed=seed, workload_scale=workload_scale, record_caps=True)
    specs = [
        spec for app in apps for spec in (
            RunSpec("fair", (app, app), cap_w_per_socket, **size),
            RunSpec("penelope", (app, app), cap_w_per_socket, manager_config=config, **size),
        )
    ]
    runs = raise_on_failures(run_sweep(specs, **runner_kwargs), "overhead")
    runtimes = [run.runtime_s for run in runs]
    return OverheadResult(cap_w_per_socket, dict(zip(apps, zip(runtimes[::2], runtimes[1::2]))))
