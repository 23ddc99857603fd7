"""§4.3 / Figure 2: performance under nominal conditions.

Sweep: every unique application pair x initial caps {60, 70, 80, 90,
100} W/socket, for Fair, SLURM and Penelope; report each dynamic system's
performance normalized to Fair, geometric-mean'd across pairs per cap and
overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import geometric_mean, normalized_performance
from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec
from repro.experiments.runner import raise_on_failures, run_sweep
from repro.workloads.apps import APP_NAMES
from repro.workloads.generator import unique_pairs

#: The paper's initial powercap settings (W per socket, 2 sockets/node).
PAPER_CAPS_W_PER_SOCKET: Tuple[float, ...] = (60.0, 70.0, 80.0, 90.0, 100.0)
#: The systems shown in Figure 2 (Fair is the baseline == 1.0).
DEFAULT_SYSTEMS: Tuple[str, ...] = ("slurm", "penelope")


@dataclass
class NominalResult:
    """All normalized performances from one sweep."""

    caps: Tuple[float, ...]
    systems: Tuple[str, ...]
    pairs: Tuple[Tuple[str, str], ...]
    #: (system, cap, pair) -> performance normalized to Fair.
    normalized: Dict[Tuple[str, float, Tuple[str, str]], float] = field(
        default_factory=dict
    )
    #: (cap, pair) -> Fair runtime (seconds), for reference.
    fair_runtimes: Dict[Tuple[float, Tuple[str, str]], float] = field(
        default_factory=dict
    )

    def geomean_per_cap(self, system: str) -> Dict[float, float]:
        """Figure 2's bars: geomean across pairs, one value per cap."""
        out: Dict[float, float] = {}
        for cap in self.caps:
            values = [
                self.normalized[(system, cap, pair)]
                for pair in self.pairs
                if (system, cap, pair) in self.normalized
            ]
            if values:
                out[cap] = geometric_mean(values)
        return out

    def overall_geomean(self, system: str) -> float:
        """Figure 2's rightmost bar: geomean across pairs *and* caps."""
        values = [
            self.normalized[(system, cap, pair)]
            for cap in self.caps
            for pair in self.pairs
            if (system, cap, pair) in self.normalized
        ]
        return geometric_mean(values)

    def mean_advantage(self, system_a: str, system_b: str) -> float:
        """Overall geomean ratio a/b - the paper's "SLURM outperforms
        Penelope by only 1.8%" is ``mean_advantage('slurm', 'penelope')``
        of about 0.018."""
        return self.overall_geomean(system_a) / self.overall_geomean(system_b) - 1.0


Slot = Tuple[str, float, Tuple[str, str]]


def cell_specs(
    caps: Sequence[float],
    pairs: Sequence[Tuple[str, str]],
    systems: Sequence[str],
    n_clients: int,
    seed: int,
    workload_scale: float,
    repetitions: int = 1,
    fault_plan: Optional[Callable[[str, float, Tuple[str, str]], Optional[FaultPlan]]] = None,
) -> Tuple[List[Slot], List[RunSpec]]:
    """The Fig. 2/3 sweep: each cell's ``(system, cap, pair)`` slot and spec.

    Per (cap, pair, repetition): Fair first, then every system, all on
    one seed so they face identical workload jitter.  ``fault_plan``
    gives each cell's plan (Fair's included); the faulty sweep's Fair
    cells thus equal the nominal sweep's and share its cache entries.
    """
    slots: List[Slot] = []
    specs: List[RunSpec] = []
    for cap in caps:
        for pair in pairs:
            for repetition in range(repetitions):
                for system in ("fair", *systems):
                    slots.append((system, cap, pair))
                    specs.append(
                        RunSpec(
                            manager=system,
                            pair=pair,
                            cap_w_per_socket=cap,
                            n_clients=n_clients,
                            seed=seed + 7919 * repetition,
                            workload_scale=workload_scale,
                            fault_plan=(
                                fault_plan(system, cap, pair) if fault_plan else None
                            ),
                        )
                    )
    return slots, specs


def run_nominal_sweep(
    caps: Sequence[float] = PAPER_CAPS_W_PER_SOCKET,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    n_clients: int = 20,
    seed: int = 0,
    workload_scale: float = 1.0,
    repetitions: int = 1,
    **runner_kwargs: Any,
) -> NominalResult:
    """Run the full Figure 2 sweep (or a subset, for tests).

    Within one (cap, pair, repetition) cell Fair and every dynamic system
    share a seed, so they face identical workload jitter; ``repetitions``
    reruns each cell with derived seeds and stores the geomean, for
    tighter estimates.

    Every run is independent, so the whole sweep is one flat spec list
    handed to :func:`~repro.experiments.runner.run_sweep`; every extra
    keyword (``jobs``, ``cache_dir``, ``progress``, ``retry``,
    ``journal``, ``resume``, ``harness_faults``) passes straight through
    to it.  Because the figure aggregates every cell, a quarantined
    spec raises :class:`~repro.experiments.runner.SweepFailure` instead
    of poisoning the geomeans.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    pair_list = list(pairs) if pairs is not None else unique_pairs(APP_NAMES)
    result = NominalResult(
        caps=tuple(caps), systems=tuple(systems), pairs=tuple(pair_list)
    )
    slots, specs = cell_specs(
        caps, pair_list, systems, n_clients, seed, workload_scale, repetitions
    )
    runs = raise_on_failures(
        run_sweep(specs, **runner_kwargs), context="nominal sweep"
    )

    runtimes: Dict[Tuple[str, float, Tuple[str, str]], List[float]] = {}
    for slot, run in zip(slots, runs):
        runtimes.setdefault(slot, []).append(run.runtime_s)
    for cap in caps:
        for pair in pair_list:
            fair_runtimes = runtimes[("fair", cap, pair)]
            result.fair_runtimes[(cap, pair)] = geometric_mean(fair_runtimes)
            for system in systems:
                result.normalized[(system, cap, pair)] = geometric_mean(
                    [
                        normalized_performance(run_s, fair_s)
                        for run_s, fair_s in zip(
                            runtimes[(system, cap, pair)], fair_runtimes
                        )
                    ]
                )
    return result
