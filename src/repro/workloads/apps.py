"""Models of the nine NAS Parallel Benchmark applications.

The paper runs NPB 3.4 class D and omits IS (it does not compile past
class C), leaving BT, CG, EP, FT, LU, MG, SP, UA and DC -- five kernels,
three pseudo-applications, plus the unstructured-adaptive-mesh and
parallel-I/O benchmarks.  Per §4.1, every application runs at least 40 s
and all but one at least two minutes.

Each model is a cycle template: a short list of phases (fraction of the
runtime, per-socket power demand, capping sensitivity ``beta``) repeated
``n_cycles`` times, with small per-instance jitter.  Demand levels follow
the usual characterization of these kernels: EP is compute-bound and the
most power-hungry; CG/MG are memory-bound with muted cap sensitivity; FT
alternates compute and communication-heavy transposes; DC is dominated by
I/O and runs far below the caps studied -- making it the system's main
power donor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.workloads.phases import Phase, Workload


@dataclass(frozen=True)
class PhaseTemplate:
    """One phase of an app's repeating cycle."""

    name: str
    runtime_fraction: float
    demand_w_per_socket: float
    beta: float


@dataclass(frozen=True)
class AppModel:
    """Static description of one NPB application."""

    name: str
    description: str
    #: Full-speed runtime in seconds (class-D-like, half-cluster scale).
    nominal_runtime_s: float
    n_cycles: int
    cycle: Tuple[PhaseTemplate, ...]

    def __post_init__(self) -> None:
        total = sum(t.runtime_fraction for t in self.cycle)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"{self.name}: cycle fractions sum to {total}, expected 1.0"
            )
        if self.n_cycles <= 0:
            raise ValueError("n_cycles must be positive")

    @property
    def mean_demand_w_per_socket(self) -> float:
        return sum(t.runtime_fraction * t.demand_w_per_socket for t in self.cycle)


_A = PhaseTemplate  # brevity below

APP_MODELS: Dict[str, AppModel] = {
    model.name: model
    for model in [
        AppModel(
            name="BT",
            description="Block tri-diagonal solver (pseudo-application)",
            nominal_runtime_s=320.0,
            n_cycles=8,
            cycle=(
                _A("x-solve", 0.30, 108.0, 0.85),
                _A("y-solve", 0.30, 104.0, 0.85),
                _A("z-solve", 0.30, 106.0, 0.85),
                _A("rhs", 0.10, 90.0, 0.60),
            ),
        ),
        AppModel(
            name="CG",
            description="Conjugate gradient, irregular memory access (kernel)",
            nominal_runtime_s=210.0,
            n_cycles=10,
            cycle=(
                _A("spmv", 0.70, 84.0, 0.45),
                _A("reduce", 0.30, 76.0, 0.40),
            ),
        ),
        AppModel(
            name="EP",
            description="Embarrassingly parallel random-number kernel",
            nominal_runtime_s=150.0,
            n_cycles=3,
            cycle=(_A("compute", 1.00, 118.0, 0.95),),
        ),
        AppModel(
            name="FT",
            description="3-D FFT PDE solver (kernel)",
            nominal_runtime_s=180.0,
            n_cycles=6,
            cycle=(
                _A("fft-compute", 0.55, 107.0, 0.85),
                _A("transpose", 0.45, 72.0, 0.35),
            ),
        ),
        AppModel(
            name="LU",
            description="Lower-upper Gauss-Seidel solver (pseudo-application)",
            nominal_runtime_s=300.0,
            n_cycles=6,
            cycle=(
                _A("ssor", 0.80, 102.0, 0.80),
                _A("rhs", 0.20, 92.0, 0.65),
            ),
        ),
        AppModel(
            name="MG",
            description="Multigrid on a sequence of meshes (kernel)",
            nominal_runtime_s=95.0,  # the one app under two minutes (§4.1)
            n_cycles=6,
            cycle=(
                _A("relax", 0.60, 90.0, 0.50),
                _A("restrict", 0.20, 82.0, 0.45),
                _A("prolong", 0.20, 86.0, 0.50),
            ),
        ),
        AppModel(
            name="SP",
            description="Scalar penta-diagonal solver (pseudo-application)",
            nominal_runtime_s=280.0,
            n_cycles=8,
            cycle=(
                _A("solve", 0.75, 100.0, 0.80),
                _A("rhs", 0.25, 88.0, 0.60),
            ),
        ),
        AppModel(
            name="UA",
            description="Unstructured adaptive mesh benchmark",
            nominal_runtime_s=240.0,
            n_cycles=12,
            cycle=(
                _A("adapt", 0.25, 85.0, 0.55),
                _A("solve", 0.60, 96.0, 0.70),
                _A("refine", 0.15, 78.0, 0.50),
            ),
        ),
        AppModel(
            name="DC",
            description="Data cube operator, I/O dominated benchmark",
            nominal_runtime_s=160.0,
            n_cycles=8,
            cycle=(
                _A("io", 0.60, 52.0, 0.20),
                _A("aggregate", 0.40, 70.0, 0.50),
            ),
        ),
    ]
}

#: Stable evaluation order for the nine applications.
APP_NAMES: Tuple[str, ...] = tuple(sorted(APP_MODELS))


def get_app_model(name: str) -> AppModel:
    """Look up the :class:`AppModel` for ``name`` (case-insensitive)."""
    try:
        return APP_MODELS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; choose from {', '.join(APP_NAMES)}"
        ) from None


#: Per-instance jitter: phases deviate a few percent run to run, like the
#: real benchmarks do.
_WORK_JITTER = 0.05
_DEMAND_JITTER = 0.02


@functools.lru_cache(maxsize=None)
def _phase_names(app: str) -> Tuple[str, ...]:
    """The ``"<template>[<cycle>]"`` label of each of ``app``'s phases.

    Built once per app and shared by every instance, so a 10 000-node
    universe holds ~20 distinct label strings instead of one per phase.
    """
    model = APP_MODELS[app]
    return tuple(
        f"{template.name}[{cycle_index}]"
        for cycle_index in range(model.n_cycles)
        for template in model.cycle
    )


def build_app(
    name: str,
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
    jitter: bool = True,
) -> Workload:
    """Instantiate a runnable :class:`~repro.workloads.phases.Workload`.

    Parameters
    ----------
    name:
        One of :data:`APP_NAMES`.
    rng:
        Random stream for per-instance jitter; ``None`` (or
        ``jitter=False``) builds the deterministic nominal instance.
    scale:
        Multiplies the runtime (e.g. 0.1 for quick tests).

    The jitter takes two doubles per phase, work then demand, in one
    ``rng.random`` call, and maps each as ``low + (high - low) * u``:
    the arithmetic ``rng.uniform(low, high)`` applies to the same
    ``next_double`` sequence, so the phases and the stream position are
    bit-identical to drawing one scalar ``uniform`` per factor.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    model = get_app_model(name)
    names = _phase_names(model.name)
    cycle_work = model.nominal_runtime_s * scale / model.n_cycles
    templates = model.cycle * model.n_cycles
    if jitter and rng is not None:
        draws = rng.random(2 * len(templates)).tolist()
    else:
        draws = None
    # high - low of the symmetric ranges, exactly as uniform() forms it.
    work_span = 2 * _WORK_JITTER
    demand_span = 2 * _DEMAND_JITTER
    phases = []
    for index, template in enumerate(templates):
        work = cycle_work * template.runtime_fraction
        demand = template.demand_w_per_socket
        if draws is not None:
            work *= 1.0 + (-_WORK_JITTER + work_span * draws[2 * index])
            demand *= 1.0 + (-_DEMAND_JITTER + demand_span * draws[2 * index + 1])
        phases.append(
            Phase(
                name=names[index],
                work_s=work,
                demand_w_per_socket=demand,
                beta=template.beta,
            )
        )
    return Workload(app=model.name, phases=tuple(phases))
