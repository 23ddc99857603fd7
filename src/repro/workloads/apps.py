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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.phases import Phase, Workload


@dataclass(frozen=True)
class PhaseTemplate:
    """One phase of an app's repeating cycle.

    Checked once, at construction, by :class:`Phase`'s own rules with
    the runtime fraction standing in for the work.  An instance's phase
    scales the work by a positive factor and jitters work and demand by
    a few percent, so :func:`build_apps` builds phases without checking
    each again.
    """

    name: str
    runtime_fraction: float
    demand_w_per_socket: float
    beta: float

    def __post_init__(self) -> None:
        Phase(self.name, self.runtime_fraction, self.demand_w_per_socket, self.beta)


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
    """
    return build_apps((name,), rng=rng, scale=scale, jitter=jitter)[0]


#: ``Phase``'s slot setters, which bypass its frozen ``__setattr__``.
_PHASE_SETTERS = tuple(
    Phase.__dict__[field].__set__
    for field in ("name", "work_s", "demand_w_per_socket", "beta", "imbalance")
)


def build_apps(
    names: Sequence[str],
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
    jitter: bool = True,
) -> List[Workload]:
    """One :func:`build_app` instance per entry of ``names``, in order.

    The jitter takes two doubles per phase, work then demand, for all
    instances in one ``rng.random`` call, and maps each as
    ``low + (high - low) * u``: the arithmetic ``rng.uniform(low, high)``
    applies to the same ``next_double`` sequence, so the phases and the
    stream position are bit-identical to building the instances one by
    one with one scalar ``uniform`` per factor.  The arithmetic runs
    elementwise over all phases at once, in the scalar order.

    The templates were checked when they were defined and the scale is
    checked here, once per app, so the phases are built through their
    slots, without :class:`Phase`'s per-instance checks (a 10 000-node
    universe builds ~95 000 of them).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    models = [get_app_model(name) for name in names]
    if not models:
        return []
    shapes: Dict[str, _Shape] = {}
    for model in models:
        if model.name not in shapes:
            shapes[model.name] = _shape(model, scale)
    # Work and demand of every phase of every instance, interleaved as
    # the jitter draws are.
    values = np.concatenate([shapes[model.name][2] for model in models])
    if jitter and rng is not None:
        draws = rng.random(len(values))
        # high - low of the symmetric ranges, exactly as uniform() forms it.
        values[0::2] *= 1.0 + (-_WORK_JITTER + (2 * _WORK_JITTER) * draws[0::2])
        values[1::2] *= 1.0 + (-_DEMAND_JITTER + (2 * _DEMAND_JITTER) * draws[1::2])
    pairs = iter(values.tolist())
    new = object.__new__
    set_name, set_work, set_demand, set_beta, set_imbalance = _PHASE_SETTERS
    workloads = []
    for model in models:
        phase_names, betas, _ = shapes[model.name]
        phases = []
        # zip reads ``pairs`` only after ``phase_names`` yields a name, so
        # each instance consumes exactly its own 2 * n_phases values.
        for name, beta, work, demand in zip(phase_names, betas, pairs, pairs):
            phase = new(Phase)
            set_name(phase, name)
            set_work(phase, work)
            set_demand(phase, demand)
            set_beta(phase, beta)
            set_imbalance(phase, 0.0)
            phases.append(phase)
        workloads.append(Workload(app=model.name, phases=tuple(phases)))
    return workloads


#: One app's phases at one scale, before jitter: their names, their
#: betas, and ``[work, demand, work, demand, ...]``.
_Shape = Tuple[Tuple[str, ...], Tuple[float, ...], "np.ndarray[Any, Any]"]


def _shape(model: AppModel, scale: float) -> _Shape:
    """``model``'s phases at ``scale``.

    Raises ``ValueError`` when the scale leaves a phase no work (a
    subnormal scale underflows): jitter keeps a positive work positive,
    so this is the one check a phase built from the shape still needs.
    """
    cycle_work = model.nominal_runtime_s * scale / model.n_cycles
    cycle = [
        (cycle_work * template.runtime_fraction, template.demand_w_per_socket)
        for template in model.cycle
    ]
    if any(work <= 0 for work, _ in cycle):
        raise ValueError(f"scale {scale!r} leaves {model.name}'s phases no work")
    return (
        _phase_names(model.name),
        tuple(template.beta for template in model.cycle) * model.n_cycles,
        np.array(cycle * model.n_cycles, dtype=np.float64).ravel(),
    )
