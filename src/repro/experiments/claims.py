"""The paper's evaluation claims as one machine-checked table.

Each :class:`Claim` row names a number the evaluation (§4.2, Figs. 2-8)
or one of its ablations and extensions stands on: the shared experiment
that measures it, a reducer from that experiment's result to one float,
and the band the float must land in.  :func:`run_claims` runs each
experiment once per (size, seed), reduces every row reading it, and
judges each row's *mean* over its seeds against its band; the seed
range is reported beside it.  ``python -m repro claims`` prints the
table and exits 1 on any FAIL.

Two sizes exist.  ``bench`` runs the whole table in minutes on one
core (10 clients, 6 pairs, 3 caps, quarter-length workloads; 256 nodes
for the frequency sweep, with the SLURM service time scaled by
1056/256 -- deviation 6 in EXPERIMENTS.md).  ``paper`` uses the
paper's dimensions (20 clients, 36 pairs, 5 caps, full length, 1056
nodes).

Bands print in interval notation: ``[a, b]`` is closed, ``(a, b)`` open.
A band below the paper's own value says why in EXPERIMENTS.md.  Audits
are not rows: every run checks its §2.1 budget audit and raises on a
violation, which fails the whole command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import summarize
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments.allocation import AllocationSpec, compare_allocation_quality
from repro.experiments.faulty import predict_fair_runtime_s, run_faulty_sweep
from repro.experiments.hardware_efficiency import compare_hardware_efficiency
from repro.experiments.harness import RunResult, RunSpec, build_universe
from repro.experiments.multijob import run_multijob_comparison
from repro.experiments.nominal import PAPER_CAPS_W_PER_SOCKET, run_nominal_sweep
from repro.experiments.overhead import run_overhead_experiment
from repro.experiments.runner import raise_on_failures, run_sweep
from repro.experiments.scaling import (
    PAPER_FREQUENCIES_HZ,
    PAPER_SCALES,
    ScalingSpec,
    sweep_frequency,
    sweep_pairs,
    sweep_scale,
)
from repro.managers.slurm import SlurmConfig
from repro.workloads.phases import Phase, Workload

SIZES = ("bench", "paper")
KINDS = ("paper", "ablation", "extension")


@dataclass(frozen=True)
class Band:
    """The interval a row's mean must land in."""

    lo: float = -math.inf
    hi: float = math.inf
    #: Open interval (the replaced check used a strict ``<``/``>``).
    strict: bool = False

    def holds(self, value: float) -> bool:
        if self.strict:
            return self.lo < value < self.hi
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        left, right = ("(", ")") if self.strict else ("[", "]")
        return f"{left}{self.lo:.4g}, {self.hi:.4g}{right}"


def above(lo: float) -> Band:
    return Band(lo=lo, strict=True)


def below(hi: float) -> Band:
    return Band(hi=hi, strict=True)


def at_least(lo: float) -> Band:
    return Band(lo=lo)


def at_most(hi: float) -> Band:
    return Band(hi=hi)


@dataclass(frozen=True)
class Claim:
    """One row: a measured float, the band it must hit, and on which seeds."""

    id: str
    figure: str
    #: The paper's own value or statement, as text.
    paper: str
    #: "paper", "ablation" or "extension".
    kind: str
    #: Key into :data:`EXPERIMENTS`.
    experiment: str
    reduce: Callable[[Any], float]
    band: Band
    #: size -> seeds; the first paper seed is the one the row's
    #: original check asserted on.
    seeds: Mapping[str, Tuple[int, ...]]
    #: Cheap enough for the tier-1 test suite.
    tier1: bool = False
    #: The ``paper``-size band when it differs from ``band``.
    paper_band: Optional[Band] = None

    def band_at(self, size: str) -> Band:
        if size == "paper" and self.paper_band is not None:
            return self.paper_band
        return self.band


def _seeds(first: int, bench: int, paper: int = 1) -> Dict[str, Tuple[int, ...]]:
    return {
        "bench": tuple(range(first, first + bench)),
        "paper": tuple(range(first, first + paper)),
    }


# -- shared experiments: (paper-sized?, seed, runner kwargs) -> result ---------

Runner = Dict[str, Any]

#: The Figs. 2/3 sweep's reduced pairs.
BENCH_PAIRS = (
    ("EP", "DC"), ("CG", "LU"), ("FT", "MG"), ("BT", "DC"), ("EP", "CG"), ("SP", "UA"),
)


def _cell_size(paper: bool) -> Runner:
    if paper:
        return dict(caps=PAPER_CAPS_W_PER_SOCKET, pairs=None, n_clients=20, workload_scale=1.0)
    return dict(caps=(60.0, 80.0, 100.0), pairs=BENCH_PAIRS, n_clients=10, workload_scale=0.25)


def _nominal(paper: bool, seed: int, runner: Runner) -> Any:
    return run_nominal_sweep(seed=seed, **_cell_size(paper), **runner)


def _faulty(paper: bool, seed: int, runner: Runner) -> Any:
    return run_faulty_sweep(seed=seed, **_cell_size(paper), **runner)


def _overhead(paper: bool, seed: int, runner: Runner) -> Any:
    return run_overhead_experiment(workload_scale=1.0 if paper else 0.5, seed=seed)


def _frequency(paper: bool, seed: int, runner: Runner) -> Any:
    if paper:
        return sweep_frequency(PAPER_FREQUENCIES_HZ, n_clients=1056, seed=seed, **runner)
    n_clients, freqs = 256, PAPER_FREQUENCIES_HZ[:-1]
    factor = 1056 / n_clients  # deviation 6: the knee stays at the paper's frequency
    config = SlurmConfig(
        rate_scheme="scale-aware", overhead_factor=0.0, stagger_window_s=2e-3,
        server_service_time_s=(80e-6 * factor, 100e-6 * factor), server_inbox_capacity=2048,
    )
    slurm = ScalingSpec(manager="slurm", n_clients=n_clients, manager_config=config)
    results = sweep_frequency(freqs, n_clients, ("penelope",), seed, **runner)
    results.update(sweep_frequency(freqs, n_clients, ("slurm",), seed, base=slurm, **runner))
    return results


def _scale(paper: bool, seed: int, runner: Runner) -> Any:
    scales = PAPER_SCALES if paper else PAPER_SCALES[:4]
    return sweep_scale(scales, frequency_hz=1.0, seed=seed, observe_for_s=40.0, **runner)


def _pairs(paper: bool, seed: int, runner: Runner) -> Any:
    """Per manager: (median redistribution s over pairs with a usable
    release, mean turnaround s over all pairs) as distributions."""
    results = sweep_pairs(
        n_clients=132 if paper else 44, frequency_hz=1.0, observe_for_s=30.0,
        seed=seed, **runner,
    )
    return {
        manager: (
            summarize([
                r.redistribution_median_s
                for (m, _), r in results.items() if m == manager and r.available_w > 1.0
            ]),
            summarize([r.turnaround_mean_s for (m, _), r in results.items() if m == manager]),
        )
        for manager in ("penelope", "slurm")
    }


def _runs(specs: Mapping[str, RunSpec], runner: Runner) -> Dict[str, RunResult]:
    results = raise_on_failures(run_sweep(list(specs.values()), **runner), "claims")
    return dict(zip(specs, results))


def _ablation(
    seed: int,
    configs: Mapping[str, Optional[PenelopeConfig]],
    runner: Runner,
    pair: Tuple[str, str] = ("EP", "DC"),
    record_caps: bool = False,
) -> Dict[str, RunResult]:
    """One 10-client, 0.3-length run per config (``None`` = Fair) at 65 W."""
    specs = {
        name: RunSpec(
            "fair" if config is None else "penelope", pair, 65.0, n_clients=10, seed=seed,
            workload_scale=0.3, manager_config=config, record_caps=record_caps,
        )
        for name, config in configs.items()
    }
    return _runs(specs, runner)


def _sensitivity(paper: bool, seed: int, runner: Runner) -> Any:
    """Fair, then the decider period T and the margin epsilon swept alone."""
    configs: Dict[str, Optional[PenelopeConfig]] = {"fair": None}
    for period in (0.5, 1.0, 2.0, 4.0):
        configs[f"T={period}"] = PenelopeConfig(period_s=period, epsilon_w=5.0)
    for eps in (1.0, 5.0, 15.0, 40.0):
        configs[f"eps={eps}"] = PenelopeConfig(period_s=1.0, epsilon_w=eps)
    return _ablation(seed, configs, runner)


def _discovery(paper: bool, seed: int, runner: Runner) -> Any:
    strategies = ("random", "ring", "sticky")
    return _ablation(seed, {s: PenelopeConfig(discovery=s) for s in strategies}, runner)


def _switch(name: str, **kwargs: Any) -> Callable[[bool, int, Runner], Any]:
    """An ablation of one Penelope switch: runs keyed "True" and "False"."""

    def experiment(paper: bool, seed: int, runner: Runner) -> Any:
        configs = {str(on): PenelopeConfig(**{name: on}) for on in (True, False)}
        return _ablation(seed, configs, runner, **kwargs)

    return experiment


def _allocation(paper: bool, seed: int, runner: Runner) -> Any:
    template = AllocationSpec(
        "fair", n_clients=20 if paper else 10, workload_scale=1.0 if paper else 0.5,
        observe_s=60.0 if paper else 30.0, seed=seed,
    )
    return compare_allocation_quality(("fair", "slurm", "penelope"), template, **runner)


def _ha(paper: bool, seed: int, runner: Runner) -> Any:
    """Fair, and SLURM / HA SLURM / Penelope losing their coordinator
    (Penelope: a client) a third of the way through."""
    pair, cap, scale = ("EP", "DC"), 65.0, 1.0 if paper else 0.3
    n_clients = 20 if paper else 10
    fault_at = 0.33 * predict_fair_runtime_s(pair, cap, scale)
    size = dict(n_clients=n_clients, workload_scale=scale, seed=seed)
    specs = {"fair": RunSpec("fair", pair, cap, **size)}
    for manager in ("slurm", "slurm-ha", "penelope"):
        victim = 0 if manager == "penelope" else n_clients
        plan = FaultPlan().kill(victim, fault_at)
        specs[manager] = RunSpec(manager, pair, cap, fault_plan=plan, **size)
    return _runs(specs, runner)


def _hardware(paper: bool, seed: int, runner: Runner) -> Any:
    """app -> manager -> throughput on 21 nodes at a tight 45 W/socket."""
    managers, scale = ("penelope", "slurm", "slurm-ha"), 1.0 if paper else 0.3
    return {
        app: {
            manager: result.throughput
            for manager, result in compare_hardware_efficiency(
                managers, app=app, workload_scale=scale, budget_w=21 * 2 * 45.0, seed=seed
            ).items()
        }
        for app in ("CG", "EP")
    }


def _multijob(paper: bool, seed: int, runner: Runner) -> Any:
    return run_multijob_comparison(
        ("slurm", "penelope"), n_clients=20 if paper else 10,
        workload_scale=1.0 if paper else 0.25, seed=seed, **runner,
    )


def _numa_workload(imbalance: float, scale: float) -> Workload:
    """Eight lockstep phases whose demand leans ``imbalance`` to one socket."""
    return Workload("NUMA", tuple(
        Phase(f"solve[{i}]", 12.0 * scale, 105.0, beta=0.85, imbalance=imbalance)
        for i in range(8)
    ))


def _socket_split(paper: bool, seed: int, runner: Runner) -> Any:
    """(imbalance, split policy) -> Penelope runtime on 8 lockstep nodes."""
    n_nodes, scale = 8, 1.0 if paper else 0.4
    runtimes = {}
    for imbalance in (0.0, 0.3):
        for policy in ("even", "proportional"):
            _, cluster, manager = build_universe(
                "penelope", n_nodes, n_nodes * 2 * 70.0, seed,
                lambda rngs: {n: _numa_workload(imbalance, scale) for n in range(n_nodes)},
            )
            for node in cluster.compute_nodes():
                node.rapl.socket_split_policy = policy
            manager.start()
            runtimes[(imbalance, policy)] = cluster.run_to_completion()
            manager.audit().check()
    return runtimes


EXPERIMENTS: Dict[str, Callable[[bool, int, Runner], Any]] = {
    "nominal": _nominal,
    "faulty": _faulty,
    "overhead": _overhead,
    "frequency": _frequency,
    "scale": _scale,
    "pairs": _pairs,
    "sensitivity": _sensitivity,
    "discovery": _discovery,
    "rate_limit": _switch("enable_rate_limit"),
    "urgency": _switch("enable_urgency", pair=("FT", "DC"), record_caps=True),
    "allocation": _allocation,
    "ha": _ha,
    "hardware": _hardware,
    "multijob": _multijob,
    "socket_split": _socket_split,
}


# -- reducers ------------------------------------------------------------------


#: The scaling metrics the Figs. 4-8 rows read.
MEDIAN, TOTAL, TURNAROUND = "redistribution_median_s", "redistribution_total_s", "turnaround_mean_s"


def _series(results: Mapping[Tuple[str, Any], Any], manager: str, metric: str) -> List[float]:
    """``metric`` over ``manager``'s scaling points, in ascending x."""
    return [getattr(results[key], metric) for key in sorted(k for k in results if k[0] == manager)]


def _pen(results: Mapping[Tuple[str, Any], Any], metric: str) -> List[float]:
    return _series(results, "penelope", metric)


def _slurm(results: Mapping[Tuple[str, Any], Any], metric: str) -> List[float]:
    return _series(results, "slurm", metric)


def _spread(values: Sequence[float]) -> float:
    return max(values) / min(values)


def _max_step(values: Sequence[float]) -> float:
    return max(b / a for a, b in zip(values, values[1:]))


def _min_step(values: Sequence[float]) -> float:
    return min(b / a for a, b in zip(values, values[1:]))


def _slurm_knee_hz(results: Mapping[Tuple[str, float], Any]) -> float:
    """The lowest frequency at which the SLURM server drops packets."""
    drops = _slurm(results, "messages_dropped_overflow")
    freqs = sorted(f for m, f in results if m == "slurm")
    return next((f for f, d in zip(freqs, drops) if d > 0), math.inf)


def _fig8_growth_vs_linear(results: Mapping[Tuple[str, int], Any]) -> float:
    """SLURM's turnaround growth over the sweep, per unit of node growth."""
    slurm = _slurm(results, TURNAROUND)
    scales = sorted(n for m, n in results if m == "slurm")
    return (slurm[-1] / slurm[0]) / (scales[-1] / scales[0])


def _slurm_std_growth(results: Mapping[Tuple[str, float], Any]) -> float:
    """SLURM's largest turnaround std-dev over its 1 Hz one."""
    stds = [summary.std for summary in _slurm(results, "turnaround")]
    return max(stds) / stds[0]


def _scale_gaps(results: Mapping[Tuple[str, int], Any]) -> List[float]:
    return [p / s for p, s in zip(_pen(results, MEDIAN), _slurm(results, MEDIAN))]


def _vs_fair(runs: Mapping[str, RunResult], prefix: str) -> float:
    """The slowest ``prefix`` run's runtime over Fair's."""
    fair = runs["fair"].runtime_s
    return max(r.runtime_s for name, r in runs.items() if name.startswith(prefix)) / fair


def _max_grant_share(result: RunResult) -> float:
    """The largest single node's share of all granted watts."""
    per_node: Dict[int, float] = {}
    for event in result.recorder.grants():
        per_node[event.dst] = per_node.get(event.dst, 0.0) + event.watts
    total = sum(per_node.values())
    return max(per_node.values()) / total if total else 0.0


def _starved_node_s(result: RunResult) -> float:
    """Node-seconds spent more than 10 % below the initial cap."""
    initial = result.spec.budget_w / result.spec.n_clients
    starved = 0.0
    for node in range(result.spec.n_clients):
        caps = result.recorder.caps_of(node)
        for (t0, cap), (t1, _) in zip(caps, caps[1:]):
            if cap < 0.9 * initial:
                starved += t1 - t0
    return starved


def _ordering(values: Mapping[str, float], order: Sequence[str]) -> float:
    """min over adjacent pairs of values[a] / values[b]: > 1 iff strictly
    decreasing along ``order``."""
    return min(values[a] / values[b] for a, b in zip(order, order[1:]))


def _rows(
    experiment: str, figure: str, kind: str, seeds: Mapping[str, Tuple[int, ...]],
    *rows: Tuple[Any, ...], tier1: bool = False,
) -> Tuple[Claim, ...]:
    """Rows reading ``experiment``, each ``(id, paper, reduce, band[, paper band])``."""
    return tuple(
        Claim(row[0], figure, row[1], kind, experiment, row[2], row[3], seeds, tier1, *row[4:])
        for row in rows
    )


FIGURES = _seeds(0, 3)
SCALING = _seeds(0, 2)
SENSITIVITY = _seeds(13, 3, 3)

CLAIMS: Tuple[Claim, ...] = (
    *_rows(
        "overhead", "§4.2", "paper", FIGURES,
        ("overhead.mean", "~1.3 %", lambda r: r.mean_overhead, Band(0.012, 0.04)),
        ("overhead.min_app", ">= 1.3 % daemon cost",
         lambda r: min(r.slowdown(app) for app in r.runtimes), at_least(0.012)),
        tier1=True,
    ),
    *_rows(
        "nominal", "Fig. 2", "paper", FIGURES,
        ("fig2.slurm_vs_fair", "> 1 (beats Fair)",
         lambda r: r.overall_geomean("slurm"), above(1.0)),
        ("fig2.penelope_vs_fair", "> 1 (beats Fair)",
         lambda r: r.overall_geomean("penelope"), above(1.0)),
        ("fig2.slurm_over_penelope", "+1.8 %",
         lambda r: r.mean_advantage("slurm", "penelope"), Band(-0.06, 0.06, strict=True)),
        ("fig2.slurm_over_penelope_max_cap", "< 3 % at every cap",
         lambda r: max(s / p - 1.0 for s, p in zip(
             r.geomean_per_cap("slurm").values(), r.geomean_per_cap("penelope").values())),
         below(0.06)),
        tier1=True,
    ),
    # SLURM's server (one Penelope client) dies a third of the way in.  The
    # bench band comes from EXPERIMENTS.md, "Figure 3 at reduced sizes".
    *_rows(
        "faulty", "Fig. 3", "paper", FIGURES,
        ("fig3.penelope_over_slurm", "+8-15 %",
         lambda r: r.penelope_advantage_over_slurm(), Band(0.06, 0.15), Band(0.08, 0.15)),
        ("fig3.slurm_vs_fair", "<= 1 (at/below Fair)",
         lambda r: r.overall_geomean("slurm"), below(1.03)),
        ("fig3.penelope_vs_fair", "> 1 (barely perturbed)",
         lambda r: r.overall_geomean("penelope"), above(1.0)),
        tier1=True,
    ),
    *_rows(
        "frequency", "Fig. 4", "paper", SCALING,
        ("fig4.penelope_over_slurm_1hz", "SLURM faster at 1 Hz",
         lambda r: _pen(r, MEDIAN)[0] / _slurm(r, MEDIAN)[0], above(1.0)),
        ("fig4.penelope_speedup", "~1/f",
         lambda r: _pen(r, MEDIAN)[0] / _pen(r, MEDIAN)[-1], above(4.0)),
        ("fig4.penelope_max_step", "falls monotonically",
         lambda r: _max_step(_pen(r, MEDIAN)), at_most(1.25)),
        ("fig4.penelope_top_vs_bound", "converges toward SLURM",
         lambda r: _pen(r, MEDIAN)[-1] / max(10 * min(_slurm(r, MEDIAN)), 1.5), below(1.0)),
    ),
    *_rows(
        "frequency", "Fig. 5", "paper", SCALING,
        ("fig5.slurm_knee_hz", "~20 iters/s", _slurm_knee_hz, Band(10.0, 30.0)),
        ("fig5.slurm_capped_at_top", "SLURM never completes",
         lambda r: float(_slurm(r, "total_capped")[-1]), Band(1.0, 1.0)),
        ("fig5.penelope_capped_at_top", "Penelope completes",
         lambda r: float(_pen(r, "total_capped")[-1]), Band(0.0, 0.0)),
        ("fig5.penelope_total_speedup", "keeps improving",
         lambda r: _pen(r, TOTAL)[0] / _pen(r, TOTAL)[-1], above(1.0)),
    ),
    *_rows(
        "scale", "Fig. 6", "paper", SCALING,
        ("fig6.penelope_spread", "flat in N", lambda r: _spread(_pen(r, MEDIAN)), below(2.0)),
        ("fig6.slurm_spread", "flat in N", lambda r: _spread(_slurm(r, MEDIAN)), below(2.0)),
        ("fig6.min_gap", "SLURM ahead at 1 Hz", lambda r: min(_scale_gaps(r)), above(1.0)),
        ("fig6.gap_spread", "constant gap", lambda r: _spread(_scale_gaps(r)), below(2.5)),
    ),
    *_rows(
        "frequency", "Fig. 7", "paper", SCALING,
        ("fig7.penelope_spread", "Penelope flat",
         lambda r: _spread(_pen(r, TURNAROUND)), below(2.0)),
        ("fig7.penelope_max_ms", "sub-ms",
         lambda r: 1e3 * max(_pen(r, TURNAROUND)), below(2.0)),
        ("fig7.slurm_peak_growth", "SLURM climbs",
         lambda r: max(_slurm(r, TURNAROUND)) / _slurm(r, TURNAROUND)[0], above(1.3)),
        ("fig7.slurm_last_vs_peak", "levels off, declines",
         lambda r: _slurm(r, TURNAROUND)[-1] / max(_slurm(r, TURNAROUND)), below(1.0)),
        ("fig7.slurm_over_penelope", "orders of magnitude",
         lambda r: min(_slurm(r, TURNAROUND)) / max(_pen(r, TURNAROUND)), above(10.0)),
        ("fig7.slurm_std_growth", "growing std-dev", _slurm_std_growth, above(1.0)),
    ),
    *_rows(
        "scale", "Fig. 8", "paper", SCALING,
        ("fig8.penelope_spread", "Penelope flat",
         lambda r: _spread(_pen(r, TURNAROUND)), below(2.0)),
        ("fig8.slurm_growth_vs_linear", "sharply increasing", _fig8_growth_vs_linear,
         above(1 / 3)),
        ("fig8.slurm_min_step", "increasing in N",
         lambda r: _min_step(_slurm(r, TURNAROUND)), above(1.0)),
        ("fig8.slurm_over_penelope_top", "SLURM waits longer",
         lambda r: _slurm(r, TURNAROUND)[-1] / _pen(r, TURNAROUND)[-1], above(5.0)),
        ("fig8.slurm_top_ms", "tens of ms << 1 s",
         lambda r: 1e3 * _slurm(r, TURNAROUND)[-1], below(250.0)),
        ("fig8.server_served_top", "server serving",
         lambda r: float(_slurm(r, "server_requests_served")[-1]), above(0.0)),
    ),
    # Distributions over all 36 application pairs at 1 Hz.
    *_rows(
        "pairs", "§4.5", "paper", SCALING,
        ("pairs.penelope_usable", "36 pairs",
         lambda r: float(r["penelope"][0].count), at_least(18.0)),
        ("pairs.redist_median_ratio", "SLURM faster at low N",
         lambda r: r["slurm"][0].median / r["penelope"][0].median, at_most(1.0)),
        ("pairs.turnaround_median_ratio", "Penelope faster",
         lambda r: r["penelope"][1].median / r["slurm"][1].median, below(1.0)),
        ("pairs.turnaround_std_ratio", "Penelope tighter",
         lambda r: r["penelope"][1].std / r["slurm"][1].std, below(1.0)),
    ),
    # Ablations (DESIGN.md §5): runtime ratios on EP:DC at 65 W/socket.
    *_rows(
        "sensitivity", "§3 T", "ablation", SENSITIVITY,
        ("ablation.period.max_vs_fair", "T = 1 s", lambda r: _vs_fair(r, "T="), below(1.0)),
        ("ablation.period.4s_vs_1s", "T = 1 s",
         lambda r: r["T=4.0"].runtime_s / r["T=1.0"].runtime_s, at_least(0.99)),
    ),
    *_rows(
        "sensitivity", "§3 eps", "ablation", SENSITIVITY,
        ("ablation.epsilon.max_vs_fair", "fixed eps",
         lambda r: _vs_fair(r, "eps="), below(1.02)),
        ("ablation.epsilon.5w_vs_1w", "fixed eps",
         lambda r: r["eps=5.0"].runtime_s / r["eps=1.0"].runtime_s, at_most(1.02)),
        ("ablation.epsilon.5w_vs_40w", "fixed eps",
         lambda r: r["eps=5.0"].runtime_s / r["eps=40.0"].runtime_s, at_most(1.02)),
    ),
    *_rows(
        "rate_limit", "§3.2", "ablation", _seeds(5, 3, 3),
        ("ablation.rate_limit.share_ratio", "limit stops hoarding",
         lambda r: _max_grant_share(r["True"]) / _max_grant_share(r["False"]), at_most(1.0)),
    ),
    *_rows(
        "urgency", "§3", "ablation", _seeds(7, 3, 3),
        ("ablation.urgency.starved_ratio", "urgency restores caps",
         lambda r: _starved_node_s(r["True"]) / _starved_node_s(r["False"]), below(1.0)),
        ("ablation.urgency.urgent_grants", "urgency restores caps",
         lambda r: float(sum(1 for t in r["True"].recorder.grants() if t.urgent)), above(0.0)),
    ),
    # Extensions beyond the paper (EXPERIMENTS.md).
    *_rows(
        "discovery", "§3.1 ext.", "extension", _seeds(9, 3, 3),
        ("ext.discovery.min_granted_w", "random discovery",
         lambda r: min(x.recorder.total_granted_w() for x in r.values()), above(0.0)),
        ("ext.discovery.max_runtime_dev", "random discovery",
         lambda r: max(abs(x.runtime_s / r["random"].runtime_s - 1.0) for x in r.values()),
         below(0.1)),
    ),
    *_rows(
        "allocation", "§2 ext.", "extension", FIGURES,
        ("ext.allocation.fair_recovered", "dynamic > static",
         lambda r: r["fair"].recovered_fraction(), Band(-0.02, 0.02, strict=True)),
        ("ext.allocation.slurm_recovered", "dynamic > static",
         lambda r: r["slurm"].recovered_fraction(), above(0.15)),
        ("ext.allocation.penelope_recovered", "dynamic > static",
         lambda r: r["penelope"].recovered_fraction(), above(0.15)),
        ("ext.allocation.final_dev_ratio", "dynamic > static",
         lambda r: max(r[m].mean_abs_deviation_w[-1] / r[m].even_split_deviation_w
                       for m in ("slurm", "penelope")), below(1.0)),
    ),
    *_rows(
        "ha", "§4.4 ext.", "extension", FIGURES,
        ("ext.ha.penelope_vs_ha", "fallback server",
         lambda r: r["penelope"].runtime_s / r["slurm-ha"].runtime_s, at_most(1.02)),
        ("ext.ha.ha_vs_slurm", "fallback server",
         lambda r: r["slurm-ha"].runtime_s / r["slurm"].runtime_s, below(1.0)),
        ("ext.ha.failovers_per_client", "fallback server",
         lambda r: (r["slurm-ha"].recorder.counters.get("slurm-ha.client.failovers", 0)
                    / r["slurm-ha"].spec.n_clients), at_least(0.8)),
    ),
    *_rows(
        "hardware", "§1 benefit 3", "extension", FIGURES,
        ("ext.hardware.cg_order", "no withheld nodes",
         lambda r: _ordering(r["CG"], ("penelope", "slurm", "slurm-ha")), above(1.0)),
        ("ext.hardware.ep_order", "no withheld nodes",
         lambda r: _ordering(r["EP"], ("slurm-ha", "slurm", "penelope")), above(1.0)),
        ("ext.hardware.max_spread", "no withheld nodes",
         lambda r: max(_spread(list(t.values())) for t in r.values()), below(1.10)),
    ),
    *_rows(
        "multijob", "§4.4 ext.", "extension", FIGURES,
        ("ext.multijob.slurm_cost", "fault hurts more",
         lambda r: r.degradation("slurm"), above(0.08)),
        ("ext.multijob.penelope_cost", "fault hurts more",
         lambda r: r.degradation("penelope"), below(0.05)),
        ("ext.multijob.cost_ratio", "fault hurts more",
         lambda r: r.degradation("slurm") / max(r.degradation("penelope"), 0.01), above(3.0)),
    ),
    *_rows(
        "socket_split", "§4.1 ext.", "extension", _seeds(6, 3),
        ("ext.socket_split.balanced_ratio", "per-socket RAPL",
         lambda r: r[(0.0, "even")] / r[(0.0, "proportional")], Band(0.99, 1.01)),
        ("ext.socket_split.imbalance_penalty", "per-socket RAPL",
         lambda r: r[(0.3, "even")] / r[(0.0, "even")], above(1.02)),
        ("ext.socket_split.proportional_gain", "per-socket RAPL",
         lambda r: r[(0.3, "proportional")] / r[(0.3, "even")], below(0.99)),
    ),
)


# -- running and reporting -----------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One row's outcome at one size: its per-seed values against its band."""

    claim: Claim
    band: Band
    values: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def passed(self) -> bool:
        return self.band.holds(self.mean)

    def line(self) -> str:
        c = self.claim
        seeds = f"{min(self.values):.4g} .. {max(self.values):.4g}"
        return (
            f"{c.id:<34} {c.figure:<13} {c.paper:<22} {str(self.band):<16} "
            f"{self.mean:>10.4g}  {seeds:<22} {len(self.values):>2}  "
            f"{'PASS' if self.passed else 'FAIL'}"
        )


HEADER = (
    f"{'id':<34} {'figure':<13} {'paper':<22} {'band':<16} "
    f"{'mean':>10}  {'seed min .. max':<22} {'n':>2}  verdict"
)


def run_claims(
    size: str = "bench", claims: Optional[Sequence[Claim]] = None, **runner_kwargs: Any
) -> List[Verdict]:
    """Judge every row of ``claims`` (default: :data:`CLAIMS`) at ``size``,
    in table order.

    Each experiment runs once per seed any of its rows needs and is
    dropped once every row reading it is reduced, so at most one
    experiment result is alive at a time.  ``runner_kwargs`` (``jobs``,
    ``cache_dir``, ``retry``, ...) pass through to every sweep.
    """
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    if claims is None:
        claims = CLAIMS
    values: Dict[str, List[float]] = {claim.id: [] for claim in claims}
    for name in dict.fromkeys(claim.experiment for claim in claims):
        readers = [claim for claim in claims if claim.experiment == name]
        for seed in sorted({s for claim in readers for s in claim.seeds[size]}):
            result = EXPERIMENTS[name](size == "paper", seed, runner_kwargs)
            for claim in readers:
                if seed in claim.seeds[size]:
                    values[claim.id].append(float(claim.reduce(result)))
    return [
        Verdict(claim, claim.band_at(size), tuple(values[claim.id])) for claim in claims
    ]


def format_claims(verdicts: Sequence[Verdict]) -> str:
    """The table ``repro claims`` prints: a header and one line per row."""
    return "\n".join([HEADER, *(verdict.line() for verdict in verdicts)])
