"""Allocation quality: how close does shifting get to the oracle split?

The point of dynamic power management is to approximate, online and
without global knowledge, the allocation an oracle with offline profiles
would choose.  A water-filling split of the budget over the workloads'
mean demands (:func:`proportional_caps`, the profile-proportional
assignment of PoDD-style hierarchical managers) is that oracle, which
gives a yardstick for everyone else:

* **Fair** stays at the even split -- its distance to the oracle is the
  total mis-allocation dynamic systems can recover;
* **SLURM** and **Penelope** should close most of that distance within a
  few decider periods and hold it (§3.3 predicts the centralized system
  converges somewhat faster at low scale).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.harness import RunSpec, build_run
from repro.experiments.runner import TaskKind, raise_on_failures, run_sweep
from repro.managers.base import ManagerConfig


@dataclass(frozen=True)
class AllocationTrace:
    """Mean |cap - oracle| per node over time, for one run."""

    manager: str
    times: np.ndarray
    mean_abs_deviation_w: np.ndarray
    oracle: Dict[int, float]
    even_split_deviation_w: float

    def steady_state_deviation_w(self, tail_fraction: float = 0.25) -> float:
        """Mean deviation over the last ``tail_fraction`` of the window."""
        if not (0.0 < tail_fraction <= 1.0):
            raise ValueError("tail_fraction must lie in (0, 1]")
        tail = max(1, int(round(self.times.size * tail_fraction)))
        return float(self.mean_abs_deviation_w[-tail:].mean())

    def recovered_fraction(self, tail_fraction: float = 0.25) -> float:
        """Share of Fair's mis-allocation this manager eliminated (1 =
        reached the oracle, 0 = no better than the even split)."""
        if self.even_split_deviation_w == 0:
            return 1.0
        return 1.0 - self.steady_state_deviation_w(tail_fraction) / (
            self.even_split_deviation_w
        )


def proportional_caps(
    demands_w: Dict[int, float],
    budget_w: float,
    min_cap_w: float,
    max_cap_w: float,
) -> Dict[int, float]:
    """Split ``budget_w`` across nodes proportionally to their demand.

    Uses iterative water-filling so clamping one node into the safe window
    redistributes the difference over the others instead of violating the
    budget or starving anyone below the safe minimum.
    """
    if not demands_w:
        raise ValueError("no nodes to assign")
    n = len(demands_w)
    if budget_w < n * min_cap_w - 1e-9:
        raise ValueError(
            f"budget {budget_w:.1f} W cannot give {n} nodes the safe minimum"
        )
    caps = {node: min_cap_w for node in demands_w}
    remaining = budget_w - n * min_cap_w
    # Nodes still able to absorb more power, with their desire above the
    # amount already assigned.
    open_nodes = {
        node: max(0.0, min(demands_w[node], max_cap_w) - min_cap_w)
        for node in demands_w
    }
    for _ in range(n):
        active = {node: want for node, want in open_nodes.items() if want > 1e-12}
        if remaining <= 1e-12 or not active:
            break
        total_want = sum(active.values())
        scale = min(1.0, remaining / total_want)
        for node, want in active.items():
            grant = want * scale
            caps[node] += grant
            open_nodes[node] = want - grant
            remaining -= grant
    # Any budget left over (everyone saturated) is simply not assigned --
    # power management systems "do not need to fully utilize the
    # system-wide powercap" (§2.2.2).
    return caps


def oracle_allocation(cluster, client_ids: Sequence[int], budget_w: float) -> Dict[int, float]:
    """The offline-profile water-filling split of ``budget_w``."""
    spec = cluster.config.spec
    demands = {
        node_id: (
            cluster.node(node_id).executor.workload.mean_demand_w(spec)
            if cluster.node(node_id).executor is not None
            else spec.min_cap_w
        )
        for node_id in client_ids
    }
    return proportional_caps(demands, budget_w, spec.min_cap_w, spec.max_cap_w)


@dataclass(frozen=True)
class AllocationSpec:
    """One allocation-quality measurement, fully described."""

    manager: str
    pair: Tuple[str, str] = ("EP", "DC")
    cap_w_per_socket: float = 65.0
    n_clients: int = 10
    seed: int = 0
    workload_scale: float = 0.5
    observe_s: float = 30.0
    sample_every_s: float = 1.0
    manager_config: Optional[ManagerConfig] = None

    def __post_init__(self) -> None:
        if self.observe_s <= 0 or self.sample_every_s <= 0:
            raise ValueError("observation times must be positive")


def run_allocation_point(spec: AllocationSpec) -> AllocationTrace:
    """Run ``spec.manager`` and sample its caps' distance to the oracle.

    Observation stops at ``spec.observe_s`` (well before any workload
    ends, so the oracle stays meaningful throughout).
    """
    run_spec = RunSpec(
        spec.manager,
        spec.pair,
        spec.cap_w_per_socket,
        n_clients=spec.n_clients,
        seed=spec.seed,
        workload_scale=spec.workload_scale,
        manager_config=spec.manager_config,
    )
    engine, cluster, manager = build_run(run_spec)
    oracle = oracle_allocation(cluster, manager.client_ids, run_spec.budget_w)
    even = run_spec.budget_w / spec.n_clients
    even_deviation = float(
        np.mean([abs(even - oracle[node]) for node in manager.client_ids])
    )
    manager.start()
    cluster.start_workloads()
    times: List[float] = []
    deviations: List[float] = []
    t = 0.0
    while t < spec.observe_s:
        t += spec.sample_every_s
        engine.run(until=t)
        deviation = float(
            np.mean(
                [
                    abs(cluster.node(node).rapl.cap_w - oracle[node])
                    for node in manager.client_ids
                ]
            )
        )
        times.append(t)
        deviations.append(deviation)
    # Each sample pauses the run, which keeps the collector policy held
    # between samples; observation is over, so give it back.
    engine.release_gc_hold()
    manager.audit().check()
    return AllocationTrace(
        manager=spec.manager,
        times=np.array(times),
        mean_abs_deviation_w=np.array(deviations),
        oracle=oracle,
        even_split_deviation_w=even_deviation,
    )


#: :func:`run_allocation_point` as a sweep-runner task kind.
ALLOCATION_RUN = TaskKind(
    "allocation", run_allocation_point, AllocationSpec, AllocationTrace
)


def compare_allocation_quality(
    managers: Sequence[str] = ("fair", "slurm", "penelope"),
    template: Optional[AllocationSpec] = None,
    **runner_kwargs: Any,
) -> Dict[str, AllocationTrace]:
    """Allocation traces for several managers under identical conditions.

    One spec per manager -- ``template`` (default: the
    :class:`AllocationSpec` defaults) with its manager replaced -- fanned
    out (and cached) through :func:`~repro.experiments.runner.run_sweep`,
    which receives every extra keyword.
    """
    specs = [
        replace(template, manager=manager) if template else AllocationSpec(manager)
        for manager in managers
    ]
    traces = raise_on_failures(
        run_sweep(specs, kind=ALLOCATION_RUN, **runner_kwargs),
        context="allocation comparison",
    )
    return dict(zip(managers, traces))


def format_allocation(traces: Dict[str, AllocationTrace]) -> str:
    """Text table: steady-state oracle distance and recovered fraction."""
    any_trace = next(iter(traces.values()))
    lines = [
        "Allocation quality: distance from the offline-oracle split "
        f"(even split starts {any_trace.even_split_deviation_w:.1f} W/node away)",
        f"{'system':>10} | {'steady dev W':>12} | {'recovered':>9}",
        "-" * 38,
    ]
    for manager, trace in sorted(traces.items()):
        lines.append(
            f"{manager:>10} | {trace.steady_state_deviation_w():>12.2f} | "
            f"{100 * trace.recovered_fraction():>8.1f}%"
        )
    return "\n".join(lines)
