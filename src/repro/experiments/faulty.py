"""§4.4 / Figure 3: performance with faulty power management.

The same sweep as Figure 2, but a node failure is induced partway through
every run:

* for **SLURM**, the server node dies -- caps freeze at their (uneven)
  values, and every client keeps paying decider overhead for nothing;
* for **Penelope**, one client node dies -- the paper's point is that no
  single node is special, so this is the worst a node failure can do;
* **Fair** has no moving parts to fail and is unaffected.

Runtime for a run with a dead compute node is the makespan of the
surviving nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.analysis.stats import normalized_performance
from repro.cluster.faults import FaultPlan
from repro.experiments.harness import needs_server_node
from repro.experiments.nominal import (
    DEFAULT_SYSTEMS,
    PAPER_CAPS_W_PER_SOCKET,
    NominalResult,
    cell_specs,
)
from repro.experiments.runner import raise_on_failures, run_sweep
from repro.workloads.apps import APP_NAMES, build_app
from repro.workloads.generator import unique_pairs
from repro.workloads.performance import runtime_at_constant_cap
from repro.power.domain import SKYLAKE_6126_NODE

#: When the failure strikes, as a fraction of the predicted Fair runtime.
DEFAULT_FAILURE_FRACTION = 0.33


@functools.lru_cache(maxsize=None)
def predict_fair_runtime_s(
    pair: Tuple[str, str], cap_w_per_socket: float, workload_scale: float = 1.0
) -> float:
    """Closed-form Fair makespan estimate used to place the failure.

    A pure function of its arguments, memoized: a sweep asks once per
    faulted system of each (pair, cap), and every replay of the sweep
    asks again, but each distinct point builds its two apps only once.
    """
    spec = SKYLAKE_6126_NODE
    cap = cap_w_per_socket * spec.sockets
    return max(
        runtime_at_constant_cap(build_app(app, scale=workload_scale), cap, spec)
        for app in pair
    )


def fault_plan_for(
    manager: str,
    pair: Tuple[str, str],
    cap_w_per_socket: float,
    n_clients: int,
    workload_scale: float = 1.0,
    failure_fraction: float = DEFAULT_FAILURE_FRACTION,
    victim_client: int = 0,
) -> Optional[FaultPlan]:
    """The §4.4 failure for ``manager`` (None for Fair)."""
    if manager == "fair":
        return None
    at = failure_fraction * predict_fair_runtime_s(
        pair, cap_w_per_socket, workload_scale
    )
    plan = FaultPlan()
    if needs_server_node(manager):
        # The server node is the first non-client id (harness convention).
        plan.kill(n_clients, at)
    else:
        plan.kill(victim_client, at)
    return plan


@dataclass
class FaultyResult(NominalResult):
    """Normalized performances under induced failures."""

    def penelope_advantage_over_slurm(self) -> float:
        """The paper's headline: 8-15% mean gain for Penelope (§4.4)."""
        return self.overall_geomean("penelope") / self.overall_geomean("slurm") - 1.0


def run_faulty_sweep(
    caps: Sequence[float] = PAPER_CAPS_W_PER_SOCKET,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    n_clients: int = 20,
    seed: int = 0,
    workload_scale: float = 1.0,
    failure_fraction: float = DEFAULT_FAILURE_FRACTION,
    **runner_kwargs: Any,
) -> FaultyResult:
    """Run the Figure 3 sweep: every run suffers its §4.4 failure.

    The failure instant comes from the *predicted* Fair runtime (a closed
    form), not the measured one, so the whole sweep -- Fair baselines and
    faulted runs alike -- is known up-front and fans out through
    :func:`~repro.experiments.runner.run_sweep`, which receives every
    extra keyword.
    """
    pair_list = list(pairs) if pairs is not None else unique_pairs(APP_NAMES)
    result = FaultyResult(
        caps=tuple(caps), systems=tuple(systems), pairs=tuple(pair_list)
    )
    slots, specs = cell_specs(
        caps,
        pair_list,
        systems,
        n_clients,
        seed,
        workload_scale,
        fault_plan=lambda system, cap, pair: fault_plan_for(
            system,
            pair,
            cap,
            n_clients,
            workload_scale=workload_scale,
            failure_fraction=failure_fraction,
        ),
    )
    runs = raise_on_failures(run_sweep(specs, **runner_kwargs), context="faulty sweep")

    by_slot = dict(zip(slots, runs))
    for cap in caps:
        for pair in pair_list:
            fair = by_slot[("fair", cap, pair)]
            result.fair_runtimes[(cap, pair)] = fair.runtime_s
            for system in systems:
                run = by_slot[(system, cap, pair)]
                result.normalized[(system, cap, pair)] = normalized_performance(
                    run.runtime_s, fair.runtime_s
                )
    return result
