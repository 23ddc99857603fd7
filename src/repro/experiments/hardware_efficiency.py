"""Benefit 3, quantified: no node withheld for a coordinator.

§1 lists three benefits of the peer-to-peer design; the third is that it
"does not require withholding node(s) from the computing setup in order
to operate the central server."  The paper states but never measures it.

This experiment fixes the *hardware* (H nodes) and the *system power
budget* and asks how much work per second each design extracts:

* Penelope uses all H nodes as clients;
* SLURM computes on H-1 (one runs the server);
* HA SLURM computes on H-2 (primary + standby).

Every client runs an identical workload instance, so throughput is
``clients x work_per_client / makespan``.  Whether the extra node pays is
the classic overprovisioning trade-off (§1 cites Patki et al. [33]):
spreading the budget over more nodes wins when speed is strongly
*concave* in power (memory-bound apps like CG barely slow down when
capped), but loses for near-linear compute-bound apps (like EP), where
each extra node's idle power is a tax on the budget.  Measuring both
regimes shows when benefit 3 is worth real throughput and when it is
"only" the fault-tolerance and scalability argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

from repro.experiments.harness import RunSpec, extra_nodes, pair_workloads
from repro.experiments.runner import raise_on_failures, run_sweep
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class ThroughputResult:
    """Work extracted from fixed hardware under a fixed budget."""

    manager: str
    total_nodes: int
    compute_nodes: int
    makespan_s: float
    work_per_client_s: float

    @property
    def throughput(self) -> float:
        """Node-seconds of work completed per second of wall time."""
        return self.compute_nodes * self.work_per_client_s / self.makespan_s


def compare_hardware_efficiency(
    managers: Sequence[str] = ("penelope", "slurm", "slurm-ha"),
    total_nodes: int = 21,
    budget_w: float = 21 * 2 * 70.0,
    app: str = "EP",
    workload_scale: float = 0.5,
    seed: int = 0,
    **runner_kwargs: Any,
) -> Dict[str, ThroughputResult]:
    """Throughput of each of ``managers`` on fixed hardware and budget.

    Each manager's coordinator needs (0 / 1 / 2 nodes) come out of the
    compute pool; the whole ``budget_w`` is divided among the remaining
    clients.  ``runner_kwargs`` (``jobs``, ``cache_dir``, ...) pass
    through to :func:`run_sweep`.
    """
    clients = {manager: total_nodes - extra_nodes(manager) for manager in managers}
    if any(n < 2 for n in clients.values()):
        raise ValueError("not enough hardware left to compute on")
    specs = [
        RunSpec(
            manager, (app, app), budget_w / (2 * n), n_clients=n, seed=seed,
            workload_scale=workload_scale, record_caps=True,
        )
        for manager, n in clients.items()
    ]
    results = raise_on_failures(run_sweep(specs, **runner_kwargs), "hardware")
    throughputs = {}
    for spec, result in zip(specs, results):
        # Redrawn from the seed: the very workloads the run's clients got.
        draw = pair_workloads(spec.pair, spec.n_clients, workload_scale)(RngRegistry(seed))
        work = sum(workload.total_work_s for workload in draw.values())
        throughputs[spec.manager] = ThroughputResult(
            spec.manager, total_nodes, spec.n_clients, result.runtime_s, work / spec.n_clients
        )
    return throughputs


def format_hardware_efficiency(results: Dict[str, ThroughputResult]) -> str:
    """Text table: throughput per design on identical hardware + budget."""
    any_result = next(iter(results.values()))
    lines = [
        f"Benefit 3 quantified: {any_result.total_nodes} nodes of hardware, "
        "one shared power budget",
        f"{'system':>10} | {'compute nodes':>13} | {'makespan s':>10} | "
        f"{'throughput':>10}",
        "-" * 52,
    ]
    baseline = max(r.throughput for r in results.values())
    for manager, result in sorted(
        results.items(), key=lambda kv: -kv[1].throughput
    ):
        lines.append(
            f"{manager:>10} | {result.compute_nodes:>13} | "
            f"{result.makespan_s:>10.2f} | {result.throughput / baseline:>9.3f}x"
        )
    return "\n".join(lines)
