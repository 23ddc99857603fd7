#!/usr/bin/env python
"""Extending the library: a custom workload under every manager.

Builds a *coupled* two-stage pipeline workload: a producer running
simulation steps and a consumer running analysis, with very different
power appetites.  Every manager starts from the even split; Fair keeps
it, while SLURM and Penelope shift power from consumers to producers.

Run:  python examples/custom_workload.py
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.experiments.harness import make_manager, needs_server_node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.phases import Phase, Workload

N_PRODUCERS = 5
N_CONSUMERS = 5
CAP_W_PER_SOCKET = 75.0

#: Producer: compute-dominated simulation steps.
PRODUCER = Workload(
    app="SIM",
    phases=tuple(
        Phase(f"step[{i}]", work_s=12.0, demand_w_per_socket=112.0, beta=0.9)
        for i in range(8)
    ),
)
#: Consumer: alternating light decode and medium analysis.
CONSUMER = Workload(
    app="ANALYZE",
    phases=tuple(
        Phase(
            name=("decode" if i % 2 == 0 else "analyze") + f"[{i}]",
            work_s=12.0,
            demand_w_per_socket=55.0 if i % 2 == 0 else 80.0,
            beta=0.45,
        )
        for i in range(8)
    ),
)


def run(manager_name: str) -> float:
    n_clients = N_PRODUCERS + N_CONSUMERS
    extra = 1 if needs_server_node(manager_name) else 0
    engine = Engine()
    budget = CAP_W_PER_SOCKET * 2 * n_clients
    cluster = Cluster(
        engine,
        ClusterConfig(
            n_nodes=n_clients + extra,
            system_power_budget_w=budget * (n_clients + extra) / n_clients,
        ),
        RngRegistry(seed=5),
    )
    manager = make_manager(manager_name)
    for node_id in range(N_PRODUCERS):
        cluster.node(node_id).assign_workload(PRODUCER, manager.config.overhead_factor)
    for node_id in range(N_PRODUCERS, n_clients):
        cluster.node(node_id).assign_workload(CONSUMER, manager.config.overhead_factor)
    manager.install(cluster, client_ids=list(range(n_clients)), budget_w=budget)
    manager.start()
    runtime = cluster.run_to_completion()
    manager.audit().check()
    manager.stop()
    return runtime


def main() -> None:
    print(f"coupled pipeline: {N_PRODUCERS} producers (hot) + "
          f"{N_CONSUMERS} consumers (cool), {CAP_W_PER_SOCKET:.0f} W/socket\n")
    fair = run("fair")
    results = {"fair": fair}
    for manager in ("slurm", "penelope"):
        results[manager] = run(manager)
    print(f"\n{'system':>10} | {'runtime s':>10} | {'vs Fair':>8}")
    print("-" * 34)
    for manager, runtime in results.items():
        print(f"{manager:>10} | {runtime:>10.2f} | {fair / runtime:>7.3f}x")
    print("\nThe dynamic systems move the consumers' unused watts to the")
    print("producers, which the static even split leaves stranded.")


if __name__ == "__main__":
    main()
