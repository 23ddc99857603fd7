#!/usr/bin/env python
"""The urgency mechanism (§3), isolated.

Scenario engineered to trigger it: node 0 runs DC (long I/O stretch, so
its decider donates most of its cap) followed by a compute burst; the
other nodes run EP and soak up everything node 0 released.  When node 0's
burst arrives there is no excess anywhere -- without urgency it crawls
back at getMaxSize watts per period; with urgency its requests force the
EP nodes above their initial caps to release, and node 0 recovers in a
couple of periods.

Run:  python examples/urgency_demo.py
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core import PenelopeConfig, PenelopeManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.phases import Phase, Workload

N = 6
CAP_W_PER_SOCKET = 80.0

#: Node 0: donate for 60 s, then need everything back for 60 s.
BURSTY = Workload(
    app="BURSTY",
    phases=(
        Phase("io", work_s=60.0, demand_w_per_socket=40.0, beta=0.3),
        Phase("burst", work_s=60.0, demand_w_per_socket=118.0, beta=0.95),
    ),
)
#: Everyone else: hungry compute with short communication dips -- the
#: kind of churn real workloads have.  During a dip a node releases its
#: headroom; with urgency node 0 can grab all of it in one transaction,
#: without urgency every grab is clipped to getMaxSize and the other
#: hungry nodes reclaim most of it first.
GREEDY = Workload(
    app="GREEDY",
    phases=tuple(
        Phase(
            name=("compute" if i % 2 == 0 else "exchange") + f"[{i}]",
            work_s=10.0 if i % 2 == 0 else 2.5,
            demand_w_per_socket=112.0 if i % 2 == 0 else 60.0,
            beta=0.9 if i % 2 == 0 else 0.4,
        )
        for i in range(24)
    ),
)


def run(enable_urgency: bool) -> None:
    engine = Engine()
    budget = CAP_W_PER_SOCKET * 2 * N
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=N, system_power_budget_w=budget),
        RngRegistry(seed=11),
    )
    config = PenelopeConfig(enable_urgency=enable_urgency)
    cluster.node(0).assign_workload(BURSTY, config.overhead_factor)
    for node_id in range(1, N):
        cluster.node(node_id).assign_workload(GREEDY, config.overhead_factor)
    manager = PenelopeManager(config=config)
    manager.install(cluster, client_ids=list(range(N)), budget_w=budget)
    manager.start()
    cluster.start_workloads()

    # Sample node 0's cap through the burst onset.
    initial = manager.initial_caps[0]
    samples = []
    recovered_at = None
    burst_at = None
    while engine.peek() != float("inf") and engine.now < 150.0:
        engine.run(until=min(engine.now + 1.0, 150.0))
        executor = cluster.node(0).executor
        cap = manager.deciders[0].cap_w
        in_burst = executor is not None and not executor.is_done and \
            executor.workload.phases[executor._phase_index].name == "burst"
        if in_burst and burst_at is None:
            burst_at = engine.now
        if burst_at is not None and recovered_at is None and cap >= initial - 1.0:
            recovered_at = engine.now
        samples.append((engine.now, cap))

    manager.audit().check()
    urgent_sent = manager.deciders[0].urgent_requests_sent
    induced = sum(
        1 for t in manager.recorder.transactions if t.kind == "induced-release"
    )
    label = "with urgency" if enable_urgency else "WITHOUT urgency"
    print(f"-- {label} --")
    print(f"  node 0 entered its burst at t~{burst_at:.0f}s with cap "
          f"{dict(samples)[min(dict(samples), key=lambda t: abs(t - burst_at))]:.1f} W "
          f"(initial {initial:.0f} W)")
    if recovered_at is not None:
        print(f"  cap back at its initial level after "
              f"{recovered_at - burst_at:.1f}s")
    else:
        print("  cap NEVER returned to the initial level in the window")
    print(f"  urgent requests sent: {urgent_sent}, induced releases: {induced}\n")


def main() -> None:
    print(f"{N} nodes, {CAP_W_PER_SOCKET:.0f} W/socket; node 0 donates then bursts\n")
    run(enable_urgency=True)
    run(enable_urgency=False)


if __name__ == "__main__":
    main()
