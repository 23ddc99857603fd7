"""Property-based tests: the §2.1 budget constraints hold under arbitrary
workload mixes, caps and inspection times, for every dynamic manager.

These are the paper's two hard requirements -- (1) the node-level caps
(plus cached and in-flight power) never exceed the system-wide cap, and
(2) every node cap stays inside the safe window -- checked at random
instants of randomized runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import RunSpec, build_run
from repro.workloads.apps import APP_NAMES

app_names = st.sampled_from(APP_NAMES)


@st.composite
def run_specs(draw, manager):
    first = draw(app_names)
    second = draw(app_names.filter(lambda a: a != first))
    return RunSpec(
        manager=manager,
        pair=(first, second),
        cap_w_per_socket=draw(
            st.sampled_from([60.0, 70.0, 80.0, 90.0, 100.0])
        ),
        n_clients=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 10_000)),
        workload_scale=0.08,
    )


def check_run_invariants(spec: RunSpec, inspection_times):
    engine, cluster, manager = build_run(spec)
    manager.start()
    cluster.start_workloads()
    spec_limits = cluster.config.spec
    for t in sorted(inspection_times):
        engine.run(until=t)
        audit = manager.audit()
        audit.check()
        for node_id in manager.client_ids:
            cap = cluster.node(node_id).rapl.cap_w
            assert spec_limits.is_safe_cap(cap)


times = st.lists(st.floats(0.1, 15.0), min_size=1, max_size=5)


class TestBudgetInvariants:
    @given(spec=run_specs("penelope"), inspection_times=times)
    @settings(max_examples=15, deadline=None)
    def test_penelope_budget_and_safety(self, spec, inspection_times):
        check_run_invariants(spec, inspection_times)

    @given(spec=run_specs("slurm"), inspection_times=times)
    @settings(max_examples=15, deadline=None)
    def test_slurm_budget_and_safety(self, spec, inspection_times):
        check_run_invariants(spec, inspection_times)

    @given(
        spec=run_specs("penelope"),
        kill_node=st.integers(0, 1),
        kill_at=st.floats(0.5, 8.0),
        inspection_times=times,
    )
    @settings(max_examples=10, deadline=None)
    def test_penelope_budget_survives_node_failure(
        self, spec, kill_node, kill_at, inspection_times
    ):
        from repro.cluster.faults import FaultPlan

        engine, cluster, manager = build_run(spec)
        FaultPlan().kill(kill_node, kill_at).install(cluster)
        manager.start()
        cluster.start_workloads()
        for t in sorted(inspection_times):
            engine.run(until=t)
            manager.audit().check()
