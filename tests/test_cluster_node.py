"""Unit tests for SimNode and the workload executor."""

from __future__ import annotations

import pytest

from repro.cluster.node import SimNode
from repro.power.domain import SKYLAKE_6126_NODE
from repro.sim.events import Handle
from repro.workloads.performance import runtime_at_constant_cap
from repro.workloads.phases import Phase, Workload

SPEC = SKYLAKE_6126_NODE


def workload(demand=110.0, work=10.0, beta=0.9, phases=1):
    return Workload(
        app="W",
        phases=tuple(
            Phase(f"p{i}", work_s=work, demand_w_per_socket=demand, beta=beta)
            for i in range(phases)
        ),
    )


@pytest.fixture
def node(engine, rng):
    return SimNode(
        engine, 0, SPEC, rng,
        initial_cap_w=160.0,
        enforcement_delay_s=(0.0, 0.0),
        reading_noise=0.0,
    )


class TestExecutor:
    def test_uncapped_runtime_equals_work(self, engine, node):
        node.assign_workload(workload(demand=70.0, work=10.0))
        node.rapl.set_cap(250.0)
        node.start_workload()
        engine.run(until=node.executor.done)
        assert node.executor.finished_at == pytest.approx(10.0)

    def test_capped_runtime_matches_closed_form(self, engine, node):
        w = workload(demand=110.0, work=10.0, beta=0.9, phases=3)
        node.assign_workload(w)
        node.start_workload()
        engine.run(until=node.executor.done)
        expected = runtime_at_constant_cap(w, 160.0, SPEC)
        assert node.executor.finished_at == pytest.approx(expected, rel=1e-6)

    def test_overhead_slows_execution(self, engine, node):
        node.assign_workload(workload(demand=70.0, work=10.0), overhead_factor=0.013)
        node.start_workload()
        engine.run(until=node.executor.done)
        assert node.executor.finished_at == pytest.approx(10.0 / (1 - 0.013))

    def test_consumption_reported_during_run(self, engine, node):
        node.assign_workload(workload(demand=110.0))
        node.start_workload()
        engine.run(until=1.0)
        # Demand 220 capped at 160.
        assert node.rapl.instantaneous_power_w == pytest.approx(160.0)

    def test_idle_after_completion(self, engine, node):
        node.assign_workload(workload(demand=70.0, work=1.0))
        node.start_workload()
        engine.run(until=node.executor.done)
        assert node.rapl.instantaneous_power_w == SPEC.idle_w

    def test_cap_change_mid_run_speeds_up(self, engine, node):
        w = workload(demand=110.0, work=30.0, beta=0.9)
        node.assign_workload(w)
        node.start_workload()
        engine.run(until=5.0)
        node.rapl.set_cap(250.0)  # lift the cap entirely
        engine.run(until=node.executor.done)
        capped = runtime_at_constant_cap(w, 160.0, SPEC)
        assert node.executor.finished_at < capped

    def test_cap_change_mid_run_slows_down(self, engine, node):
        w = workload(demand=110.0, work=10.0, beta=0.9)
        node.assign_workload(w)
        node.start_workload()
        engine.run(until=2.0)
        node.rapl.set_cap(80.0)
        engine.run(until=node.executor.done)
        uncapped = runtime_at_constant_cap(w, 160.0, SPEC)
        assert node.executor.finished_at > uncapped

    def test_progress_fraction(self, engine, node):
        node.assign_workload(workload(demand=70.0, work=5.0, phases=4))
        node.start_workload()
        assert node.executor.progress_fraction == 0.0
        engine.run(until=11.0)
        assert 0.0 < node.executor.progress_fraction < 1.0
        engine.run(until=node.executor.done)
        assert node.executor.progress_fraction == 1.0

    def test_double_start_rejected(self, engine, node):
        node.assign_workload(workload())
        node.start_workload()
        with pytest.raises(RuntimeError):
            node.executor.start()

    def test_invalid_overhead(self, engine, node):
        with pytest.raises(ValueError):
            node.assign_workload(workload(), overhead_factor=1.0)

    def test_settled_mirrors_done(self, engine, node):
        node.assign_workload(workload(demand=70.0, work=1.0))
        node.start_workload()
        engine.run(until=node.executor.settled)
        assert node.executor.done.triggered


    def test_cap_change_cancels_the_abandoned_segment(self, engine, node):
        node.assign_workload(workload(demand=110.0, work=30.0))
        node.start_workload()
        engine.run(until=5.0)
        cancelled_before = engine.cancelled_events
        node.rapl.set_cap(140.0)  # enforced at once: re-times the segment
        engine.run(until=6.0)
        assert engine.cancelled_events > cancelled_before
        # Drain the queue: the only live segment end is the one the
        # executor runs on; no other is left that nobody waits on.
        executor = node.executor
        live = []
        while (item := engine._scheduler.pop()) is not None:
            call = item[3]
            if isinstance(call, Handle) and call.name == "exec.segment":
                live.append(call)
        assert live == [executor._segment]


class TestKill:
    def test_kill_before_the_first_step(self, engine, node):
        node.assign_workload(workload(demand=110.0, work=10.0))
        node.start_workload()  # its first step is one queued hop away
        node.kill()
        engine.run(until=20.0)
        executor = node.executor
        assert not executor.is_running
        assert executor.finished_at is None and not executor.done.triggered
        assert executor.settled.triggered
        assert executor.progress_fraction == 0.0
        assert node.rapl.instantaneous_power_w == 0.0
        assert engine.cancelled_events == 0  # no segment was ever queued

    def test_kill_mid_segment_cancels_it(self, engine, node):
        node.assign_workload(workload(demand=110.0, work=10.0))
        node.start_workload()
        engine.run(until=5.0)
        cancelled_before = engine.cancelled_events
        node.kill()
        assert engine.cancelled_events == cancelled_before + 1
        node.rapl.set_cap(140.0)  # a later cap change resumes nothing
        engine.run(until=200.0)
        executor = node.executor
        assert not executor.is_running and executor.killed
        assert executor.finished_at is None and not executor.done.triggered
        assert node.rapl.instantaneous_power_w == 0.0

    def test_kill_stops_execution_and_zeroes_power(self, engine, node):
        node.assign_workload(workload(demand=110.0, work=100.0))
        node.start_workload()
        engine.run(until=5.0)
        node.kill()
        engine.run(until=10.0)
        assert node.executor.killed
        assert node.executor.finished_at is None
        assert node.rapl.instantaneous_power_w == 0.0
        assert not node.executor.done.triggered
        assert node.executor.settled.triggered

    def test_kill_before_start(self, engine, node):
        node.assign_workload(workload())
        node.kill()
        assert not node.alive
        assert node.executor.settled.triggered

    def test_kill_runs_on_kill_callbacks(self, engine, node):
        called = []
        node.on_kill.append(lambda: called.append(True))
        node.kill()
        assert called == [True]

    def test_double_kill_is_noop(self, engine, node):
        node.assign_workload(workload())
        node.start_workload()
        engine.run(until=1.0)
        node.kill()
        node.kill()
        assert not node.alive

    def test_kill_node_without_workload(self, engine, node):
        node.kill()
        assert node.rapl.instantaneous_power_w == 0.0


class TestAssignment:
    def test_double_assignment_rejected(self, engine, node):
        node.assign_workload(workload())
        with pytest.raises(RuntimeError):
            node.assign_workload(workload())

    def test_start_without_workload_rejected(self, engine, node):
        with pytest.raises(RuntimeError):
            node.start_workload()
