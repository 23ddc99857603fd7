"""Unit tests for the trace-backed power source (§4.5 playback mode)."""

from __future__ import annotations

import pytest

from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.trace_source import TracePowerSource
from repro.workloads.traces import PowerTrace, constant_trace, step_release_trace


@pytest.fixture
def step_source(engine):
    trace = step_release_trace(busy_w=190.0, finish_at_s=5.0, idle_w=30.0)
    return TracePowerSource(engine, SKYLAKE_6126_NODE, trace, initial_cap_w=140.0)


class TestCaps:
    def test_enforcement_is_immediate(self, step_source):
        step_source.set_cap(100.0)
        assert step_source.effective_cap_w == 100.0

    def test_clamping(self, step_source):
        assert step_source.set_cap(10.0) == 60.0
        assert step_source.set_cap(999.0) == 250.0

    def test_default_cap_is_max(self, engine):
        source = TracePowerSource(engine, SKYLAKE_6126_NODE, constant_trace(100.0))
        assert source.cap_w == SKYLAKE_6126_NODE.max_cap_w


class TestPlayback:
    def test_demand_follows_trace(self, engine, step_source):
        assert step_source.demand_now_w == 190.0
        engine.run(until=6.0)
        assert step_source.demand_now_w == 30.0

    def test_consumption_respects_cap(self, engine, step_source):
        # Busy demand 190 W against a 140 W cap -> draws 140 W.
        assert step_source.instantaneous_power_w == 140.0
        engine.run(until=6.0)
        # After finish only idle power flows.
        assert step_source.instantaneous_power_w == 30.0

    def test_read_average_over_demand_change(self, engine, step_source):
        step_source.read_power()
        engine.run(until=10.0)
        # 5 s at min(190,140)=140 plus 5 s at idle 30 -> 85 average.
        assert step_source.read_power() == pytest.approx(85.0)

    def test_read_average_over_cap_change(self, engine):
        source = TracePowerSource(
            engine, SKYLAKE_6126_NODE, constant_trace(200.0), initial_cap_w=100.0
        )
        source.read_power()
        engine.run(until=2.0)
        source.set_cap(150.0)
        engine.run(until=4.0)
        # 2 s at 100 W + 2 s at 150 W -> 125 W.
        assert source.read_power() == pytest.approx(125.0)

    def test_zero_window_read_is_instantaneous(self, engine, step_source):
        step_source.read_power()
        assert step_source.read_power() == pytest.approx(140.0)

    def test_idle_floor_applies(self, engine):
        source = TracePowerSource(
            engine, SKYLAKE_6126_NODE, constant_trace(10.0), initial_cap_w=100.0
        )
        # Demand below idle is clipped up to the idle floor.
        assert source.instantaneous_power_w == SKYLAKE_6126_NODE.idle_w

    def test_counters(self, engine, step_source):
        step_source.read_power()
        step_source.set_cap(100.0)
        assert step_source.power_reads == 1
        assert step_source.cap_writes == 1
