"""Unit tests for the trace-backed power source (§4.5 playback mode)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.trace_source import TracePowerSource
from repro.sim.engine import Engine
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


# -- the bisect lookup against np.searchsorted ---------------------------------

#: Strictly increasing breakpoints starting at 0, each with a level.
traces = st.lists(
    st.floats(min_value=0.0, max_value=1e4, exclude_min=True),
    max_size=12,
    unique=True,
).flatmap(
    lambda tail: st.lists(
        st.floats(min_value=0.0, max_value=400.0),
        min_size=len(tail) + 1,
        max_size=len(tail) + 1,
    ).map(lambda watts: PowerTrace(np.array([0.0, *sorted(tail)]), np.array(watts)))
)


def query_times(trace):
    """Times at and between breakpoints, ``t = 0`` and past the end."""
    end = trace.duration_s
    return st.one_of(
        st.sampled_from(trace.times.tolist()),
        st.just(0.0),
        st.floats(min_value=0.0, max_value=end),
        st.floats(min_value=end, max_value=end + 1e4),
    )


class SearchsortedSource(TracePowerSource):
    """The lookup through ``PowerTrace``'s own ``np.searchsorted`` methods."""

    def _segment(self, t):
        return self.trace.demand_at(t), self.trace.next_change_after(t)


class TestBisectLookup:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), trace=traces)
    def test_same_level_and_next_change(self, data, trace):
        source = TracePowerSource(Engine(), SKYLAKE_6126_NODE, trace)
        reference = SearchsortedSource(Engine(), SKYLAKE_6126_NODE, trace)
        for t in data.draw(st.lists(query_times(trace), min_size=1, max_size=20)):
            assert source._segment(t) == reference._segment(t)

    @settings(max_examples=60, deadline=None)
    @given(
        trace=traces,
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3e3),
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=400.0)),
            ),
            max_size=25,
        ),
    )
    def test_read_and_cap_sequence_gives_identical_floats(self, trace, steps):
        """Each step advances the clock by ``dt``, then writes a cap (or
        reads power when the cap is ``None``); both paths agree exactly."""
        runs = []
        for cls in (TracePowerSource, SearchsortedSource):
            engine = Engine()
            source = cls(engine, SKYLAKE_6126_NODE, trace, initial_cap_w=140.0)
            out = []
            for dt, cap_w in steps:
                engine.run(until=engine.now + dt)
                out.append(source.read_power() if cap_w is None else source.set_cap(cap_w))
            out.append(source._acc_energy_j)
            runs.append(out)
        assert runs[0] == runs[1]
