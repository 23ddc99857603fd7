"""Property-based tests: workload, trace and performance-model invariants."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import geometric_mean
from repro.analysis.timeseries import time_to_fraction
from repro.power.domain import SKYLAKE_6126_NODE
from repro.sim.rng import RngRegistry
from repro.workloads.apps import APP_NAMES, build_app, get_app_model
from repro.workloads.performance import (
    runtime_at_constant_cap,
    speed_under_cap,
)
from repro.workloads.phases import Phase
from repro.workloads.traces import trace_from_workload

SPEC = SKYLAKE_6126_NODE

caps = st.floats(SPEC.min_cap_w, SPEC.max_cap_w)
demands = st.floats(SPEC.idle_w + 1.0, SPEC.max_cap_w)
betas = st.floats(0.1, 1.0)


class TestSpeedModelProperties:
    @given(cap=caps, demand=demands, beta=betas)
    def test_speed_in_unit_interval(self, cap, demand, beta):
        speed = speed_under_cap(cap, demand, SPEC.idle_w, beta)
        assert 0.0 < speed <= 1.0

    @given(cap_a=caps, cap_b=caps, demand=demands, beta=betas)
    def test_speed_monotone_in_cap(self, cap_a, cap_b, demand, beta):
        lo, hi = sorted((cap_a, cap_b))
        assert speed_under_cap(lo, demand, SPEC.idle_w, beta) <= speed_under_cap(
            hi, demand, SPEC.idle_w, beta
        )

    @given(cap=caps, demand=demands, beta_a=betas, beta_b=betas)
    def test_smaller_beta_never_slower(self, cap, demand, beta_a, beta_b):
        lo, hi = sorted((beta_a, beta_b))
        assert speed_under_cap(cap, demand, SPEC.idle_w, lo) >= speed_under_cap(
            cap, demand, SPEC.idle_w, hi
        )


class TestRuntimeProperties:
    @given(app=st.sampled_from(APP_NAMES), cap_a=caps, cap_b=caps,
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_runtime_monotone_decreasing_in_cap(self, app, cap_a, cap_b, seed):
        workload = build_app(app, rng=np.random.default_rng(seed), scale=0.2)
        lo, hi = sorted((cap_a, cap_b))
        assert runtime_at_constant_cap(workload, hi, SPEC) <= runtime_at_constant_cap(
            workload, lo, SPEC
        )

    @given(app=st.sampled_from(APP_NAMES), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_runtime_never_below_total_work(self, app, seed):
        workload = build_app(app, rng=np.random.default_rng(seed), scale=0.2)
        runtime = runtime_at_constant_cap(workload, SPEC.max_cap_w, SPEC)
        assert runtime >= workload.total_work_s - 1e-9


def scalar_jitter(name, rng, scale):
    """``(work_s, demand_w_per_socket)`` per phase, one ``uniform`` per factor.

    The per-phase draw loop ``build_app`` replaced with one vectorised
    draw, kept verbatim as the reference the vectorised draw must match.
    """
    model = get_app_model(name)
    cycle_work = model.nominal_runtime_s * scale / model.n_cycles
    values = []
    for _ in range(model.n_cycles):
        for template in model.cycle:
            work = cycle_work * template.runtime_fraction
            demand = template.demand_w_per_socket
            work *= 1.0 + float(rng.uniform(-0.05, 0.05))
            demand *= 1.0 + float(rng.uniform(-0.02, 0.02))
            values.append((work, demand))
    return values


class TestJitterDraw:
    @pytest.mark.parametrize("app", APP_NAMES)
    @pytest.mark.parametrize("scale", [1.0, 0.25, 0.05, 3.7])
    @pytest.mark.parametrize("seed", [0, 7, 2022])
    def test_one_call_draw_is_bit_identical_to_scalar_draws(self, app, scale, seed):
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        workload = build_app(app, rng=rng, scale=scale)
        expected = scalar_jitter(app, reference, scale)
        actual = [(phase.work_s, phase.demand_w_per_socket) for phase in workload.phases]
        assert [(w.hex(), d.hex()) for w, d in actual] == [
            (w.hex(), d.hex()) for w, d in expected
        ]
        # Both streams stand at the same position afterwards.
        assert rng.random() == reference.random()

    @given(app=st.sampled_from(APP_NAMES), seed=st.integers(0, 2**31 - 1),
           scale=st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_registry_streams_match_scalar_draws(self, app, seed, scale):
        # Runs draw jitter from RngRegistry streams: the same property on
        # the seeding path every experiment takes.
        rng = RngRegistry(seed).stream("workloads")
        reference = RngRegistry(seed).stream("workloads")
        workload = build_app(app, rng=rng, scale=scale)
        expected = scalar_jitter(app, reference, scale)
        assert [(p.work_s, p.demand_w_per_socket) for p in workload.phases] == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_phase_names_are_shared_across_instances(self):
        first = build_app("UA", rng=np.random.default_rng(1))
        second = build_app("UA", rng=np.random.default_rng(2), scale=0.5)
        assert [p.name for p in first.phases][:4] == [
            "adapt[0]", "solve[0]", "refine[0]", "adapt[1]",
        ]
        assert all(a.name is b.name for a, b in zip(first.phases, second.phases))


class TestWorkloadCopies:
    """Phases are slotted frozen dataclasses; copies must still round-trip."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_pickle_and_deepcopy_round_trip(self, app):
        workload = build_app(app, rng=np.random.default_rng(5), scale=0.3)
        for clone in (
            pickle.loads(pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)),
            pickle.loads(pickle.dumps(workload, protocol=2)),
            copy.deepcopy(workload),
            copy.copy(workload),
        ):
            assert clone == workload
            assert clone.phases == workload.phases
            assert hash(clone.phases[0]) == hash(workload.phases[0])

    def test_phase_has_no_instance_dict(self):
        phase = Phase("compute", 1.0, 100.0)
        assert not hasattr(phase, "__dict__")
        with pytest.raises(AttributeError):
            phase.work_s = 2.0  # type: ignore[misc]


class TestTraceProperties:
    @given(app=st.sampled_from(APP_NAMES), seed=st.integers(0, 1000),
           t=st.floats(0.0, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_trace_matches_workload_phase_demand(self, app, seed, t):
        workload = build_app(app, rng=np.random.default_rng(seed), scale=0.3)
        trace = trace_from_workload(workload, SPEC)
        if t < workload.total_work_s:
            expected = workload.phase_at_full_speed_time(t).demand_w(SPEC)
        else:
            expected = SPEC.idle_w
        assert trace.demand_at(t) == expected

    @given(app=st.sampled_from(APP_NAMES), seed=st.integers(0, 1000),
           offset=st.floats(0.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_preserves_levels(self, app, seed, offset):
        workload = build_app(app, rng=np.random.default_rng(seed), scale=0.2)
        trace = trace_from_workload(workload, SPEC)
        shifted = trace.shifted(offset)
        for t in (0.0, workload.total_work_s / 2, workload.total_work_s + 1):
            assert shifted.demand_at(t + offset) == trace.demand_at(t)


class TestMetricProperties:
    @given(
        events=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.1, 50.0)),
            min_size=1,
            max_size=30,
        ),
        frac_a=st.floats(0.1, 1.0),
        frac_b=st.floats(0.1, 1.0),
    )
    def test_time_to_fraction_monotone_in_fraction(self, events, frac_a, frac_b):
        total = sum(w for _, w in events)
        lo, hi = sorted((frac_a, frac_b))
        assert time_to_fraction(events, total, lo) <= time_to_fraction(
            events, total, hi
        )

    @given(values=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30))
    def test_geomean_bounded_by_extremes(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9
