"""Unit tests for the NPB application models."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.power.domain import SKYLAKE_6126_NODE
from repro.workloads.apps import (
    APP_MODELS,
    APP_NAMES,
    AppModel,
    PhaseTemplate,
    _shape,
    build_app,
    build_apps,
    get_app_model,
)
from repro.workloads.generator import assign_pair_to_cluster
from repro.workloads.phases import Phase, Workload

SPEC = SKYLAKE_6126_NODE


class TestCatalogue:
    def test_nine_apps_is_omitted(self):
        assert len(APP_NAMES) == 9
        assert "IS" not in APP_NAMES  # §4.1: IS does not compile past class C
        assert set(APP_NAMES) == {"BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "DC"}

    def test_runtime_band_matches_paper(self):
        # §4.1: every app >= 40 s, all but one >= two minutes.
        runtimes = {name: APP_MODELS[name].nominal_runtime_s for name in APP_NAMES}
        assert all(rt >= 40.0 for rt in runtimes.values())
        under_two_minutes = [name for name, rt in runtimes.items() if rt < 120.0]
        assert len(under_two_minutes) == 1

    def test_cycle_fractions_sum_to_one(self):
        for model in APP_MODELS.values():
            assert sum(t.runtime_fraction for t in model.cycle) == pytest.approx(1.0)

    def test_power_diversity(self):
        # EP is the hungriest; DC the most modest (the system's donor).
        means = {n: APP_MODELS[n].mean_demand_w_per_socket for n in APP_NAMES}
        assert max(means, key=means.get) == "EP"
        assert min(means, key=means.get) == "DC"

    def test_get_app_model_case_insensitive(self):
        assert get_app_model("ep").name == "EP"

    def test_get_app_model_unknown(self):
        with pytest.raises(KeyError, match="unknown application"):
            get_app_model("IS")


class TestBuildApp:
    def test_nominal_instance_is_deterministic(self):
        a, b = build_app("FT"), build_app("FT")
        assert a.total_work_s == b.total_work_s
        assert [p.demand_w_per_socket for p in a.phases] == [
            p.demand_w_per_socket for p in b.phases
        ]

    def test_nominal_runtime_matches_model(self):
        for name in APP_NAMES:
            workload = build_app(name)
            assert workload.total_work_s == pytest.approx(
                APP_MODELS[name].nominal_runtime_s
            )

    def test_scale_shrinks_runtime(self):
        full = build_app("LU")
        short = build_app("LU", scale=0.1)
        assert short.total_work_s == pytest.approx(full.total_work_s * 0.1)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            build_app("LU", scale=0.0)

    def test_jitter_perturbs_instances(self):
        rng = np.random.default_rng(0)
        a = build_app("CG", rng=rng)
        b = build_app("CG", rng=rng)
        assert a.total_work_s != b.total_work_s

    def test_jitter_reproducible_from_seed(self):
        a = build_app("CG", rng=np.random.default_rng(5))
        b = build_app("CG", rng=np.random.default_rng(5))
        assert a.total_work_s == b.total_work_s

    def test_jitter_is_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            workload = build_app("SP", rng=rng)
            assert workload.total_work_s == pytest.approx(280.0, rel=0.06)

    def test_jitter_disabled(self):
        workload = build_app("CG", rng=np.random.default_rng(0), jitter=False)
        assert workload.total_work_s == pytest.approx(210.0)

    def test_phase_count(self):
        model = APP_MODELS["BT"]
        workload = build_app("BT")
        assert workload.n_phases == model.n_cycles * len(model.cycle)

    def test_demands_within_physical_range(self):
        for name in APP_NAMES:
            workload = build_app(name, rng=np.random.default_rng(2))
            for phase in workload.phases:
                demand = phase.demand_w(SPEC)
                assert SPEC.idle_w <= demand <= SPEC.max_cap_w


def checked_app(name, rng, scale):
    """An instance built phase by phase through ``Phase(...)`` and its
    checks, drawing one scalar ``uniform`` per factor: the reference the
    trusted, one-draw builder must reproduce."""
    model = get_app_model(name)
    cycle_work = model.nominal_runtime_s * scale / model.n_cycles
    phases = []
    for cycle_index in range(model.n_cycles):
        for template in model.cycle:
            work = cycle_work * template.runtime_fraction
            demand = template.demand_w_per_socket
            if rng is not None:
                work *= 1.0 + float(rng.uniform(-0.05, 0.05))
                demand *= 1.0 + float(rng.uniform(-0.02, 0.02))
            phases.append(
                Phase(
                    name=f"{template.name}[{cycle_index}]",
                    work_s=work,
                    demand_w_per_socket=demand,
                    beta=template.beta,
                )
            )
    return Workload(app=model.name, phases=tuple(phases))


def fields_of(workload):
    """Every phase field as ``(type, repr)``: floats compare bit for bit."""
    return [
        [(type(getattr(phase, f.name)), repr(getattr(phase, f.name))) for f in dataclasses.fields(phase)]
        for phase in workload.phases
    ]


class TestTrustedPhases:
    """``build_apps`` skips ``Phase``'s per-instance checks and draws all
    jitter at once; the phases must still be ``Phase(...)``'s."""

    @pytest.mark.parametrize("app", APP_NAMES)
    @pytest.mark.parametrize("scale", [1.0, 0.25, 0.05, 3.7, 1e-9])
    @pytest.mark.parametrize("seed", [7, 2022])
    def test_phases_equal_checked_construction(self, app, scale, seed):
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        built = build_app(app, rng=rng, scale=scale)
        expected = checked_app(app, reference, scale)
        assert built == expected
        assert fields_of(built) == fields_of(expected)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_nominal_phases_equal_checked_construction(self, scale):
        for app in APP_NAMES:
            assert fields_of(build_app(app, scale=scale)) == fields_of(checked_app(app, None, scale))

    @pytest.mark.parametrize("seed", [7, 2022])
    def test_a_pair_drawn_at_once_equals_node_by_node(self, seed):
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assignment = assign_pair_to_cluster(("UA", "DC"), range(7), rng=rng, scale=0.5)
        apps = ["UA"] * 4 + ["DC"] * 3
        for node_id, app in enumerate(apps):
            expected = checked_app(app, reference, 0.5)
            assert fields_of(assignment.workloads[node_id]) == fields_of(expected)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_mixed_sequence_and_empty_sequence(self):
        rng = np.random.default_rng(3)
        reference = np.random.default_rng(3)
        names = ["ep", "MG", "EP", "bt"]
        built = build_apps(names, rng=rng, scale=0.2)
        assert [fields_of(w) for w in built] == [
            fields_of(checked_app(name, reference, 0.2)) for name in names
        ]
        assert build_apps([], rng=rng) == []
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("scale", [0.0, -1.0, -1e-300])
    def test_a_bad_scale_still_raises(self, scale):
        with pytest.raises(ValueError, match="scale"):
            build_app("EP", rng=np.random.default_rng(0), scale=scale)
        with pytest.raises(ValueError, match="scale"):
            assign_pair_to_cluster(("EP", "DC"), range(4), scale=scale)

    def test_a_scale_that_underflows_a_phase_raises(self):
        model = AppModel(
            name="TINY", description="", nominal_runtime_s=1.0, n_cycles=1,
            cycle=(PhaseTemplate("short", 1e-300, 50.0, 0.5),
                   PhaseTemplate("long", 1.0 - 1e-300, 50.0, 0.5)),
        )
        assert 1.0 * 1e-30 / 1 * 1e-300 == 0.0  # a work Phase(...) rejects
        with pytest.raises(ValueError, match="no work"):
            _shape(model, 1e-30)

    @pytest.mark.parametrize(
        "template",
        [("x", 0.0, 50.0, 0.5), ("x", 0.5, 0.0, 0.5), ("x", 0.5, 50.0, 0.0), ("x", 0.5, 50.0, 2.5)],
    )
    def test_templates_are_checked_when_defined(self, template):
        with pytest.raises(ValueError):
            PhaseTemplate(*template)
