"""Byte-identity regression for the adversarial fault knobs.

The determinism contract says the pinned fixtures are the trajectory:
adding fault *capability* (duplication, reordering, clock drift,
gray-slow nodes) must not move a single byte while the knobs sit at
their defaults.  This file is the dedicated regression guard for that
claim, in three layers:

1. every pinned fixture (three nominal kernels + the chaos storm)
   replays byte-for-byte;
2. *inert* knob values -- drift rate ``0.0`` and slowdown factor
   ``1.0`` -- leave a run bitwise identical (IEEE-754 guarantees
   ``x * 1.0 == x``), with batched ticks on and off;
3. the serialization surface emits none of the new keys at defaults,
   so cache sha256 keys and fixture bytes cannot shift.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.cluster.faults import FaultPlan
from repro.experiments.chaos import ChaosSpec, run_chaos_single
from repro.experiments.harness import run_single
from repro.experiments.serialize import canonical_json, encode
from repro.net.network import NetworkStats
from repro.sim.config import SimConfig

FIXTURES = Path(__file__).parent / "fixtures"


def _load_module(stem: str):
    spec = importlib.util.spec_from_file_location(stem, FIXTURES / f"{stem}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPinnedFixturesWithKnobsAtDefaults:
    """Layer 1: the full fixture corpus replays byte-for-byte.

    Batching is pinned off as the fixture bytes require (they encode
    the staggered per-node trajectory); the batched axis is covered by
    the inert-knob differential below.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "kernel_nominal_penelope",
            "kernel_nominal_slurm",
            "kernel_nominal_fair",
        ],
    )
    def test_kernel_fixture_bytes(self, name):
        module = _load_module("generate_kernel_fixtures")
        spec = module.FIXTURE_SPECS[name]
        expected = (FIXTURES / f"{name}.json").read_text()
        data = encode(run_single(spec, sim=SimConfig(batched_ticks=False)))
        data["network"] = module._upgrade_network_dict(dict(data["network"]))
        assert canonical_json(data) + "\n" == expected

    def test_chaos_fixture_bytes(self):
        module = _load_module("generate_chaos_fixture")
        expected = (FIXTURES / f"{module.CHAOS_FIXTURE_NAME}.json").read_text()
        data = encode(
            run_chaos_single(
                module.CHAOS_FIXTURE_SPEC, sim=SimConfig(batched_ticks=False)
            )
        )
        assert canonical_json(data) + "\n" == expected


#: Fault-free storm for the differential: the baseline plan is empty, so
#: any trajectory delta is attributable to the inert knobs alone.
_QUIET = ChaosSpec(
    n_clients=4,
    seed=11,
    duration_s=10.0,
    workload_scale=0.1,
    kills=0,
    flaps=0,
    bursts=0,
)


class TestInertKnobsAreBitwiseNoOps:
    """Layer 2: drift rate 0.0 and slowdown 1.0 change nothing.

    ``set_clock_drift(n, 0.0)`` sets a scale of exactly 1.0 (timer
    arithmetic multiplies by it -- bitwise identity -- and the batcher
    gate only unbatches on scale != 1.0); ``slow_node(n, 1.0, ...)``
    multiplies latency by 1.0.  Neither consumes an RNG draw, so the
    run must match the no-fault baseline bit-for-bit with tick batching
    on *and* off.
    """

    @pytest.mark.parametrize("batched", [False, True])
    def test_trajectory_identical(self, batched):
        sim = SimConfig(batched_ticks=batched)
        base = run_chaos_single(_QUIET, sim=sim, plan=FaultPlan())
        noop_plan = (
            FaultPlan()
            .clock_drift(1, 0.0, at_time_s=4.321)
            .slow_node(2, 1.0, at_time_s=3.789, duration_s=2.0)
        )
        noop = run_chaos_single(_QUIET, sim=sim, plan=noop_plan)

        assert noop.final == base.final
        assert noop.network == base.network
        assert noop.n_audits == base.n_audits
        assert noop.max_abs_residual_w == base.max_abs_residual_w
        assert noop.recorder.samples == base.recorder.samples
        assert noop.violations == [] and base.violations == []
        counters = dict(noop.recorder.counters)
        # The only permissible delta: the drift installation itself is
        # counted, even at rate 0.0.
        assert counters.pop("manager.clock_drifts") == 1
        assert counters == dict(base.recorder.counters)


class TestSerializationSurfaceAtDefaults:
    """Layer 3: no new keys leak into canonical JSON at defaults."""

    def test_chaos_spec_dict_omits_late_fields(self):
        data = encode(_QUIET)
        for key in (
            "duplicate_bursts",
            "reorder_bursts",
            "clock_drifts",
            "slow_nodes",
            "duplicate_prob",
            "reorder_window_s",
            "max_drift_rate",
            "slow_factor",
        ):
            assert key not in data

    def test_fault_plan_dict_omits_empty_adversarial_categories(self):
        data = encode(FaultPlan().kill(1, 2.0).loss_burst(0.2, 1.0, 1.0))
        assert set(data) == {
            "node_kills",
            "partitions",
            "restarts",
            "flaps",
            "loss_bursts",
        }

    def test_network_stats_dict_omits_zero_adversarial_counters(self):
        data = encode(NetworkStats())
        for key in (
            "duplicated",
            "reordered",
            "duplicated_by_kind",
            "reordered_by_kind",
        ):
            assert key not in data

    def test_non_defaults_round_trip(self):
        # The omission is emit-side only: non-default values survive.
        spec = ChaosSpec(duplicate_bursts=2, slow_factor=4.0)
        data = encode(spec)
        assert data["duplicate_bursts"] == 2
        assert data["slow_factor"] == 4.0
        plan = FaultPlan().duplicate_burst(0.3, 1.0, 1.0)
        assert encode(plan)["duplicate_bursts"] == [[0.3, 1.0, 1.0]]
