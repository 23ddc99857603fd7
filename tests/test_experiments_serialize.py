"""Round-trip tests for the field-driven JSON codec, plus hypothesis
properties: specs survive JSON losslessly and the cache fingerprint is
injective over field perturbations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments import serialize
from repro.experiments.harness import RunResult, RunSpec, expected_config_type, run_single
from repro.experiments.runner import spec_fingerprint
from repro.instrumentation import MetricsRecorder
from repro.managers.base import BudgetAudit, ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.net.network import NetworkStats


def json_round_trip(data):
    """Force the dict through actual JSON text, as the cache does."""
    return json.loads(json.dumps(data))


# -- the field-driven codec ---------------------------------------------------


@dataclass(frozen=True)
class Inner:
    label: str
    weights: Tuple[float, ...] = ()


@dataclass
class Outer:
    pair: Tuple[str, int]
    inner: Inner
    maybe: Optional[Inner] = None
    by_node: Dict[int, float] = field(default_factory=dict)
    rows: List[Tuple[int, Optional[float]]] = field(default_factory=list)
    series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late: int = field(default=0, metadata={"omit_default": True})
    late_list: List[int] = field(default_factory=list, metadata={"omit_default": True})


class TestFieldDrivenCodec:
    def test_shapes(self):
        obj = Outer(
            pair=("EP", 3),
            inner=Inner("a", (1.0, 2.5)),
            by_node={10: 1.5, 2: 0.5},
            rows=[(1, None), (2, 0.25)],
            series=np.array([0.5, 1.5]),
        )
        assert serialize.encode(obj) == {
            "pair": ["EP", 3],
            "inner": {"label": "a", "weights": [1.0, 2.5]},
            "maybe": None,
            "by_node": {"10": 1.5, "2": 0.5},
            "rows": [[1, None], [2, 0.25]],
            "series": [0.5, 1.5],
        }

    def test_round_trip_restores_native_types(self):
        obj = Outer(
            pair=("EP", 3),
            inner=Inner("a"),
            maybe=Inner("b", (4.0,)),
            by_node={7: 2.0},
            rows=[(1, None)],
            series=np.array([1.0]),
            late=2,
            late_list=[5],
        )
        decoded = serialize.decode(Outer, json_round_trip(serialize.encode(obj)))
        assert decoded.pair == ("EP", 3)
        assert decoded.maybe == Inner("b", (4.0,))
        assert decoded.by_node == {7: 2.0}
        assert decoded.rows == [(1, None)]
        assert isinstance(decoded.series, np.ndarray)
        assert decoded.series.tolist() == [1.0]
        assert (decoded.late, decoded.late_list) == (2, [5])

    def test_omit_default_fields_leave_the_json_at_their_default(self):
        data = serialize.encode(Outer(pair=("x", 0), inner=Inner("a")))
        assert "late" not in data and "late_list" not in data
        decoded = serialize.decode(Outer, data)
        assert decoded.late == 0 and decoded.late_list == []

    def test_scalars_pass_through_unconverted(self):
        # An int stays an int: re-encoding must reproduce the same bytes.
        data = {"pair": ["x", 1], "inner": {"label": "a"}, "by_node": {"1": 3}}
        decoded = serialize.decode(Outer, data)
        assert decoded.by_node == {1: 3}
        assert isinstance(decoded.by_node[1], int)


# -- configs and fault plans -------------------------------------------------


class TestConfigCodec:
    @pytest.mark.parametrize(
        "config",
        [
            ManagerConfig(),
            ManagerConfig(period_s=0.5, epsilon_w=7.0, overhead_factor=0.0),
            PenelopeConfig(rate=0.25),
            SlurmConfig(server_service_time_s=(8e-5, 1e-4), rate_scheme="scale-aware"),
            HaSlurmConfig(),
        ],
    )
    def test_round_trip(self, config):
        decoded = serialize.decode(
            ManagerConfig, json_round_trip(serialize.encode(config))
        )
        assert type(decoded) is type(config)
        assert decoded == config

    def test_unregistered_type_rejected(self):
        class Rogue(ManagerConfig):
            pass

        with pytest.raises(TypeError):
            serialize.encode(Rogue())


class TestFaultPlanCodec:
    def test_round_trip(self):
        plan = (
            FaultPlan()
            .kill(3, 12.5)
            .kill(0, 1.0)
            .partition([1, 2], at_time_s=5.0, heal_after_s=9.0)
        )
        decoded = serialize.decode(FaultPlan, json_round_trip(serialize.encode(plan)))
        assert decoded == plan

    def test_empty_plan(self):
        decoded = serialize.decode(
            FaultPlan, json_round_trip(serialize.encode(FaultPlan()))
        )
        assert decoded.node_kills == []
        assert decoded.partitions == []

    def test_chaos_fields_round_trip(self):
        plan = (
            FaultPlan()
            .kill(2, 4.0)
            .restart(2, 9.0)
            .flap([1, 3], at_time_s=6.0, down_s=0.5, up_s=1.5, cycles=3)
            .loss_burst(0.25, at_time_s=10.0, duration_s=2.0)
        )
        decoded = serialize.decode(FaultPlan, json_round_trip(serialize.encode(plan)))
        assert decoded == plan
        assert decoded.restarts == [(2, 9.0)]
        assert decoded.flaps == [((1, 3), 6.0, 0.5, 1.5, 3)]
        assert decoded.loss_bursts == [(0.25, 10.0, 2.0)]

    def test_legacy_plan_dict_without_chaos_fields_decodes(self):
        # Cached results written before restarts/flaps/bursts existed
        # carry only kills and partitions; the decoder defaults the rest.
        legacy = {
            "node_kills": [[1, 5.0]],
            "partitions": [[[0, 2], 3.0, 4.0]],
        }
        decoded = serialize.decode(FaultPlan, legacy)
        assert decoded.node_kills == [(1, 5.0)]
        assert decoded.partitions == [((0, 2), 3.0, 4.0)]
        assert decoded.restarts == []
        assert decoded.flaps == []
        assert decoded.loss_bursts == []


# -- full results ------------------------------------------------------------


@pytest.fixture(scope="module")
def faulty_penelope_result():
    """A run exercising every RunResult field: manager config, fault plan,
    cap recording, an unfinished node and nonzero counters."""
    return run_single(
        RunSpec(
            "penelope",
            ("EP", "DC"),
            70.0,
            n_clients=4,
            workload_scale=0.1,
            manager_config=PenelopeConfig(rate=0.3),
            fault_plan=FaultPlan().kill(0, 1.0),
            record_caps=True,
        )
    )


@pytest.fixture(scope="module")
def slurm_result():
    """A centralized run: network by_kind traffic and turnaround samples."""
    return run_single(
        RunSpec("slurm", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.1)
    )


class TestResultCodec:
    @pytest.fixture(params=["faulty_penelope_result", "slurm_result"])
    def result(self, request):
        return request.getfixturevalue(request.param)

    def test_reserializes_byte_identically(self, result):
        data = json_round_trip(serialize.encode(result))
        decoded = serialize.decode(RunResult, data)
        assert serialize.canonical_json(
            serialize.encode(decoded)
        ) == serialize.canonical_json(serialize.encode(result))

    def test_scalar_fields(self, result):
        decoded = serialize.decode(
            RunResult, json_round_trip(serialize.encode(result))
        )
        assert decoded.spec == result.spec or (
            # fault plans compare by identity on RunSpec; compare content
            serialize.encode(decoded.spec) == serialize.encode(result.spec)
        )
        assert decoded.runtime_s == result.runtime_s
        assert decoded.finish_times == result.finish_times
        assert all(isinstance(node, int) for node in decoded.finish_times)
        assert decoded.unfinished == result.unfinished
        assert isinstance(decoded.unfinished, tuple)

    def test_recorder_events(self, result):
        decoded = serialize.decode(
            RunResult, json_round_trip(serialize.encode(result))
        )
        assert decoded.recorder.transactions == result.recorder.transactions
        assert decoded.recorder.turnarounds == result.recorder.turnarounds
        assert decoded.recorder.caps == result.recorder.caps
        assert decoded.recorder.counters == result.recorder.counters
        assert decoded.recorder._record_caps == result.recorder._record_caps

    def test_recorder_samples_round_trip(self, result):
        recorder = result.recorder
        from repro.instrumentation import LedgerSample

        with_samples = serialize.decode(
            MetricsRecorder, json_round_trip(serialize.encode(recorder))
        )
        assert with_samples.samples == recorder.samples
        # And a recorder that actually holds samples (the auditor's view).
        recorder2 = serialize.decode(
            MetricsRecorder, json_round_trip(serialize.encode(recorder))
        )
        recorder2.sample(1.0, "ledger.residual_w", 0.0)
        recorder2.sample(2.0, "ledger.escrow_w", 12.5)
        decoded = serialize.decode(
            MetricsRecorder, json_round_trip(serialize.encode(recorder2))
        )
        assert decoded.samples == [
            LedgerSample(time=1.0, name="ledger.residual_w", value=0.0),
            LedgerSample(time=2.0, name="ledger.escrow_w", value=12.5),
        ]

    def test_legacy_recorder_dict_without_samples_decodes(self, result):
        data = json_round_trip(serialize.encode(result.recorder))
        del data["samples"]  # pre-auditor cache entries lack the key
        decoded = serialize.decode(MetricsRecorder, data)
        assert decoded.samples == []
        assert decoded.counters == result.recorder.counters

    def test_budget_audit(self, result):
        decoded = serialize.decode(
            BudgetAudit, json_round_trip(serialize.encode(result.audit))
        )
        assert decoded == result.audit

    def test_network_stats(self, result):
        decoded = serialize.decode(
            NetworkStats, json_round_trip(serialize.encode(result.network))
        )
        assert decoded == result.network
        assert decoded.by_kind == result.network.by_kind

    def test_faulty_run_really_exercises_the_optional_fields(
        self, faulty_penelope_result
    ):
        assert faulty_penelope_result.unfinished == (0,)
        assert faulty_penelope_result.recorder.caps  # record_caps=True
        assert faulty_penelope_result.recorder.counters


# -- hypothesis properties ---------------------------------------------------

APPS = ("EP", "DC", "CG", "LU", "FT", "MG")

spec_strategy = st.builds(
    RunSpec,
    manager=st.sampled_from(("fair", "penelope", "slurm")),
    pair=st.tuples(st.sampled_from(APPS), st.sampled_from(APPS)),
    cap_w_per_socket=st.floats(min_value=1.0, max_value=200.0),
    n_clients=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    workload_scale=st.floats(min_value=0.01, max_value=4.0),
    record_caps=st.booleans(),
    time_limit_s=st.floats(min_value=1.0, max_value=1e7),
)

#: One perturbation per RunSpec field; each must change the fingerprint.
FIELD_PERTURBATIONS = [
    ("manager", lambda s: "slurm" if s.manager != "slurm" else "fair"),
    (
        "pair",
        lambda s: (s.pair[1], s.pair[0]) if s.pair[0] != s.pair[1] else ("SP", "UA"),
    ),
    ("cap_w_per_socket", lambda s: s.cap_w_per_socket + 1.0),
    ("n_clients", lambda s: s.n_clients + 1),
    ("seed", lambda s: s.seed + 1),
    ("workload_scale", lambda s: s.workload_scale * 2.0),
    ("manager_config", lambda s: expected_config_type(s.manager)(epsilon_w=123.0)),
    ("fault_plan", lambda s: FaultPlan().kill(0, 1.0)),
    ("record_caps", lambda s: not s.record_caps),
    ("time_limit_s", lambda s: s.time_limit_s + 1.0),
]


class TestSpecProperties:
    @settings(max_examples=80, deadline=None)
    @given(spec=spec_strategy)
    def test_spec_round_trips_through_json(self, spec):
        assert (
            serialize.decode(RunSpec, json_round_trip(serialize.encode(spec)))
            == spec
        )

    @settings(max_examples=150, deadline=None)
    @given(
        spec=spec_strategy,
        choice=st.integers(min_value=0, max_value=len(FIELD_PERTURBATIONS) - 1),
    )
    def test_fingerprint_injective_over_field_perturbations(self, spec, choice):
        field, perturb = FIELD_PERTURBATIONS[choice]
        mutated = replace(spec, **{field: perturb(spec)})
        assume(serialize.encode(mutated) != serialize.encode(spec))
        assert spec_fingerprint(mutated) != spec_fingerprint(spec)

    @settings(max_examples=50, deadline=None)
    @given(spec=spec_strategy)
    def test_fingerprint_is_stable(self, spec):
        decoded = serialize.decode(RunSpec, json_round_trip(serialize.encode(spec)))
        assert spec_fingerprint(decoded) == spec_fingerprint(spec)


class TestNetworkStatsBackCompat:
    def test_legacy_merged_dead_counter_decodes(self):
        stats = NetworkStats(sent=9, delivered=5, dropped_dead_src=2)
        legacy = serialize.encode(stats)
        del legacy["dropped_dead_src"]
        del legacy["dropped_dead_dst"]
        legacy["dropped_dead"] = 2
        decoded = serialize.decode(NetworkStats, legacy)
        assert decoded.dropped_dead_src == 2
        assert decoded.dropped_dead_dst == 0
        assert decoded.dropped_dead == 2
        assert decoded.dropped == 2

    def test_split_counters_round_trip(self):
        stats = NetworkStats(
            sent=10, delivered=5, dropped_dead_src=2, dropped_dead_dst=3
        )
        decoded = serialize.decode(
            NetworkStats, json_round_trip(serialize.encode(stats))
        )
        assert decoded == stats
        assert decoded.dropped_dead == 5


# -- golden fingerprints -----------------------------------------------------

from repro.experiments.allocation import ALLOCATION_RUN, AllocationSpec  # noqa: E402
from repro.experiments.chaos import CHAOS_RUN, ChaosSpec  # noqa: E402
from repro.experiments.multijob import MULTIJOB_RUN, MultiJobSpec  # noqa: E402
from repro.experiments.runner import SINGLE_RUN  # noqa: E402
from repro.experiments.scaling import SCALING_RUN, ScalingSpec  # noqa: E402


def _every_fault_category() -> FaultPlan:
    return (
        FaultPlan()
        .kill(3, 12.5)
        .partition([1, 2], at_time_s=5.0, heal_after_s=9.0)
        .partition([0], at_time_s=6.0)
        .restart(3, 20.0)
        .flap([1, 3], at_time_s=6.0, down_s=0.5, up_s=1.5, cycles=3)
        .loss_burst(0.25, at_time_s=10.0, duration_s=2.0)
        .duplicate_burst(0.1, at_time_s=11.0, duration_s=1.0)
        .reorder_burst(0.05, at_time_s=12.0, duration_s=1.5)
        .clock_drift(2, -0.01, at_time_s=4.0)
        .slow_node(1, 3.0, at_time_s=7.0, duration_s=2.0)
        .slow_node(0, 2.0, at_time_s=8.0)
    )


#: (kind, spec, pinned ``spec_fingerprint`` hex).  Every existing cache
#: file and journal is keyed by these digests: a codec change that moves
#: one of them silently orphans every cached run of that shape.
GOLDEN_FINGERPRINTS = [
    pytest.param(
        SINGLE_RUN,
        RunSpec(
            "penelope",
            ("EP", "DC"),
            70.0,
            n_clients=6,
            seed=5,
            workload_scale=0.2,
            manager_config=PenelopeConfig(rate=0.3, pool_service_time_s=(1e-5, 2e-5)),
            fault_plan=_every_fault_category(),
            record_caps=True,
        ),
        "3b7716c45fc7b8fb952be0d731473419aae22cb25831adc613c274f85dbfac47",
        id="run-penelope-every-fault",
    ),
    pytest.param(
        SINGLE_RUN,
        RunSpec(
            "slurm",
            ("CG", "LU"),
            80.0,
            n_clients=4,
            seed=11,
            manager_config=SlurmConfig(
                server_service_time_s=(8e-5, 1e-4), rate_scheme="scale-aware"
            ),
        ),
        "e862520c4e6baab0f152fceac72f93aa474e3a3ca33580a6214e12c842aa8f0d",
        id="run-slurm",
    ),
    pytest.param(
        SCALING_RUN,
        ScalingSpec(
            manager="slurm",
            n_clients=44,
            frequency_hz=5.0,
            pair=("EP", "DC"),
            manager_config=SlurmConfig(rate_scheme="scale-aware"),
        ),
        "9e5ceb49abd7ea4d1eff87e71ed1bb09e2b15cc02eb0342caae271148eb70944",
        id="scaling",
    ),
    pytest.param(
        MULTIJOB_RUN,
        MultiJobSpec(
            manager="penelope",
            n_clients=6,
            seed=2,
            workload_scale=0.1,
            fault_plan=FaultPlan().kill(0, 3.0),
            manager_config=PenelopeConfig(),
        ),
        "2ab6885183f7306dd60d0fa1f12e28ff55b157d9244f60b93c696c5cd6ba0107",
        id="multijob",
    ),
    pytest.param(
        ALLOCATION_RUN,
        AllocationSpec(
            manager="slurm", pair=("CG", "MG"), observe_s=5.0,
            manager_config=SlurmConfig(),
        ),
        "7f471e893122066ccba9edc44d9995aba1f88c3e4584088f0798538efc3ce21d",
        id="allocation",
    ),
    pytest.param(
        CHAOS_RUN,
        ChaosSpec(),
        "556bbd0f08e564dd790bf3e77deb77c15d6622608b3d88fe30a37c8b8d531a16",
        id="chaos-defaults",
    ),
    pytest.param(
        CHAOS_RUN,
        ChaosSpec(
            duplicate_bursts=1,
            reorder_bursts=2,
            clock_drifts=3,
            slow_nodes=4,
            duplicate_prob=0.2,
            reorder_window_s=0.1,
            max_drift_rate=0.02,
            slow_factor=5.0,
        ),
        "c9b686f49dceffa8bd6c6131dfc246a891fbd1a01700ccfefe5e86326c4d09cd",
        id="chaos-every-late-field",
    ),
]


class TestGoldenFingerprints:
    @pytest.mark.parametrize("kind, spec, expected", GOLDEN_FINGERPRINTS)
    def test_fingerprint_is_pinned(self, kind, spec, expected):
        assert spec_fingerprint(spec, kind) == expected


FIXTURES = Path(__file__).parent / "fixtures"


class TestPinnedFixturesRoundTrip:
    """Decoding a pinned result file and encoding it again is the identity:
    every cache entry and journal record written so far stays readable."""

    @pytest.mark.parametrize(
        "kind, name",
        [
            (SINGLE_RUN, "kernel_nominal_penelope"),
            (SINGLE_RUN, "kernel_nominal_slurm"),
            (SINGLE_RUN, "kernel_nominal_fair"),
            (CHAOS_RUN, "chaos_smoke"),
        ],
    )
    def test_decode_then_encode_is_byte_identical(self, kind, name):
        text = (FIXTURES / f"{name}.json").read_text()
        decoded = serialize.decode(kind.result_type, json.loads(text))
        assert serialize.canonical_json(serialize.encode(decoded)) + "\n" == text
