"""Differential equivalence: batched tick driver vs per-node loops.

The :class:`~repro.core.batcher.TickBatcher` replaces N per-node decider
loops (a generator resume + a ``Timeout`` per node per period) with one
engine event per period per stagger slot.  Its contract (module
docstring of ``repro.core.batcher``): with staggering off, a batched run
produces *byte-identical* results to the per-node loops -- same
transactions, same cap trajectories, same ledger balances -- because
sends happen in the same order and therefore consume the shared latency
stream identically.

These tests enforce the contract differentially across nominal, faulty
(kill, crash-restart, partition + loss burst), membership-enabled and
retry-heavy scenarios, and additionally replay the pinned kernel
fixtures with ``batched_ticks`` explicitly off (the fixtures use the
staggered default configuration, which the batcher only approximates --
default-off is itself part of the contract).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.cluster.faults import FaultPlan
from repro.core.batcher import TickBatcher
from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunSpec, build_run, run_single
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.sim.config import BATCHED_TICKS_ENV, SimConfig

FIXTURES = Path(__file__).parent / "fixtures"

_NO_STAGGER = PenelopeConfig(stagger_start=False)

#: Every scenario runs with staggering off -- the regime where the
#: batcher claims exact equivalence.  Faults cover the full lifecycle:
#: kill -> TickBatcher.remove, restart -> re-add on a phase-matching
#: slot, partitions/loss -> timeout-and-retry continuations that span
#: batch boundaries, membership -> probe traffic interleaved with ticks.
_SCENARIOS = {
    "nominal": RunSpec(
        "penelope", ("EP", "DC"), 70.0, n_clients=4, seed=7,
        workload_scale=0.1, manager_config=_NO_STAGGER, record_caps=True,
    ),
    "faulty_kill": RunSpec(
        "penelope", ("CG", "LU"), 65.0, n_clients=4, seed=5,
        workload_scale=0.1, manager_config=_NO_STAGGER,
        fault_plan=FaultPlan().kill(1, 2.0),
    ),
    "kill_restart": RunSpec(
        "penelope", ("CG", "LU"), 65.0, n_clients=4, seed=5,
        workload_scale=0.1, manager_config=_NO_STAGGER,
        fault_plan=FaultPlan().kill(1, 2.0).restart(1, 6.0),
    ),
    "partition_loss": RunSpec(
        "penelope", ("EP", "DC"), 70.0, n_clients=5, seed=11,
        workload_scale=0.1, manager_config=_NO_STAGGER,
        fault_plan=FaultPlan()
        .partition([1, 2], 2.0, heal_after_s=4.0)
        .loss_burst(0.3, 5.0, 3.0),
    ),
    "membership_kill": RunSpec(
        "penelope", ("EP", "DC"), 70.0, n_clients=5, seed=3,
        workload_scale=0.1,
        manager_config=PenelopeConfig(
            stagger_start=False,
            enable_membership=True,
            membership_probe_period_s=0.5,
        ),
        fault_plan=FaultPlan().kill(1, 2.0),
    ),
    "retry_heavy": RunSpec(
        "penelope", ("CG", "LU"), 65.0, n_clients=4, seed=5,
        workload_scale=0.1,
        manager_config=PenelopeConfig(
            stagger_start=False, response_timeout_s=0.3, request_retries=2
        ),
        fault_plan=FaultPlan().kill(1, 2.0),
    ),
}


def _scenario_bytes(spec: RunSpec, batched: bool) -> str:
    sim = SimConfig(batched_ticks=batched)
    return canonical_json(result_to_dict(run_single(spec, sim=sim)))


class TestBatchedDifferential:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_batched_run_is_byte_identical(self, name: str) -> None:
        spec = _SCENARIOS[name]
        per_node = _scenario_bytes(spec, batched=False)
        batched = _scenario_bytes(spec, batched=True)
        assert batched == per_node, f"batched diverged on {name!r}"


class TestBatcherGating:
    def test_supports_rejects_timeouts_longer_than_the_period(self) -> None:
        assert TickBatcher.supports(PenelopeConfig())  # timeout == period
        assert TickBatcher.supports(PenelopeConfig(response_timeout_s=0.5))
        assert not TickBatcher.supports(PenelopeConfig(response_timeout_s=2.5))

    def test_manager_falls_back_to_per_node_when_unsupported(self) -> None:
        config = PenelopeConfig(stagger_start=False, response_timeout_s=2.5)
        spec = RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=4, seed=7,
            workload_scale=0.1, manager_config=config,
        )
        engine, cluster, manager = build_run(
            spec, sim=SimConfig(batched_ticks=True)
        )
        assert engine.batched_ticks
        manager.start()
        try:
            assert manager._batcher is None
            assert all(d.is_running for d in manager.deciders.values())
        finally:
            manager.stop()
        # ... and the run is trivially byte-identical.
        assert _scenario_bytes(spec, batched=True) == _scenario_bytes(
            spec, batched=False
        )

    def test_manager_batches_every_decider_when_supported(self) -> None:
        spec = RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=4, seed=7,
            workload_scale=0.1, manager_config=_NO_STAGGER,
        )
        engine, cluster, manager = build_run(
            spec, sim=SimConfig(batched_ticks=True)
        )
        manager.start()
        try:
            batcher = manager._batcher
            assert batcher is not None
            assert batcher.node_count == 4
            assert all(d.is_running for d in manager.deciders.values())
        finally:
            manager.stop()
        assert manager._batcher is None

    def test_default_config_leaves_batching_off(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # The *environment-free* default: REPRO_BATCHED_TICKS may be
        # exported by the CI matrix leg, so clear it before asserting.
        monkeypatch.delenv(BATCHED_TICKS_ENV, raising=False)
        spec = RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=4, seed=7,
            workload_scale=0.1,
        )
        engine, cluster, manager = build_run(spec)
        assert not engine.batched_ticks
        manager.start()
        try:
            assert manager._batcher is None
        finally:
            manager.stop()

    def test_staggered_batched_run_completes_and_conserves(self) -> None:
        # With staggering on the batcher quantizes start offsets onto
        # slots -- a documented timing approximation, so no byte-equality
        # claim; the run must still complete with the conservation audit
        # (inside run_single) passing.
        spec = RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=4, seed=7,
            workload_scale=0.1,
        )
        result = run_single(
            spec, sim=SimConfig(batched_ticks=True, tick_slots=4)
        )
        assert result.runtime_s > 0


class TestPinnedFixturesStayOff:
    @pytest.mark.parametrize(
        "name",
        [
            "kernel_nominal_penelope",
            "kernel_nominal_slurm",
            "kernel_nominal_fair",
        ],
    )
    def test_fixture_replay_with_batching_explicitly_off(self, name: str) -> None:
        # The pinned fixtures encode the *staggered per-node* trajectory;
        # SimConfig(batched_ticks=False) must reproduce them even when
        # the environment asks for batching (the CI matrix leg exports
        # REPRO_BATCHED_TICKS=1 while these bytes stay frozen).
        spec_module = importlib.util.spec_from_file_location(
            "generate_kernel_fixtures", FIXTURES / "generate_kernel_fixtures.py"
        )
        module = importlib.util.module_from_spec(spec_module)
        assert spec_module.loader is not None
        spec_module.loader.exec_module(module)
        spec = module.FIXTURE_SPECS[name]
        expected = (FIXTURES / f"{name}.json").read_text()
        data = result_to_dict(
            run_single(spec, sim=SimConfig(batched_ticks=False))
        )
        data["network"] = module._upgrade_network_dict(dict(data["network"]))
        assert canonical_json(data) + "\n" == expected
