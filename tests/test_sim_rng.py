"""Unit tests for the named RNG registry."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunSpec, build_run
from repro.sim.rng import RngRegistry, spawn_states, stable_name_hash


class TestStableNameHash:
    def test_deterministic(self):
        assert stable_name_hash("net.latency") == stable_name_hash("net.latency")

    def test_distinct_names_differ(self):
        names = [f"node.{i}.rapl" for i in range(100)]
        hashes = {stable_name_hash(n) for n in names}
        assert len(hashes) == 100

    def test_32_bit_range(self):
        for name in ("", "x", "a" * 1000):
            value = stable_name_hash(name)
            assert 0 <= value <= 0xFFFFFFFF


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(seed=1)
        assert registry.stream("a") is registry.stream("a")

    def test_reproducible_across_registries(self):
        a = RngRegistry(seed=7).stream("x").random(5)
        b = RngRegistry(seed=7).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(seed=7)
        r1.stream("first").random(100)  # consume some numbers
        value_after = r1.stream("second").random()

        r2 = RngRegistry(seed=7)
        value_direct = r2.stream("second").random()
        assert value_after == value_direct

    def test_different_names_give_different_sequences(self):
        registry = RngRegistry(seed=7)
        a = registry.stream("a").random(10)
        b = registry.stream("b").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_give_different_sequences(self):
        a = RngRegistry(seed=1).stream("x").random(10)
        b = RngRegistry(seed=2).stream("x").random(10)
        assert not np.array_equal(a, b)

    def test_spawn_is_deterministic_and_distinct(self):
        base = RngRegistry(seed=3)
        child_a = base.spawn(1).stream("x").random(5)
        child_a2 = RngRegistry(seed=3).spawn(1).stream("x").random(5)
        child_b = base.spawn(2).stream("x").random(5)
        assert np.array_equal(child_a, child_a2)
        assert not np.array_equal(child_a, child_b)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry(seed="abc")  # type: ignore[arg-type]


# -- vectorised seeding (RngRegistry.prepare) ------------------------------------

NAMES = ["net.latency", "node.0.rapl", "node.9999.rapl", "penelope.pool.3.gen1", "", "ü"]


def _reference_state(seed, name):
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(stable_name_hash(name),))
    return sequence.generate_state(4, np.uint64)


def _draws(generator):
    return [
        generator.random(3),
        generator.uniform(2.0, 5.0, 3),
        generator.normal(1.0, 0.5, 3),
        generator.lognormal(0.0, 0.3, 3),
        generator.integers(0, 1_000, 3),
        generator.random(),
    ]


class TestPrepare:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        names=st.lists(st.text(max_size=24), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_states_equal_seed_sequence(self, seed, names):
        keys = np.array([stable_name_hash(name) for name in names], dtype=np.uint32)
        states = spawn_states(seed, keys)
        assert states.shape == (len(names), 4)
        for name, state in zip(names, states):
            assert state.tolist() == _reference_state(seed, name).tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2022, 2**31, 2**32 - 1])
    def test_prepared_streams_draw_like_unprepared(self, seed):
        prepared = RngRegistry(seed=seed)
        prepared.prepare(NAMES)
        plain = RngRegistry(seed=seed)
        for name in NAMES:
            for got, want in zip(_draws(prepared.stream(name)), _draws(plain.stream(name))):
                assert np.array_equal(got, want)
        assert prepared._prepared == {}

    def test_prepared_streams_hold_no_seed_state(self):
        # One shared seed object, emptied once each PCG64 is seeded: no
        # per-stream seed object or spawn_states row outlives the build.
        registry = RngRegistry(seed=2022)
        registry.prepare(NAMES)
        streams = [registry.stream(name) for name in NAMES]
        seeds = {id(stream.bit_generator.seed_seq) for stream in streams}
        assert len(seeds) == 1
        assert streams[0].bit_generator.seed_seq.state is None
        with pytest.raises(ValueError):
            streams[0].bit_generator.seed_seq.generate_state(4, np.uint64)

    def test_restart_stream_created_later_draws_like_unprepared(self):
        prepared = RngRegistry(seed=2022)
        prepared.prepare(["penelope.pool.3"])
        prepared.stream("penelope.pool.3")
        restarted = prepared.stream("penelope.pool.3.gen1")
        plain = RngRegistry(seed=2022).stream("penelope.pool.3.gen1")
        for got, want in zip(_draws(restarted), _draws(plain)):
            assert np.array_equal(got, want)

    def test_existing_and_repeated_names_are_skipped(self):
        registry = RngRegistry(seed=5)
        drawn = registry.stream("a")
        drawn.random(4)
        registry.prepare(["a", "b", "b"])
        assert list(registry._prepared) == ["b"]
        assert registry.stream("a") is drawn

    @pytest.mark.parametrize("seed", [2**32, 2**40 + 3])
    def test_out_of_range_seeds_fall_back(self, seed):
        registry = RngRegistry(seed=seed)
        registry.prepare(NAMES)
        assert registry._prepared == {}
        for name in NAMES:
            reference = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(stable_name_hash(name),))
            )
            for got, want in zip(_draws(registry.stream(name)), _draws(reference)):
                assert np.array_equal(got, want)

    def test_cli_import_leaves_numpy_random_unloaded(self):
        code = "import sys, repro.cli; sys.exit('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _penelope_membership(n_clients):
    return RunSpec(
        "penelope", ("EP", "DC"), 80.0, n_clients=n_clients,
        manager_config=PenelopeConfig(enable_membership=True),
    )


@pytest.mark.parametrize(
    "spec",
    [
        _penelope_membership(64),
        RunSpec("slurm", ("EP", "DC"), 80.0, n_clients=64),
        RunSpec("slurm-ha", ("EP", "DC"), 80.0, n_clients=64),
    ],
    ids=["penelope-membership", "slurm", "slurm-ha"],
)
def test_built_universe_uses_every_prepared_name(spec):
    """A prepared name no installer draws means a template typo: that
    stream would quietly fall back to the slow per-stream path."""
    _, cluster, _ = build_run(spec)
    assert cluster.rngs._prepared == {}
    per_node = 4 if spec.manager == "penelope" else 2
    assert len(cluster.rngs._streams) >= per_node * spec.n_clients
