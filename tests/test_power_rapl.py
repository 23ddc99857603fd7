"""Unit tests for the simulated RAPL interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl


@pytest.fixture
def rapl(engine, rng):
    return SimulatedRapl(
        engine,
        SKYLAKE_6126_NODE,
        rng,
        initial_cap_w=160.0,
        enforcement_delay_s=(0.3, 0.3),
        reading_noise=0.0,
    )


class TestCaps:
    def test_initial_cap(self, rapl):
        assert rapl.cap_w == 160.0
        assert rapl.effective_cap_w == 160.0

    def test_default_initial_cap_is_max(self, engine, rng):
        rapl = SimulatedRapl(engine, SKYLAKE_6126_NODE, rng)
        assert rapl.cap_w == SKYLAKE_6126_NODE.max_cap_w

    def test_set_cap_clamps(self, rapl):
        assert rapl.set_cap(10.0) == 60.0
        assert rapl.set_cap(999.0) == 250.0

    def test_enforcement_is_delayed(self, engine, rapl):
        rapl.set_cap(100.0)
        assert rapl.cap_w == 100.0
        assert rapl.effective_cap_w == 160.0  # not yet enforced
        engine.run(until=0.29)
        assert rapl.effective_cap_w == 160.0
        engine.run(until=0.31)
        assert rapl.effective_cap_w == 100.0

    def test_last_write_wins(self, engine, rapl):
        rapl.set_cap(100.0)
        engine.run(until=0.1)
        rapl.set_cap(200.0)
        engine.run()
        assert rapl.effective_cap_w == 200.0

    def test_enforced_callback_fires(self, engine, rapl):
        enforced = []
        rapl.on_cap_enforced.append(enforced.append)
        rapl.set_cap(120.0)
        engine.run()
        assert enforced == [120.0]

    def test_superseded_write_does_not_fire_callback(self, engine, rapl):
        enforced = []
        rapl.on_cap_enforced.append(enforced.append)
        rapl.set_cap(100.0)
        rapl.set_cap(200.0)  # supersedes before enforcement
        engine.run()
        assert enforced == [200.0]

    def test_zero_delay_enforces_immediately(self, engine, rng):
        rapl = SimulatedRapl(
            engine, SKYLAKE_6126_NODE, rng, enforcement_delay_s=(0.0, 0.0)
        )
        rapl.set_cap(90.0)
        assert rapl.effective_cap_w == 90.0

    def test_cap_writes_counted(self, engine, rapl):
        rapl.set_cap(100.0)
        rapl.set_cap(110.0)
        assert rapl.cap_writes == 2

    def test_invalid_delay_window(self, engine, rng):
        with pytest.raises(ValueError):
            SimulatedRapl(
                engine, SKYLAKE_6126_NODE, rng, enforcement_delay_s=(0.5, 0.2)
            )


class TestEnforcementDelayDraw:
    def test_delays_and_stream_position_equal_uniforms(self, engine):
        # ``lo + (hi - lo) * random()`` is numpy's uniform(lo, hi).
        lo, hi = 0.2, 0.5
        rapl = SimulatedRapl(
            engine, SKYLAKE_6126_NODE, np.random.default_rng(7),
            enforcement_delay_s=(lo, hi),
        )
        reference = np.random.default_rng(7)
        for cap in np.linspace(60.0, 250.0, 2_000):
            rapl.set_cap(float(cap))
        expected = sorted(float(reference.uniform(lo, hi)) for _ in range(2_000))
        queued = []
        while (item := engine.scheduler.pop()) is not None:
            queued.append(item[0])  # due time = now (0) + delay
        assert queued == expected
        assert rapl._rng.bit_generator.state == reference.bit_generator.state


class TestReadings:
    def test_first_read_is_instantaneous_power(self, rapl):
        rapl.set_consumption(123.0)
        assert rapl.read_power() == pytest.approx(123.0)

    def test_read_averages_since_last_read(self, engine, rapl):
        rapl.set_consumption(100.0)
        rapl.read_power()
        engine.run(until=engine.now + 2.0)
        rapl.set_consumption(200.0)
        engine.run(until=engine.now + 2.0)
        assert rapl.read_power() == pytest.approx(150.0)

    def test_consecutive_windows_are_independent(self, engine, rapl):
        rapl.set_consumption(100.0)
        rapl.read_power()
        engine.run(until=engine.now + 1.0)
        assert rapl.read_power() == pytest.approx(100.0)
        rapl.set_consumption(50.0)
        engine.run(until=engine.now + 1.0)
        assert rapl.read_power() == pytest.approx(50.0)

    def test_noise_perturbs_readings(self, engine, rng):
        rapl = SimulatedRapl(
            engine, SKYLAKE_6126_NODE, rng, reading_noise=0.05,
            enforcement_delay_s=(0.0, 0.0),
        )
        rapl.set_consumption(100.0)
        readings = []
        for _ in range(50):
            engine.run(until=engine.now + 1.0)
            readings.append(rapl.read_power())
        assert len(set(readings)) > 1
        assert all(r >= 0 for r in readings)
        assert sum(readings) / len(readings) == pytest.approx(100.0, rel=0.05)

    def test_reads_counted(self, rapl):
        rapl.read_power()
        rapl.read_power()
        assert rapl.power_reads == 2

    def test_negative_noise_rejected(self, engine, rng):
        with pytest.raises(ValueError):
            SimulatedRapl(engine, SKYLAKE_6126_NODE, rng, reading_noise=-0.1)
