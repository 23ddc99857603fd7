"""Unit tests for the energy meter."""

from __future__ import annotations

import pytest

from repro.power.meter import EnergyMeter


class TestIntegration:
    def test_constant_power(self, engine):
        meter = EnergyMeter(engine, initial_power_w=100.0)
        engine.run(until=engine.now + 10.0)
        assert meter.energy_j() == pytest.approx(1000.0)

    def test_piecewise_constant(self, engine):
        meter = EnergyMeter(engine, initial_power_w=50.0)
        engine.run(until=engine.now + 2.0)
        meter.set_power(150.0)
        engine.run(until=engine.now + 3.0)
        # 50*2 + 150*3
        assert meter.energy_j() == pytest.approx(550.0)

    def test_zero_elapsed_time_changes(self, engine):
        meter = EnergyMeter(engine, initial_power_w=10.0)
        meter.set_power(20.0)
        meter.set_power(30.0)
        assert meter.energy_j() == 0.0
        assert meter.power_w == 30.0

    def test_average_since(self, engine):
        meter = EnergyMeter(engine, initial_power_w=100.0)
        t0, e0 = engine.now, meter.energy_j()
        engine.run(until=engine.now + 4.0)
        meter.set_power(200.0)
        engine.run(until=engine.now + 4.0)
        assert meter.average_since(t0, e0) == pytest.approx(150.0)

    def test_average_over_empty_window_is_instantaneous(self, engine):
        meter = EnergyMeter(engine, initial_power_w=75.0)
        assert meter.average_since(engine.now, meter.energy_j()) == 75.0

    def test_negative_power_rejected(self, engine):
        meter = EnergyMeter(engine)
        with pytest.raises(ValueError):
            meter.set_power(-1.0)
        with pytest.raises(ValueError):
            EnergyMeter(engine, initial_power_w=-5.0)


class TestTrace:
    def test_trace_requires_enable(self, engine):
        meter = EnergyMeter(engine)
        with pytest.raises(RuntimeError):
            _ = meter.trace

    def test_trace_records_breakpoints(self, engine):
        meter = EnergyMeter(engine, initial_power_w=10.0)
        meter.enable_trace()
        engine.run(until=engine.now + 1.0)
        meter.set_power(20.0)
        engine.run(until=engine.now + 1.0)
        meter.set_power(5.0)
        assert meter.trace == [(0.0, 10.0), (1.0, 20.0), (2.0, 5.0)]

    def test_double_enable_is_noop(self, engine):
        meter = EnergyMeter(engine, initial_power_w=10.0)
        meter.enable_trace()
        meter.enable_trace()
        assert meter.trace == [(0.0, 10.0)]
