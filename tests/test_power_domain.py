"""Unit tests for the power-domain spec."""

from __future__ import annotations

import pytest

from repro.power.domain import SKYLAKE_6126_NODE, PowerDomainSpec


class TestAggregates:
    def test_default_node_matches_paper_testbed(self):
        spec = SKYLAKE_6126_NODE
        assert spec.sockets == 2
        assert spec.min_cap_w == 60.0
        assert spec.max_cap_w == 250.0
        assert spec.idle_w == 30.0

    def test_single_socket(self):
        spec = PowerDomainSpec(sockets=1, min_cap_w_per_socket=20,
                               max_cap_w_per_socket=90, idle_w_per_socket=10)
        assert spec.min_cap_w == 20 and spec.max_cap_w == 90 and spec.idle_w == 10


class TestClamping:
    @pytest.mark.parametrize(
        "requested,expected",
        [(10.0, 60.0), (60.0, 60.0), (150.0, 150.0), (250.0, 250.0), (400.0, 250.0)],
    )
    def test_clamp_cap(self, requested, expected):
        assert SKYLAKE_6126_NODE.clamp_cap(requested) == expected

    @pytest.mark.parametrize(
        "requested",
        [-0.0, 0.0, 59.999999, 60.0, 60.5, 249.99, 250.0, 1e300,
         float("inf"), float("-inf"), float("nan")],
    )
    def test_clamp_cap_is_min_of_max(self, requested):
        spec = PowerDomainSpec(sockets=3, min_cap_w_per_socket=20.1, max_cap_w_per_socket=83.3)
        for domain in (SKYLAKE_6126_NODE, spec):
            expected = min(max(requested, domain.min_cap_w), domain.max_cap_w)
            assert repr(domain.clamp_cap(requested)) == repr(expected)

    def test_is_safe_cap(self):
        spec = SKYLAKE_6126_NODE
        assert spec.is_safe_cap(60.0)
        assert spec.is_safe_cap(250.0)
        assert not spec.is_safe_cap(59.0)
        assert not spec.is_safe_cap(251.0)

    def test_is_safe_cap_tolerance(self):
        spec = SKYLAKE_6126_NODE
        assert spec.is_safe_cap(60.0 - 1e-12)
        assert spec.is_safe_cap(250.0 + 1e-12)


class TestValidation:
    def test_zero_sockets_rejected(self):
        with pytest.raises(ValueError):
            PowerDomainSpec(sockets=0)

    def test_idle_above_min_rejected(self):
        with pytest.raises(ValueError):
            PowerDomainSpec(idle_w_per_socket=50.0, min_cap_w_per_socket=30.0)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            PowerDomainSpec(min_cap_w_per_socket=130.0, max_cap_w_per_socket=125.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ValueError):
            PowerDomainSpec(idle_w_per_socket=-1.0)
