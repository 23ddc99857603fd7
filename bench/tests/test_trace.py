"""Self-time arithmetic, wrapper-cost subtraction and wrapper restoration."""

import sys

import pytest

from bench.trace import BOUNDARIES, Tracer, per_layer_metrics


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def synthetic_tree(tracer: Tracer, clock: FakeClock):
    """outer -> 2 x middle -> inner, each spending known clock time."""

    def inner():
        clock.advance(0.25)

    def middle():
        clock.advance(0.5)
        traced_inner()

    def outer():
        clock.advance(1.0)
        traced_middle()
        clock.advance(2.0)
        traced_middle()

    traced_inner = tracer.wrap("inner", "c", inner)
    traced_middle = tracer.wrap("middle", "b", middle)
    return tracer.wrap("outer", "a", outer)


def test_self_time_is_duration_minus_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = synthetic_tree(tracer, clock)
    clock.advance(0.125)  # untraced time before and after the tree
    outer()
    clock.advance(0.375)
    tracer.wall_s = clock.now
    report = tracer.report(0.0, 0.0)
    boundaries = report["boundaries"]
    assert boundaries["a"] == {"calls": 1, "self_s": pytest.approx(3.0)}
    assert boundaries["b"] == {"calls": 2, "self_s": pytest.approx(1.0)}
    assert boundaries["c"] == {"calls": 2, "self_s": pytest.approx(0.5)}
    assert report["unattributed_s"] == pytest.approx(0.5)
    assert report["closure_residual_s"] == pytest.approx(0.0)
    assert tracer.open_frames() == 0


def test_wrapper_cost_is_charged_to_the_call_and_to_its_caller():
    clock = FakeClock()
    tracer = Tracer(clock)
    synthetic_tree(tracer, clock)()
    tracer.wall_s = clock.now
    inside, outside = 0.01, 0.02
    report = tracer.report(inside, outside)
    boundaries = report["boundaries"]
    # outer: one call of its own, two traced children.
    assert boundaries["a"]["self_s"] == pytest.approx(3.0 - inside - 2 * outside)
    # each middle: one call, one child.
    assert boundaries["b"]["self_s"] == pytest.approx(1.0 - 2 * inside - 2 * outside)
    assert boundaries["c"]["self_s"] == pytest.approx(0.5 - 2 * inside)
    # The root's only child is outer.
    assert report["unattributed_s"] == pytest.approx(-outside)
    assert report["overhead_s"] == pytest.approx(5 * (inside + outside))
    assert report["closure_residual_s"] == pytest.approx(0.0)


def test_a_raising_call_still_closes_its_frame():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    traced = tracer.wrap("boom", "a", boom)
    with pytest.raises(KeyError):
        traced()
    tracer.wall_s = clock.now
    assert tracer.open_frames() == 0
    assert tracer.report(0.0, 0.0)["boundaries"]["a"] == {"calls": 1, "self_s": 1.0}


def test_per_layer_metrics_are_per_pass():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.wrap("Network.send", "net.send", lambda: clock.advance(1.0))()
    tracer.tallies.update({"sim.events": 30, "sim.cancelled": 10})
    tracer.wall_s = clock.now
    metrics = per_layer_metrics(tracer.report(0.0, 0.0), passes=2)
    assert metrics["net.send.calls"] == 0.5
    assert metrics["net.send.self_s"] == 0.5
    assert metrics["sim.events"] == 15
    assert metrics["sim.cancel_ratio"] == 0.25
    assert metrics["membership.view.calls"] == 0


def _bindings():
    """Every attribute of every loaded repro module and class."""
    snapshot = {}
    for name, module in sys.modules.items():
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if isinstance(value, type):
                for member, member_value in vars(value).items():
                    snapshot[(name, attr, member)] = member_value
    return snapshot


def test_install_wraps_every_boundary_and_uninstall_restores_all():
    import bench.workloads  # noqa: F401 -- loads the repro modules the benchmark uses
    from repro.experiments import harness
    from repro.sim.engine import Engine

    before = _bindings()
    original_run = Engine.run
    tracer = Tracer()
    tracer.install()
    try:
        assert Engine.run is not original_run
        assert harness.build_run is not before[("repro.experiments.harness", "build_run")]
        wrapped = {key for _, _, key in BOUNDARIES}
        assert wrapped <= set(tracer.stats)
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert Engine.run is original_run
