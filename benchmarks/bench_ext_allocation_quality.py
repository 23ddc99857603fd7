"""Extension: allocation quality against the offline oracle.

Dynamic power management approximates, online, the allocation an oracle
with offline profiles would pick (PoDD's water-filling split).  This
bench measures how much of the even split's mis-allocation each system
recovers in steady state -- quantifying §2's motivation for dynamic
systems and §3.3's remark that the centralized design converges well at
low scale.
"""

from __future__ import annotations

from conftest import FULL, save_figure

from repro.experiments.allocation import (
    AllocationSpec,
    compare_allocation_quality,
    format_allocation,
)


def bench_allocation_quality(benchmark):
    template = AllocationSpec(
        manager="fair",
        n_clients=20 if FULL else 10,
        workload_scale=1.0 if FULL else 0.5,
        observe_s=60.0 if FULL else 30.0,
        seed=0,
    )
    traces = benchmark.pedantic(
        lambda: compare_allocation_quality(
            managers=("fair", "slurm", "penelope"), template=template
        ),
        rounds=1,
        iterations=1,
    )
    save_figure("ext_allocation_quality", format_allocation(traces))

    recovered = {m: t.recovered_fraction() for m, t in traces.items()}
    benchmark.extra_info.update(
        {f"{m}_recovered_pct": round(100 * v, 1) for m, v in recovered.items()}
    )

    # Fair never moves; both dynamic systems recover a meaningful share of
    # the oracle gap (phase-chasing keeps them from closing it entirely).
    assert abs(recovered["fair"]) < 0.02
    assert recovered["slurm"] > 0.15
    assert recovered["penelope"] > 0.15
    # And the deviation trends down from the even split's starting point.
    for manager in ("slurm", "penelope"):
        trace = traces[manager]
        assert trace.mean_abs_deviation_w[-1] < trace.even_split_deviation_w
