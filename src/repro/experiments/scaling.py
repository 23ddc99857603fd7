"""§4.5 / Figures 4-8: the large-scale simulations.

Setup (mirroring the paper): deciders no longer drive real executors --
each node plays back a power profile through a
:class:`~repro.power.trace_source.TracePowerSource`.  Half the nodes
(*donors*) run a profile that finishes at ``release_at_s``, dropping to
idle and releasing a large amount of power into the system; the other
half (*hungry*) run a sustained high-demand profile and try to soak it
up.  Two metrics are computed:

* **power redistribution time** -- time after the release for 50 % /
  100 % of the released power to be granted to hungry nodes (Figs. 4-6);
* **turnaround time** -- how long a decider waits for a pool/server
  response (Figs. 7-8).

Deciders are started near-lockstep (millisecond stagger window), like
daemons launched together at job start; the resulting request bursts are
what drives the central server's queueing delay, its ~tens-of-ms
turnaround at 1056 nodes, and the packet drops past its saturation
frequency (service time 80-100 microseconds per request, strictly serial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import DistributionSummary
from repro.core.config import PenelopeConfig
from repro.experiments.harness import build_universe
from repro.experiments.runner import TaskKind, raise_on_failures, run_sweep
from repro.experiments.metrics import (
    redistribution_time_from_caps,
    timeout_rate,
    turnaround_summary,
)
from repro.instrumentation import MetricsRecorder
from repro.managers.base import ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.power.domain import SKYLAKE_6126_NODE, PowerDomainSpec
from repro.sim.engine import run_callable_at
from repro.workloads.apps import build_app, get_app_model
from repro.workloads.phases import concatenate
from repro.workloads.traces import (
    PowerTrace,
    constant_trace,
    step_release_trace,
    trace_from_workload,
)

#: Default sweeps, paper-shaped: 44 -> 1056 nodes; 1 -> 30 iterations/s.
PAPER_SCALES: Tuple[int, ...] = (44, 132, 264, 528, 792, 1056)
PAPER_FREQUENCIES_HZ: Tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@dataclass(frozen=True)
class ScalingSpec:
    """One point of the scaling study.

    By default the release event is synthetic (constant busy levels with a
    step down at ``release_at_s``).  Setting ``pair`` instead plays back
    the *application pair's* recorded profiles, windowed around the moment
    the shorter app completes -- the paper's §4.5 setup ("we iterate over
    all possible pairs ... a shorter continuous set of power readings that
    occur around when one application completes").
    """

    manager: str  # "penelope" or "slurm"
    n_clients: int = 1056
    frequency_hz: float = 1.0
    cap_w_per_socket: float = 70.0
    donor_demand_w_per_socket: float = 95.0
    hungry_demand_w_per_socket: float = 125.0
    release_at_s: float = 5.0
    observe_for_s: float = 40.0
    seed: int = 0
    spec: PowerDomainSpec = SKYLAKE_6126_NODE
    #: Optional NPB application pair for profile playback (see above).
    pair: Optional[Tuple[str, str]] = None
    #: Near-lockstep daemon start (see module docstring).
    stagger_window_s: float = 2e-3
    #: SLURM server inbox: sized for roughly two full request bursts at the
    #: reference 1056-node scale; a fixed absolute capacity, because a real
    #: server's socket buffer does not grow with the cluster.
    server_inbox_capacity: int = 2048
    manager_config: Optional[ManagerConfig] = None

    def __post_init__(self) -> None:
        if self.manager not in ("penelope", "slurm"):
            raise ValueError("scaling study compares penelope and slurm")
        if self.n_clients < 4 or self.n_clients % 2:
            raise ValueError("n_clients must be an even number >= 4")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.release_at_s <= 0 or self.observe_for_s <= 0:
            raise ValueError("times must be positive")
        if self.pair is not None and self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two distinct applications")

    @property
    def period_s(self) -> float:
        return 1.0 / self.frequency_hz

    @property
    def donor_ids(self) -> range:
        return range(0, self.n_clients // 2)

    @property
    def hungry_ids(self) -> range:
        return range(self.n_clients // 2, self.n_clients)

    @property
    def horizon_s(self) -> float:
        return self.release_at_s + self.observe_for_s

    def build_manager_config(self) -> ManagerConfig:
        """The decider/manager config for this point."""
        if self.manager_config is not None:
            return self.manager_config.with_period(self.period_s)
        if self.manager == "penelope":
            return PenelopeConfig(
                period_s=self.period_s,
                stagger_window_s=self.stagger_window_s,
                overhead_factor=0.0,  # no executors in trace mode
            )
        return SlurmConfig(
            period_s=self.period_s,
            stagger_window_s=self.stagger_window_s,
            overhead_factor=0.0,
            rate_scheme="scale-aware",  # the paper's §4.5 modification
            server_inbox_capacity=self.server_inbox_capacity,
        )


def pair_release_traces(
    pair: Tuple[str, str],
    node_spec: PowerDomainSpec,
    release_at_s: float,
    horizon_s: float,
) -> Tuple[PowerTrace, PowerTrace]:
    """(donor, hungry) profiles for an application pair, §4.5-style.

    The app with the shorter nominal runtime plays the donor: its profile
    is aligned so it completes exactly at ``release_at_s``.  The other app
    keeps computing through the whole window (its profile is tiled
    back-to-back if it would end first), so power should flow donor →
    hungry after the release, whatever the pair.
    """
    first, second = pair
    if get_app_model(first).nominal_runtime_s <= get_app_model(second).nominal_runtime_s:
        donor_app, hungry_app = first, second
    else:
        donor_app, hungry_app = second, first

    donor_workload = build_app(donor_app)  # deterministic nominal instance
    donor_trace = trace_from_workload(donor_workload, node_spec)
    end = donor_workload.total_work_s
    if end >= release_at_s:
        donor_trace = donor_trace.window(
            end - release_at_s, release_at_s + horizon_s
        )
    else:
        donor_trace = donor_trace.shifted(release_at_s - end)

    needed_s = release_at_s + horizon_s
    single = build_app(hungry_app)
    # One extra repetition covers the alignment offset below, so the
    # hungry side computes through the entire window.
    repeats = 1 + max(1, math.ceil(needed_s / single.total_work_s))
    hungry_workload = concatenate(
        hungry_app, [build_app(hungry_app) for _ in range(repeats)]
    )
    hungry_trace = trace_from_workload(hungry_workload, node_spec)
    # Align the hungry profile to the same absolute time base as the donor.
    if end >= release_at_s:
        start = (end - release_at_s) % single.total_work_s
        hungry_trace = hungry_trace.window(start, needed_s)
    return donor_trace, hungry_trace


@dataclass
class ScalingResult:
    """Measurements from one scaling point."""

    spec: ScalingSpec
    available_w: float
    redistribution_median_s: float
    redistribution_total_s: float
    #: True if 100% was never redistributed within the horizon (the total
    #: is then the observation window, as the paper defines for Fig. 5).
    total_capped: bool
    turnaround: Optional[DistributionSummary]
    timeout_fraction: float
    messages_sent: int
    messages_dropped_overflow: int
    server_requests_served: int
    recorder: MetricsRecorder = field(repr=False, default_factory=MetricsRecorder)

    @property
    def turnaround_mean_s(self) -> float:
        return self.turnaround.mean if self.turnaround is not None else float("nan")


def run_scaling_point(spec: ScalingSpec) -> ScalingResult:
    """Simulate one (manager, scale, frequency) point of §4.5."""
    node_spec = spec.spec
    cap_w = spec.cap_w_per_socket * node_spec.sockets

    traces: Dict[int, PowerTrace] = {}
    if spec.pair is not None:
        donor_trace, hungry_trace = pair_release_traces(
            spec.pair, node_spec, spec.release_at_s, spec.observe_for_s
        )
        for node_id in spec.donor_ids:
            traces[node_id] = donor_trace
        for node_id in spec.hungry_ids:
            traces[node_id] = hungry_trace
    else:
        for node_id in spec.donor_ids:
            traces[node_id] = step_release_trace(
                busy_w=spec.donor_demand_w_per_socket * node_spec.sockets,
                finish_at_s=spec.release_at_s,
                idle_w=node_spec.idle_w,
            )
        for node_id in spec.hungry_ids:
            traces[node_id] = constant_trace(
                spec.hungry_demand_w_per_socket * node_spec.sockets
            )

    # Cap samples feed the redistribution metric (net power absorbed by
    # hungry nodes), so they must be recorded.
    engine, cluster, manager = build_universe(
        spec.manager,
        spec.n_clients,
        cap_w * spec.n_clients,
        spec.seed,
        workloads=lambda rngs: {},
        manager_config=spec.build_manager_config(),
        record_caps=True,
        traces=traces,
    )
    manager.start()

    # Snapshot the movable power at the instant the donors finish:
    # releasable = what donor caps hold above the safe minimum (deciders
    # never cap below the floor); absorbable = headroom the hungry side
    # can actually use (up to demand + epsilon, bounded by the safe max).
    # Redistribution can complete only up to the smaller of the two.
    snapshot: Dict[str, object] = {}
    epsilon_w = manager.config.epsilon_w

    def _snapshot_available() -> None:
        releasable = sum(
            max(0.0, cluster.node(d).rapl.cap_w - node_spec.min_cap_w)
            for d in spec.donor_ids
        )
        absorbable = 0.0
        hungry_caps: Dict[int, float] = {}
        for node_id in spec.hungry_ids:
            node = cluster.node(node_id)
            hungry_caps[node_id] = node.rapl.cap_w
            ceiling = min(
                traces[node_id].demand_at(engine.now) + epsilon_w,
                node_spec.max_cap_w,
            )
            absorbable += max(0.0, ceiling - node.rapl.cap_w)
        snapshot["available_w"] = min(releasable, absorbable)
        snapshot["hungry_caps"] = hungry_caps

    run_callable_at(engine, spec.release_at_s, _snapshot_available)
    engine.run(until=spec.horizon_s)
    # The run stops at its horizon with events still queued, and is over.
    engine.release_gc_hold()
    manager.audit().check()
    manager.stop()

    available_w = snapshot["available_w"]
    recorder = manager.recorder
    # Hungry nodes may have drifted away from the even split before the
    # release (pair profiles have phases); measure absorption relative to
    # where each hungry cap actually stood at the release instant.
    initial_caps = snapshot.get("hungry_caps") or {
        node_id: cap_w for node_id in spec.hungry_ids
    }
    if available_w <= 0.0:
        median = 0.0
        total = 0.0
    else:
        median = redistribution_time_from_caps(
            recorder, spec.hungry_ids, initial_caps, available_w, 0.5,
            t0=spec.release_at_s,
        )
        total = redistribution_time_from_caps(
            recorder, spec.hungry_ids, initial_caps, available_w, 1.0,
            t0=spec.release_at_s,
        )
    total_capped = total == float("inf")
    if median == float("inf"):
        median = spec.observe_for_s
    if total_capped:
        total = spec.observe_for_s

    server_served = 0
    if spec.manager == "slurm":
        server_served = manager.server.server.requests_served  # type: ignore[union-attr]
    else:
        server_served = sum(
            pool.requests_handled
            for pool in manager.pools.values()  # type: ignore[union-attr]
        )

    return ScalingResult(
        spec=spec,
        available_w=available_w,
        redistribution_median_s=median,
        redistribution_total_s=total,
        total_capped=total_capped,
        turnaround=turnaround_summary(recorder),
        timeout_fraction=timeout_rate(recorder),
        messages_sent=cluster.network.stats.sent,
        messages_dropped_overflow=cluster.network.stats.dropped_overflow,
        server_requests_served=server_served,
        recorder=recorder,
    )


#: :func:`run_scaling_point` as a sweep-runner task kind.
SCALING_RUN = TaskKind("scaling", run_scaling_point, ScalingSpec, ScalingResult)


def sweep_frequency(
    frequencies_hz: Sequence[float] = PAPER_FREQUENCIES_HZ,
    n_clients: int = 1056,
    managers: Sequence[str] = ("penelope", "slurm"),
    seed: int = 0,
    observe_for_s: Optional[float] = None,
    base: Optional[ScalingSpec] = None,
    **runner_kwargs: Any,
) -> Dict[Tuple[str, float], ScalingResult]:
    """Figures 4, 5, 7: fix the scale, sweep decider frequency."""
    template = base or ScalingSpec(manager="penelope", n_clients=n_clients, seed=seed)
    points: List[ScalingSpec] = []
    keys: List[Tuple[str, float]] = []
    for manager in managers:
        for freq in frequencies_hz:
            observe = (
                observe_for_s
                if observe_for_s is not None
                # Higher frequency converges faster, but leave enough room
                # for the slow tail of total redistribution: at least 15 s,
                # or 60 decider iterations, whichever is longer.
                else max(15.0, 60.0 / freq)
            )
            points.append(
                replace(
                    template,
                    manager=manager,
                    n_clients=n_clients,
                    frequency_hz=freq,
                    observe_for_s=observe,
                    seed=seed,
                )
            )
            keys.append((manager, freq))
    runs = raise_on_failures(
        run_sweep(points, kind=SCALING_RUN, **runner_kwargs),
        context="frequency sweep",
    )
    return dict(zip(keys, runs))


def sweep_pairs(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    n_clients: int = 44,
    frequency_hz: float = 1.0,
    managers: Sequence[str] = ("penelope", "slurm"),
    seed: int = 0,
    observe_for_s: float = 30.0,
    **runner_kwargs: Any,
) -> Dict[Tuple[str, Tuple[str, str]], ScalingResult]:
    """The paper's per-pair distributions: one scaling run per application
    pair, using windowed pair profiles (§4.5: "we compute the value in
    question under all 36 pairs of applications and plot the distribution").

    Pairs whose donor had nothing left to release at the window (its
    excess was already shifted before the release event) report
    ``available_w == 0`` and zero redistribution time; filter on
    ``available_w`` when summarizing.
    """
    from repro.workloads.generator import unique_pairs

    pair_list = list(pairs) if pairs is not None else unique_pairs()
    points: List[ScalingSpec] = []
    keys: List[Tuple[str, Tuple[str, str]]] = []
    for manager in managers:
        for pair in pair_list:
            points.append(
                ScalingSpec(
                    manager=manager,
                    n_clients=n_clients,
                    frequency_hz=frequency_hz,
                    observe_for_s=observe_for_s,
                    pair=pair,
                    seed=seed,
                )
            )
            keys.append((manager, pair))
    runs = raise_on_failures(
        run_sweep(points, kind=SCALING_RUN, **runner_kwargs),
        context="pair sweep",
    )
    return dict(zip(keys, runs))


def sweep_scale(
    scales: Sequence[int] = PAPER_SCALES,
    frequency_hz: float = 1.0,
    managers: Sequence[str] = ("penelope", "slurm"),
    seed: int = 0,
    observe_for_s: float = 40.0,
    base: Optional[ScalingSpec] = None,
    **runner_kwargs: Any,
) -> Dict[Tuple[str, int], ScalingResult]:
    """Figures 6, 8: fix the frequency at 1/s, sweep the node count."""
    template = base or ScalingSpec(manager="penelope", seed=seed)
    points: List[ScalingSpec] = []
    keys: List[Tuple[str, int]] = []
    for manager in managers:
        for scale in scales:
            points.append(
                replace(
                    template,
                    manager=manager,
                    n_clients=scale,
                    frequency_hz=frequency_hz,
                    observe_for_s=observe_for_s,
                    seed=seed,
                )
            )
            keys.append((manager, scale))
    runs = raise_on_failures(
        run_sweep(points, kind=SCALING_RUN, **runner_kwargs),
        context="scale sweep",
    )
    return dict(zip(keys, runs))
