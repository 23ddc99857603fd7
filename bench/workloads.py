"""The benchmark's four workloads: one *pass* of fixed work each, and its checks.

A run repeats whole passes until its measured time reaches
``--seconds``; every pass of a run does identical work for the run's
seed, so passes compare with each other and their digests must match.
All four are closed loops: one in-process caller with ``jobs=1`` whose
next unit of work starts when the previous one ends.  (On the two
shared cores of the reference box a parallel runner would measure the
host scheduler, not the program.)

Only public ``repro`` entry points are called.  Layer boundaries the
tracer wraps (``build_run``) are looked up on their module at call time,
so a traced run sees the benchmark's own calls too.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import time
import traceback
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.manager import ConservationLedger
from repro.experiments import harness, serialize
from repro.experiments.chaos import (
    ChaosSpec,
    build_chaos_plan,
    chaos_result_to_dict,
    run_chaos_single,
)
from repro.experiments.faulty import FaultyResult, run_faulty_sweep
from repro.experiments.nominal import NominalResult, run_nominal_sweep
from repro.experiments.runner import ProgressEvent, SweepFailure
from repro.sim.engine import Engine
from repro.workloads.generator import unique_pairs

from bench.timing import Stopwatch, timed
from bench.trace import Tracer

Check = Tuple[str, bool, str]


@dataclass
class PassResult:
    """What one pass did: ops attempted and failed, output digest, checks."""

    ops: int
    failed: int
    digest: str
    checks: List[Check]
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload: :meth:`run_pass` does a pass of fixed work.

    The pass opens and closes the stopwatch's measured section itself,
    so set-up, digests and checks stay outside the timed region.
    """

    name = ""
    #: What one op is, for the printed report.
    op_label = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        #: Normalised set-up times measured inside the workload (kernel builds).
        self.setup_samples: List[float] = []

    def run_pass(self, sw: Stopwatch) -> PassResult:
        raise NotImplementedError

    def complete_setups(self, count: int) -> None:
        """Take further set-up samples until ``count`` exist (if any apply)."""

    def _op(self, sw: Stopwatch, name: str, start: float, end: float) -> None:
        sw.op(end - start)
        if self.tracer is not None:
            self.tracer.span(name, "op", start, end - start)

    def _bookkeeping(self) -> AbstractContextManager:
        """Digests, checks and teardown: not the program's time."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()


def _guarded(name: str, fn: Callable[[], None]) -> Check:
    """Run an assertion-style check; a raised AssertionError fails it."""
    try:
        fn()
    except AssertionError as exc:
        return (name, False, str(exc))
    return (name, True, "")


def _failure(name: str, exc: BaseException) -> Check:
    return (name, False, "".join(traceback.format_exception_only(type(exc), exc)).strip())


# -- campaigns (Fig. 2 + Fig. 3 sweeps) ----------------------------------------


@dataclass(frozen=True)
class Campaign:
    """The reduced §4.3/§4.4 campaign both campaign workloads run."""

    #: Every ``pair_step``-th of the 36 unique application pairs.
    pair_step: int
    caps: Tuple[float, ...]
    n_clients: int
    workload_scale: float
    #: Check the paper's Fig. 2/3 claims (too few runs in smoke sizes).
    check_claims: bool


#: 3 pairs x 5 caps x {fair, slurm, penelope} in both sweeps: 90 specs,
#: 75 executed runs (the faulty sweep's 15 Fair cells hit the nominal
#: sweep's cache entries).
CAMPAIGN = Campaign(12, (60.0, 70.0, 80.0, 90.0, 100.0), 20, 0.25, True)
CAMPAIGN_SMOKE = Campaign(36, (60.0, 100.0), 20, 0.05, False)

#: Fig. 2 (nominal): SLURM and Penelope geomeans stay this close.
NOMINAL_GAP_MAX = 0.05


def run_campaign(
    campaign: Campaign,
    seed: int,
    cache_dir: Path,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> Tuple[NominalResult, FaultyResult]:
    """The nominal then the faulty sweep, sharing one cache directory."""
    kwargs: Dict[str, Any] = dict(
        caps=campaign.caps,
        pairs=unique_pairs()[:: campaign.pair_step],
        n_clients=campaign.n_clients,
        seed=seed,
        workload_scale=campaign.workload_scale,
        jobs=1,
        cache_dir=str(cache_dir),
        progress=progress,
    )
    return run_nominal_sweep(**kwargs), run_faulty_sweep(**kwargs)


def campaign_digest(nominal: NominalResult, faulty: FaultyResult) -> str:
    """sha256 of both sweeps' result tables."""

    def table(result: Any) -> Dict[str, Any]:
        return {
            "normalized": [
                [system, cap, list(pair), value]
                for (system, cap, pair), value in result.normalized.items()
            ],
            "fair_runtimes": [
                [cap, list(pair), value] for (cap, pair), value in result.fair_runtimes.items()
            ],
        }

    return serialize.sha256_of({"nominal": table(nominal), "faulty": table(faulty)})


def campaign_claims(nominal: NominalResult, faulty: FaultyResult) -> List[Check]:
    advantage = faulty.penelope_advantage_over_slurm()
    gap = nominal.overall_geomean("slurm") / nominal.overall_geomean("penelope") - 1.0
    return [
        ("fig3 penelope beats slurm when a node fails", advantage > 0.0, f"{advantage:+.2%}"),
        (
            "fig2 slurm and penelope geomeans within 5%",
            abs(gap) <= NOMINAL_GAP_MAX,
            f"slurm/penelope {gap:+.2%}",
        ),
    ]


def populate_cache(seed: int, smoke: bool, cache_dir: Path) -> str:
    """Run the campaign once, untimed, into ``cache_dir``; its digest."""
    nominal, faulty = run_campaign(CAMPAIGN_SMOKE if smoke else CAMPAIGN, seed, cache_dir)
    return campaign_digest(nominal, faulty)


class _SpecTimer:
    """Progress listener timing each finished spec as the gap since the last.

    Specs whose ``cached`` flag matches ``cached`` are ops; the others
    are counted apart (shared cells on a cold pass, misses on a warm one).
    """

    def __init__(self, workload: Workload, sw: Stopwatch, cached: bool) -> None:
        self.workload = workload
        self.sw = sw
        self.cached = cached
        self.ops = 0
        self.others = 0
        self.last = time.perf_counter()

    def __call__(self, event: ProgressEvent) -> None:
        now = time.perf_counter()
        if event.cached == self.cached:
            self.workload._op(self.sw, "spec", self.last, now)
            self.ops += 1
        else:
            self.others += 1
        self.sw.maybe_probe()
        self.last = time.perf_counter()


class CampaignCold(Workload):
    """The campaign into a fresh cache: every run executes and is stored."""

    name = "campaign-cold"
    op_label = "executed run"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, smoke, workdir, tracer)
        self.campaign = CAMPAIGN_SMOKE if smoke else CAMPAIGN
        self._passes = 0

    def run_pass(self, sw: Stopwatch) -> PassResult:
        cache_dir = self.workdir / f"cold-cache-{self._passes}"
        self._passes += 1
        timer = _SpecTimer(self, sw, cached=False)
        sw.begin()
        timer.last = time.perf_counter()
        try:
            nominal, faulty = run_campaign(self.campaign, self.seed, cache_dir, timer)
        except SweepFailure as exc:
            return PassResult(timer.ops, len(exc.failures), "", [_failure("no quarantined spec", exc)])
        finally:
            sw.end()
            with self._bookkeeping():
                shutil.rmtree(cache_dir, ignore_errors=True)
        with self._bookkeeping():
            checks: List[Check] = [("no quarantined spec", True, f"{timer.ops} runs executed")]
            if self.campaign.check_claims:
                checks.extend(campaign_claims(nominal, faulty))
            return PassResult(timer.ops, 0, campaign_digest(nominal, faulty), checks)


class CampaignWarm(Workload):
    """The same campaign replayed from the cache a cold pass wrote."""

    name = "campaign-warm"
    op_label = "restored spec"

    def __init__(
        self,
        seed: int,
        smoke: bool,
        workdir: Path,
        tracer: Optional[Tracer],
        cache_dir: Path,
        cold_digest: str,
    ) -> None:
        super().__init__(seed, smoke, workdir, tracer)
        self.campaign = CAMPAIGN_SMOKE if smoke else CAMPAIGN
        self.cache_dir = cache_dir
        self.cold_digest = cold_digest

    def run_pass(self, sw: Stopwatch) -> PassResult:
        timer = _SpecTimer(self, sw, cached=True)
        sw.begin()
        timer.last = time.perf_counter()
        try:
            nominal, faulty = run_campaign(self.campaign, self.seed, self.cache_dir, timer)
        except SweepFailure as exc:
            failed = len(exc.failures) + timer.others
            return PassResult(timer.ops + timer.others, failed, "", [_failure("no quarantined spec", exc)])
        finally:
            sw.end()
        with self._bookkeeping():
            digest = campaign_digest(nominal, faulty)
        checks: List[Check] = [
            ("every spec restored from the cache", timer.others == 0, f"{timer.others} misses"),
            ("tables equal the cold pass's", digest == self.cold_digest, digest[:16]),
        ]
        return PassResult(timer.ops + timer.others, timer.others, digest, checks)


# -- kernel-10k ------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    n_clients: int
    slice_s: float
    slices: int


#: Penelope nominal EP:DC at 80 W/socket over 8 sim-s in 0.08 s slices.
KERNEL = Kernel(10_000, 0.08, 100)
KERNEL_SMOKE = Kernel(64, 0.1, 20)


def logical_events(cluster: Any, manager: Any) -> int:
    """Scenario events any correct kernel simulates identically.

    Messages sent, RAPL cap writes and power reads, decider iterations
    and failure-detector probe rounds -- the count ``repro bench``
    reports, independent of how many queue events the kernel needed.
    """
    total = cluster.network.stats.sent
    for node in cluster.compute_nodes():
        total += node.rapl.cap_writes + node.rapl.power_reads
    total += sum(decider.iterations for decider in manager.deciders.values())
    total += sum(detector.probe_rounds for detector in manager.detectors.values())
    return int(total)


def kernel_digest(cluster: Any, manager: Any, events: int) -> str:
    """sha256 of the simulated state at the horizon (never queue internals)."""
    recorder = manager.recorder
    return serialize.sha256_of(
        {
            "logical_events": events,
            "network": serialize.network_stats_to_dict(cluster.network.stats),
            "counters": recorder.counters,
            "transactions": len(recorder.transactions),
            "turnarounds": len(recorder.turnarounds),
            "caps": [node.rapl.cap_w for node in cluster.nodes],
            "pooled_w": manager.pooled_power_w(),
        }
    )


class Kernel10k(Workload):
    """A 10 000-node universe: build and start it, then run fixed slices."""

    name = "kernel-10k"
    op_label = "sim slice"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, smoke, workdir, tracer)
        self.size = KERNEL_SMOKE if smoke else KERNEL
        self.spec = harness.RunSpec(
            "penelope",
            ("EP", "DC"),
            80.0,
            n_clients=self.size.n_clients,
            seed=seed,
            workload_scale=1.0,
        )

    def _build(self) -> Tuple[Any, Any, Any]:
        engine, cluster, manager = harness.build_run(self.spec)
        manager.start()
        cluster.start_workloads()
        return engine, cluster, manager

    def _timed_build(self) -> Tuple[Any, Any, Any]:
        universe, _, normalised = timed(self._build)
        self.setup_samples.append(normalised)
        return universe

    def complete_setups(self, count: int) -> None:
        while len(self.setup_samples) < count:
            self._timed_build()
            # The universe is garbage once _timed_build returns; collect
            # its reference cycles before the next build so peak RSS stays
            # one universe.
            gc.collect()

    def run_pass(self, sw: Stopwatch) -> PassResult:
        engine, cluster, manager = self._timed_build()
        size = self.size
        checks: List[Check] = []
        attempted = failed = 0
        sw.begin()
        try:
            for k in range(1, size.slices + 1):
                attempted += 1
                start = time.perf_counter()
                engine.run(until=k * size.slice_s)
                self._op(sw, "slice", start, time.perf_counter())
                sw.maybe_probe()
        except Exception as exc:  # the pass reports the failure, the run goes on
            failed = 1
            checks.append(_failure("every slice ran", exc))
        sw.end()
        with self._bookkeeping():
            events = logical_events(cluster, manager)
            checks.append(_guarded("§2.1 budget audit", lambda: manager.audit().check()))
            checks.append(_guarded("conservation ledger", lambda: manager.ledger().check()))
            checks.append(("logical events counted", events > 0, str(events)))
            digest = kernel_digest(cluster, manager, events)
            del engine, cluster, manager
            gc.collect()
        return PassResult(attempted, failed, digest, checks, {"logical_events": events})


# -- chaos-membership ------------------------------------------------------------


@dataclass(frozen=True)
class Chaos:
    n_clients: int
    duration_s: float
    kills: int
    slice_s: float


CHAOS = Chaos(512, 20.0, 16, 0.2)
CHAOS_SMOKE = Chaos(32, 5.0, 4, 0.25)

#: The fault schedule is drawn from this fixed seed; the run's seed
#: drives the simulation's own streams.  Schedules drawn per seed differ
#: 30-40% in cost (a partition isolates 11 to 93 of the 512 nodes), which
#: would swamp every bound (bench/README.md, "Workloads").
STORM_SEED = 2022


def chaos_spec(size: Chaos, seed: int) -> ChaosSpec:
    return ChaosSpec(
        n_clients=size.n_clients,
        seed=seed,
        duration_s=size.duration_s,
        kills=size.kills,
        flaps=2,
        bursts=2,
        partitions=1,
        enable_membership=True,
        duplicate_bursts=2,
        reorder_bursts=2,
        clock_drifts=2,
        slow_nodes=2,
    )


@contextmanager
def sliced_runs(slice_s: float, on_slice: Callable[[float, float], None]) -> Iterator[None]:
    """Make every ``Engine.run(until=<number>)`` advance in timed slices.

    ``run(until=t)`` is equivalent to running to ``t`` in consecutive
    steps -- the queue is drained up to each step and nothing is
    scheduled between steps -- so the simulation is unchanged.
    ``on_slice(start, end)`` receives each slice's wall-clock bounds.
    """
    run = Engine.run

    def sliced(engine: Engine, until: Any = None) -> Any:
        if not isinstance(until, (int, float)):
            return run(engine, until)
        horizon = float(until)
        origin = engine.now
        k = 1
        while True:
            # k * slice_s, not a running sum: no drift into an extra sliver.
            step = min(horizon, origin + k * slice_s)
            start = time.perf_counter()
            run(engine, step)
            on_slice(start, time.perf_counter())
            if step >= horizon:
                return None
            k += 1

    Engine.run = sliced
    try:
        yield
    finally:
        Engine.run = run


class ChaosMembership(Workload):
    """One audited chaos storm with the SWIM failure detector on every node."""

    name = "chaos-membership"
    op_label = "sim slice"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, smoke, workdir, tracer)
        self.size = CHAOS_SMOKE if smoke else CHAOS
        self.spec = chaos_spec(self.size, seed)

    def run_pass(self, sw: Stopwatch) -> PassResult:
        plan = build_chaos_plan(dataclasses.replace(self.spec, seed=STORM_SEED))
        slices = 0

        def on_slice(start: float, end: float) -> None:
            nonlocal slices
            self._op(sw, "slice", start, end)
            slices += 1
            sw.maybe_probe()

        sw.begin()
        try:
            with sliced_runs(self.size.slice_s, on_slice):
                result = run_chaos_single(self.spec, plan=plan)
        except Exception as exc:  # an invariant violation raises (fail-fast)
            return PassResult(slices + 1, 1, "", [_failure("storm ran to its horizon", exc)])
        finally:
            sw.end()
        with self._bookkeeping():
            digest = serialize.sha256_of(chaos_result_to_dict(result))
        violations = len(result.violations)
        residual = result.max_abs_residual_w
        checks: List[Check] = [
            ("no invariant violation", violations == 0, f"{violations} violations"),
            (
                "ledger residual <= 1e-6 W",
                residual <= ConservationLedger.TOLERANCE_W,
                f"{residual:.3e} W over {result.n_audits} audits",
            ),
        ]
        return PassResult(slices, violations, digest, checks)


def make_workload(
    name: str,
    seed: int,
    smoke: bool,
    workdir: Path,
    tracer: Optional[Tracer],
    cache_dir: Optional[Path] = None,
    cold_digest: str = "",
) -> Workload:
    if name == CampaignWarm.name:
        if cache_dir is None:
            raise ValueError("campaign-warm needs the cache a cold pass populated")
        return CampaignWarm(seed, smoke, workdir, tracer, cache_dir, cold_digest)
    for cls in (CampaignCold, Kernel10k, ChaosMembership):
        if cls.name == name:
            return cls(seed, smoke, workdir, tracer)
    raise ValueError(f"unknown workload {name!r}")
