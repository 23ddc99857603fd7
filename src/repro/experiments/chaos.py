"""Chaos sweep: randomized fault schedules under a continuous budget auditor.

The nominal and faulty experiments audit conservation *once*, after the
run.  That is too weak for the escrowed-transfer protocol: a leak that a
later refund happens to cancel would pass a final audit.  This module
runs Penelope under a seeded storm of kills, crash-restarts, flapping
partitions and loss bursts while a :class:`BudgetAuditor` daemon samples
the :class:`~repro.core.manager.ConservationLedger` every few simulated
seconds and asserts, at every sample, that

    freed + escrowed + pooled + capped == budget - dead-node write-offs

to within float tolerance -- zero watts silently destroyed, at every
instant, not just at the end.  Every sampled term lands in the
recorder's ledger-sample log so a run's full conservation trajectory can
be replayed from its cache file.

The fault schedule is derived deterministically from the spec's seed (a
dedicated RNG registry, so the schedule never perturbs the simulation's
own streams): same spec, same storm, same trajectory.
"""

from __future__ import annotations

import dataclasses
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import ConservationLedger, PenelopeManager
from repro.experiments import serialize
from repro.experiments.invariants import (
    Invariant,
    InvariantMonitor,
    InvariantViolation,
    violation_from_dict,
    violation_to_dict,
)
from repro.experiments.runner import TaskKind, run_sweep
from repro.instrumentation import MetricsRecorder
from repro.net.network import NetworkStats
from repro.sim._stop import stop_process
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos run: cluster shape plus fault-storm intensity.

    The concrete schedule (who dies when, which links flap, when the
    fabric degrades) is *derived* from ``seed`` by
    :func:`build_chaos_plan`; the spec only fixes the storm's intensity,
    which keeps the cache key small and the schedule reproducible.
    """

    n_clients: int = 12
    pair: Tuple[str, str] = ("MG", "EP")
    cap_w_per_socket: float = 70.0
    seed: int = 0
    duration_s: float = 60.0
    workload_scale: float = 0.25
    #: Nodes killed (each gets a paired restart later in the run).
    kills: int = 2
    #: Flapping single-node partitions.
    flaps: int = 2
    #: Timed fabric loss bursts.
    bursts: int = 2
    #: Multi-node partitions with a scheduled heal (the membership
    #: detector's partition/heal convergence scenario).
    partitions: int = 0
    #: Run the SWIM-style failure detector and score it against the
    #: schedule's ground truth (:func:`compute_detector_report`).
    enable_membership: bool = False
    #: Detector probe period when membership is enabled (chaos default is
    #: tighter than the config default so short smoke runs still resolve
    #: suspect -> confirm -> refute cycles).
    membership_probe_period_s: float = 0.5
    #: Loss probability during a burst (the acceptance criterion's 2%).
    burst_loss: float = 0.02
    #: Steady-state fabric loss between bursts.
    base_loss: float = 0.0
    #: Auditor probe period (simulated seconds).
    audit_interval_s: float = 1.0
    #: Reliable-transfer knobs exercised by the storm.  The response
    #: timeout is shorter than the decider period so the period-bounded
    #: retry budget actually admits retries.
    response_timeout_s: float = 0.3
    request_retries: int = 2
    grant_ack_retries: int = 2
    #: Adversarial fault families (all default-off): counts of scheduled
    #: message-duplication bursts, reordering-window bursts, per-node
    #: clock drifts, and gray-slow node windows.
    duplicate_bursts: int = 0
    reorder_bursts: int = 0
    clock_drifts: int = 0
    slow_nodes: int = 0
    #: Intensities for the adversarial families: per-message duplication
    #: probability inside a burst, extra-latency window width while
    #: reordering, maximum |drift| rate, and the worst slow-node latency
    #: multiplier (draws span [2, slow_factor]).
    duplicate_prob: float = 0.1
    reorder_window_s: float = 0.05
    max_drift_rate: float = 0.05
    slow_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.n_clients < 4:
            raise ValueError("chaos runs need at least four client nodes")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.kills < 0 or self.flaps < 0 or self.bursts < 0:
            raise ValueError("fault counts must be non-negative")
        if self.partitions < 0:
            raise ValueError("fault counts must be non-negative")
        if (
            self.duplicate_bursts < 0
            or self.reorder_bursts < 0
            or self.clock_drifts < 0
            or self.slow_nodes < 0
        ):
            raise ValueError("fault counts must be non-negative")
        if self.membership_probe_period_s <= 0:
            raise ValueError("membership probe period must be positive")
        if self.kills >= self.n_clients:
            raise ValueError("cannot kill every client node")
        if not (0.0 <= self.burst_loss < 1.0):
            raise ValueError(f"burst loss out of [0, 1): {self.burst_loss!r}")
        if not (0.0 <= self.base_loss < 1.0):
            raise ValueError(f"base loss out of [0, 1): {self.base_loss!r}")
        if not (0.0 <= self.duplicate_prob < 1.0):
            raise ValueError(
                f"duplicate probability out of [0, 1): {self.duplicate_prob!r}"
            )
        if self.reorder_window_s <= 0:
            raise ValueError("reorder window must be positive")
        if not (0.0 < self.max_drift_rate < 1.0):
            raise ValueError(f"max drift rate out of (0, 1): {self.max_drift_rate!r}")
        if self.slow_factor <= 1.0:
            raise ValueError(f"slow factor must exceed 1: {self.slow_factor!r}")
        if self.audit_interval_s <= 0:
            raise ValueError("audit interval must be positive")

    @property
    def budget_w(self) -> float:
        """System budget: the per-socket cap over all client sockets."""
        return self.cap_w_per_socket * 2 * self.n_clients


def build_chaos_plan(spec: ChaosSpec) -> FaultPlan:
    """Derive ``spec``'s randomized fault schedule, deterministically.

    * **Kills** hit distinct victims in the first half of the run; each
      victim restarts 10-30% of the run later (always before the end,
      so the auditor sees the write-off both grow and get spent).
    * **Flaps** isolate one node for a few short down/up cycles --
      the adversarial case for peer suspicion.
    * **Loss bursts** raise the fabric loss rate to ``burst_loss`` for
      5-15% of the run.
    * **Partitions** cut off a random minority group mid-run and heal it
      15-25% of the run later -- the membership detector's
      convergence-after-heal scenario.  Drawn *last* so schedules of
      specs without partitions replay identically to before the knob
      existed.

    The schedule RNG is a dedicated registry keyed only by the seed;
    the simulation's own registry (same seed, different stream names)
    never sees these draws.
    """
    rng = RngRegistry(seed=spec.seed).stream("chaos.schedule")
    plan = FaultPlan()
    horizon = spec.duration_s
    victims = rng.choice(spec.n_clients, size=spec.kills, replace=False)
    for victim in victims:
        killed_at = float(rng.uniform(0.15, 0.5) * horizon)
        restart_at = killed_at + float(rng.uniform(0.10, 0.30) * horizon)
        plan.kill(int(victim), killed_at)
        plan.restart(int(victim), min(restart_at, 0.95 * horizon))
    for _ in range(spec.flaps):
        flapped = int(rng.integers(spec.n_clients))
        at = float(rng.uniform(0.10, 0.60) * horizon)
        down_s = float(rng.uniform(0.02, 0.05) * horizon)
        up_s = float(rng.uniform(0.02, 0.05) * horizon)
        cycles = int(rng.integers(2, 5))
        plan.flap([flapped], at, down_s, up_s, cycles)
    for _ in range(spec.bursts):
        at = float(rng.uniform(0.10, 0.80) * horizon)
        duration_s = float(rng.uniform(0.05, 0.15) * horizon)
        plan.loss_burst(spec.burst_loss, at, duration_s)
    for _ in range(spec.partitions):
        size = int(rng.integers(1, max(2, spec.n_clients // 4 + 1)))
        isolated = sorted(
            int(node) for node in rng.choice(spec.n_clients, size=size, replace=False)
        )
        at = float(rng.uniform(0.20, 0.55) * horizon)
        heal_after_s = float(rng.uniform(0.15, 0.25) * horizon)
        plan.partition(isolated, at, heal_after_s)
    # The adversarial families postdate partitions; drawn last, in a
    # fixed order, so schedules of specs without them replay identically.
    for _ in range(spec.duplicate_bursts):
        at = float(rng.uniform(0.10, 0.80) * horizon)
        duration_s = float(rng.uniform(0.05, 0.15) * horizon)
        plan.duplicate_burst(spec.duplicate_prob, at, duration_s)
    for _ in range(spec.reorder_bursts):
        at = float(rng.uniform(0.10, 0.80) * horizon)
        duration_s = float(rng.uniform(0.05, 0.15) * horizon)
        plan.reorder_burst(spec.reorder_window_s, at, duration_s)
    for _ in range(spec.clock_drifts):
        node = int(rng.integers(spec.n_clients))
        rate = float(rng.uniform(-spec.max_drift_rate, spec.max_drift_rate))
        at = float(rng.uniform(0.10, 0.60) * horizon)
        plan.clock_drift(node, rate, at)
    for _ in range(spec.slow_nodes):
        node = int(rng.integers(spec.n_clients))
        factor = float(rng.uniform(2.0, spec.slow_factor))
        at = float(rng.uniform(0.10, 0.60) * horizon)
        duration_s = float(rng.uniform(0.10, 0.30) * horizon)
        plan.slow_node(node, factor, at, duration_s)
    return plan


class BudgetAuditor:
    """Daemon asserting budget conservation at every probe.

    Each probe snapshots the manager's :class:`ConservationLedger`,
    calls its :meth:`~ConservationLedger.check` (strict equality modulo
    float tolerance) *and* the base §2.1 :meth:`~PowerManager.audit`
    (budget never exceeded, caps never unsafe), then records every
    ledger term as a :class:`~repro.instrumentation.LedgerSample`.  A
    violated invariant raises out of the engine loop immediately --
    chaos runs fail loudly at the first destroyed watt, with the full
    term breakdown in the exception.
    """

    def __init__(
        self,
        engine: Engine,
        manager: PenelopeManager,
        interval_s: float = 1.0,
        recorder: Optional[MetricsRecorder] = None,
        monitor: Optional[InvariantMonitor] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("audit interval must be positive")
        self.engine = engine
        self.manager = manager
        self.interval_s = interval_s
        self.recorder = recorder if recorder is not None else manager.recorder
        #: Optional invariant monitor; when set, every probe evaluates
        #: the full invariant registry instead of the two bare
        #: conservation checks (which the monitor's ``conservation``
        #: invariant subsumes).
        self.monitor = monitor
        self.ledgers: List[ConservationLedger] = []
        self.max_abs_residual_w = 0.0
        self._process: Optional[Process] = None

    def start(self) -> None:
        if self._process is not None and self._process.is_alive:
            raise RuntimeError("auditor already running")
        self._process = self.engine.process(self._run(), name="chaos.auditor")

    def stop(self) -> None:
        if self._process is not None:
            stop_process(self._process)
            self._process = None

    def probe(self) -> ConservationLedger:
        """Sample, assert and record one conservation snapshot."""
        ledger = self.manager.ledger()
        if self.monitor is None:
            ledger.check()
            self.manager.audit().check()
        else:
            self.monitor.probe()
        for name in (
            "caps_live_w",
            "caps_dead_w",
            "pooled_w",
            "escrow_w",
            "in_flight_w",
            "write_offs_w",
            "reclaim_debt_w",
        ):
            self.recorder.sample(ledger.time, name, getattr(ledger, name))
        self.recorder.sample(ledger.time, "residual_w", ledger.residual_w)
        self.recorder.bump("auditor.probes")
        self.ledgers.append(ledger)
        self.max_abs_residual_w = max(
            self.max_abs_residual_w, abs(ledger.residual_w)
        )
        return ledger

    def _run(self):
        while True:
            yield self.engine.timeout(self.interval_s)
            self.probe()


def compute_detector_report(
    spec: ChaosSpec, plan: FaultPlan, manager: PenelopeManager
) -> Dict[str, Any]:
    """Score the failure detector against the schedule's ground truth.

    * **Detection latency**: kill time to the first ``suspect``/``dead``
      transition about the victim anywhere in the cluster, per
      :meth:`FaultPlan.dead_intervals`; reported in seconds and probe
      periods (acceptance: median <= 3 periods).
    * **False positives**: suspicions/confirms whose subject was not in a
      dead interval at transition time.  Partitioned-but-alive nodes
      count here too -- expected under partitions, required zero in a
      fault-free sweep.  An ``unrefuted`` false confirm is one a live
      observer still believes at the horizon about a live node.
    * **Convergence**: every live observer marks every live peer alive at
      the horizon; after the schedule's last partition heal, the time of
      the last corrective transition bounds the re-convergence delay.
    """
    assert manager.cluster is not None
    transitions = manager.membership_transitions()
    horizon = spec.duration_s
    intervals = plan.dead_intervals(horizon)

    # Index both sides by subject once.  ``transitions`` is time-sorted,
    # so each subject's accusation times come out ascending.
    dead_spans: Dict[int, List[Tuple[float, float]]] = {}
    for victim, start, end in intervals:
        dead_spans.setdefault(victim, []).append((start, end))
    accused_at: Dict[int, List[float]] = {}
    false_suspects = 0
    false_confirms = 0
    for t in transitions:
        if t.status == "alive":
            continue
        accused_at.setdefault(t.subject, []).append(t.time)
        if any(start <= t.time < end for start, end in dead_spans.get(t.subject, ())):
            continue
        if t.status == "suspect":
            false_suspects += 1
        elif t.status == "dead":
            false_confirms += 1

    latencies: List[float] = []
    missed = 0
    for victim, start, end in intervals:
        times = accused_at.get(victim, [])
        first = bisect_left(times, start)
        if first == len(times):
            missed += 1
        else:
            latencies.append(times[first] - start)

    alive_ids = [
        node_id
        for node_id in manager.client_ids
        if manager.cluster.node(node_id).alive
    ]
    unrefuted = 0
    converged = True
    for observer in alive_ids:
        view = manager.detectors[observer].view
        for subject in alive_ids:
            if subject == observer:
                continue
            if view.status_of(subject) != "alive":
                converged = False
                if view.status_of(subject) == "dead":
                    unrefuted += 1
    heals = plan.heal_times(horizon)
    last_heal = heals[-1] if heals else None
    convergence_after_heal_s: Optional[float] = None
    if last_heal is not None and converged:
        corrective = [t.time for t in transitions if t.time >= last_heal]
        convergence_after_heal_s = (
            (max(corrective) - last_heal) if corrective else 0.0
        )
    period = spec.membership_probe_period_s
    median_latency = statistics.median(latencies) if latencies else None
    return {
        "probe_period_s": period,
        "n_transitions": len(transitions),
        "detections": len(latencies),
        "missed_detections": missed,
        "detection_latencies_s": latencies,
        "median_detection_latency_s": median_latency,
        "median_detection_latency_periods": (
            median_latency / period if median_latency is not None else None
        ),
        "false_suspects": false_suspects,
        "false_confirms": false_confirms,
        "unrefuted_false_confirms": unrefuted,
        "view_converged": converged,
        "last_heal_s": last_heal,
        "convergence_after_heal_s": convergence_after_heal_s,
        "refutations": sum(
            detector.view.refutations for detector in manager.detectors.values()
        ),
    }


@dataclass
class ChaosResult:
    """Outcome of one chaos run (all invariants held, or it raised)."""

    spec: ChaosSpec
    #: The schedule that was applied (as its serialized form).
    schedule: Dict[str, Any]
    n_audits: int
    max_abs_residual_w: float
    final: ConservationLedger
    recorder: MetricsRecorder
    network: NetworkStats
    #: Failure-detector scorecard (only when membership was enabled).
    detector: Optional[Dict[str, Any]] = None
    #: Invariant violations observed by the monitor (empty on a clean
    #: run; can only be non-empty when the run was not fail-fast).
    violations: List[InvariantViolation] = dataclasses.field(default_factory=list)


def run_chaos_single(
    spec: ChaosSpec,
    sim: Optional[SimConfig] = None,
    plan: Optional[FaultPlan] = None,
    invariants: Optional[Sequence[Invariant]] = None,
    fail_fast: bool = True,
) -> ChaosResult:
    """Run one seeded chaos storm to its horizon under continuous audit.

    ``sim`` selects kernel knobs (batched ticks) exactly as in
    :func:`repro.experiments.harness.run_single`; ``None`` defers to the
    ambient environment defaults.  The pinned chaos fixture passes
    ``SimConfig(batched_ticks=False)`` -- its bytes encode the staggered
    per-node trajectory, which the batcher only approximates.

    ``plan`` overrides the seed-derived schedule (the fuzzer replays
    explicit shrunken plans this way); ``invariants`` overrides the
    default invariant set; ``fail_fast=False`` records violations in the
    result instead of raising at the first one.
    """
    engine = Engine(sim=sim)
    rngs = RngRegistry(seed=spec.seed)
    config = PenelopeConfig(
        response_timeout_s=spec.response_timeout_s,
        request_retries=spec.request_retries,
        grant_ack_retries=spec.grant_ack_retries,
        enable_membership=spec.enable_membership,
        membership_probe_period_s=spec.membership_probe_period_s,
    )
    manager = PenelopeManager(
        config=config, recorder=MetricsRecorder(record_caps=False)
    )
    cluster_config = ClusterConfig(
        n_nodes=spec.n_clients,
        system_power_budget_w=spec.budget_w,
        message_loss_probability=spec.base_loss,
    )
    cluster = Cluster(engine, cluster_config, rngs)
    assignment = assign_pair_to_cluster(
        spec.pair,
        range(spec.n_clients),
        rng=rngs.stream("workload.jitter"),
        scale=spec.workload_scale,
    )
    cluster.install_assignment(
        assignment, overhead_factor=config.overhead_factor
    )
    manager.install(
        cluster, client_ids=list(range(spec.n_clients)), budget_w=spec.budget_w
    )
    if plan is None:
        plan = build_chaos_plan(spec)
    plan.install(cluster, manager)
    monitor = InvariantMonitor(
        engine, manager, invariants=invariants, fail_fast=fail_fast
    )
    auditor = BudgetAuditor(
        engine, manager, interval_s=spec.audit_interval_s, monitor=monitor
    )
    cluster.start_workloads()
    manager.start()
    auditor.start()
    engine.run(until=spec.duration_s)
    # One last probe at the horizon: the interval grid need not land on it.
    final = auditor.probe()
    detector_report = (
        compute_detector_report(spec, plan, manager)
        if spec.enable_membership
        else None
    )
    auditor.stop()
    manager.stop()
    return ChaosResult(
        spec=spec,
        schedule=serialize.fault_plan_to_dict(plan),
        n_audits=len(auditor.ledgers),
        max_abs_residual_w=auditor.max_abs_residual_w,
        final=final,
        recorder=manager.recorder,
        network=cluster.network.stats,
        detector=detector_report,
        violations=list(monitor.violations),
    )


# -- JSON codecs (cache round-trip) ------------------------------------------


#: Spec fields that postdate the pinned chaos fixture and the sweep
#: cache keys: emitted only when they differ from the default, so specs
#: not using them keep byte-identical canonical JSON (and sha256 keys).
_SPEC_LATE_FIELDS = (
    "duplicate_bursts",
    "reorder_bursts",
    "clock_drifts",
    "slow_nodes",
    "duplicate_prob",
    "reorder_window_s",
    "max_drift_rate",
    "slow_factor",
)

_SPEC_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ChaosSpec)
}


def chaos_spec_to_dict(spec: ChaosSpec) -> Dict[str, Any]:
    data = dataclasses.asdict(spec)
    data["pair"] = list(spec.pair)
    for key in _SPEC_LATE_FIELDS:
        if data[key] == _SPEC_DEFAULTS[key]:
            del data[key]
    return data


def chaos_spec_from_dict(data: Dict[str, Any]) -> ChaosSpec:
    kwargs = dict(data)
    kwargs["pair"] = tuple(kwargs["pair"])
    return ChaosSpec(**kwargs)


def ledger_to_dict(ledger: ConservationLedger) -> Dict[str, Any]:
    return dataclasses.asdict(ledger)


def ledger_from_dict(data: Dict[str, Any]) -> ConservationLedger:
    return ConservationLedger(**data)


def chaos_result_to_dict(result: ChaosResult) -> Dict[str, Any]:
    data = {
        "spec": chaos_spec_to_dict(result.spec),
        "schedule": result.schedule,
        "n_audits": result.n_audits,
        "max_abs_residual_w": result.max_abs_residual_w,
        "final": ledger_to_dict(result.final),
        "recorder": serialize.recorder_to_dict(result.recorder),
        "network": serialize.network_stats_to_dict(result.network),
        "detector": result.detector,
    }
    # Violations postdate the pinned fixture; clean runs stay byte-identical.
    if result.violations:
        data["violations"] = [violation_to_dict(v) for v in result.violations]
    return data


def chaos_result_from_dict(data: Dict[str, Any]) -> ChaosResult:
    return ChaosResult(
        spec=chaos_spec_from_dict(data["spec"]),
        schedule=data["schedule"],
        n_audits=data["n_audits"],
        max_abs_residual_w=data["max_abs_residual_w"],
        final=ledger_from_dict(data["final"]),
        recorder=serialize.recorder_from_dict(data["recorder"]),
        network=serialize.network_stats_from_dict(data["network"]),
        detector=data.get("detector"),
        violations=[
            violation_from_dict(v) for v in data.get("violations", [])
        ],
    )


CHAOS_RUN = TaskKind(
    name="chaos",
    fn=run_chaos_single,
    spec_to_dict=chaos_spec_to_dict,
    result_to_dict=chaos_result_to_dict,
    result_from_dict=chaos_result_from_dict,
)


def chaos_specs(
    seeds: Sequence[int],
    **overrides: Any,
) -> List[ChaosSpec]:
    """One spec per seed, sharing every other (overridable) parameter."""
    return [ChaosSpec(seed=seed, **overrides) for seed in seeds]


def run_chaos_sweep(
    specs: Sequence[ChaosSpec],
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Optional[Any] = None,
    **runner_kwargs: Any,
) -> List[Any]:
    """Run a chaos sweep through the common parallel/cached executor.

    Unlike the figure sweeps, quarantined seeds stay *in-slot* as
    :class:`~repro.experiments.journal.TaskFailure` records: each chaos
    seed is an independent campaign, so losing one is a reportable
    partial result, not a reason to abort the storm (the CLI prints the
    failure summary and exits nonzero).
    """
    return run_sweep(
        specs,
        kind=CHAOS_RUN,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        progress=progress,
        **runner_kwargs,
    )


def format_chaos(results: Sequence[ChaosResult]) -> str:
    """Text table: one row per seed, plus a conservation verdict."""
    lines = [
        "Chaos sweep: randomized kills/restarts/flaps/loss bursts, "
        "continuously audited",
        "",
        f"{'seed':>6} {'audits':>7} {'max|resid| W':>13} {'kills':>6} "
        f"{'restarts':>9} {'flaps':>6} {'bursts':>7} {'refunds':>8} "
        f"{'reclaims':>9} {'retries':>8}",
    ]
    for result in results:
        counters = result.recorder.counters
        lines.append(
            f"{result.spec.seed:>6} {result.n_audits:>7} "
            f"{result.max_abs_residual_w:>13.3e} "
            f"{len(result.schedule['node_kills']):>6} "
            f"{len(result.schedule['restarts']):>9} "
            f"{len(result.schedule['flaps']):>6} "
            f"{len(result.schedule['loss_bursts']):>7} "
            f"{counters.get('pool.escrow_refunds', 0):>8} "
            f"{counters.get('pool.escrow_reclaims', 0):>9} "
            f"{counters.get('decider.request_retries', 0):>8}"
        )
    total_audits = sum(r.n_audits for r in results)
    worst = max((r.max_abs_residual_w for r in results), default=0.0)
    lines.append("")
    lines.append(
        f"{total_audits} conservation probes held "
        f"(worst residual {worst:.3e} W <= "
        f"{ConservationLedger.TOLERANCE_W:g} W tolerance)"
    )
    detector_rows = [r for r in results if r.detector is not None]
    if detector_rows:
        lines.append("")
        lines.append(
            "Failure detector (SWIM): detection latency vs schedule ground "
            "truth, view convergence"
        )
        lines.append(
            f"{'seed':>6} {'detect':>7} {'miss':>5} {'med lat s':>10} "
            f"{'periods':>8} {'fp-susp':>8} {'fp-conf':>8} {'unref':>6} "
            f"{'conv':>5} {'heal+s':>8} {'refutes':>8}"
        )
        for result in detector_rows:
            report = result.detector
            assert report is not None
            med = report["median_detection_latency_s"]
            med_p = report["median_detection_latency_periods"]
            heal = report["convergence_after_heal_s"]
            med_cell = f"{med:>10.3f}" if med is not None else f"{'-':>10}"
            med_p_cell = f"{med_p:>8.2f}" if med_p is not None else f"{'-':>8}"
            heal_cell = f"{heal:>8.3f}" if heal is not None else f"{'-':>8}"
            lines.append(
                f"{result.spec.seed:>6} {report['detections']:>7} "
                f"{report['missed_detections']:>5} {med_cell} {med_p_cell} "
                f"{report['false_suspects']:>8} "
                f"{report['false_confirms']:>8} "
                f"{report['unrefuted_false_confirms']:>6} "
                f"{'yes' if report['view_converged'] else 'NO':>5} "
                f"{heal_cell} {report['refutations']:>8}"
            )
    return "\n".join(lines)
