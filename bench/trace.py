"""Outside-in tracer for the per-layer metrics (``python -m bench --trace``).

The benchmark never edits the program it measures.  A traced run
instead wraps the public entry points of each layer (:data:`BOUNDARIES`)
for the duration of the run and restores them afterwards.  Every
wrapper keeps one frame on a call stack: a call's *self time* is its
duration minus the time of the traced calls nested inside it, so the
self times of all boundaries plus the time spent outside any boundary
(``trace.unattributed_s``) add up to the traced wall time.

Each wrapper costs a little inside its own timed window and a little in
its caller's; both shares are calibrated once per run with a no-op
function (:func:`calibrate`) and subtracted.  Calls of the coarse
boundaries (:data:`SPAN_BOUNDARIES`) are also kept in memory as spans
and written out as a Chrome trace-event file at the end.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer boundary, module, attribute).  ``Class.method`` wraps the
#: method where that class defines it; a bare name wraps a module-level
#: function in every ``repro`` module that has imported it.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Engine.run"),
    ("net.send", "repro.net.network", "Network.send"),
    ("core.tick", "repro.core.decider", "LocalDecider.tick_start"),
    ("core.tick", "repro.core.decider", "LocalDecider.tick_end"),
    ("core.pool", "repro.core.pool", "PowerPool.deposit"),
    ("core.pool", "repro.core.pool", "PowerPool.withdraw_up_to"),
    ("core.pool", "repro.core.pool", "PowerPool.max_transaction_w"),
    ("power", "repro.power.rapl", "SimulatedRapl.read_power"),
    ("power", "repro.power.rapl", "SimulatedRapl.set_cap"),
    ("power", "repro.power.rapl", "SimulatedRapl.set_consumption"),
    ("membership.detector", "repro.membership.detector", "FailureDetector.stamp"),
    ("membership.detector", "repro.membership.detector", "FailureDetector.ingest"),
    ("membership.detector", "repro.membership.detector", "FailureDetector.live_peers"),
    ("membership.view", "repro.membership.view", "MemberView.alive_peers"),
    ("membership.view", "repro.membership.view", "MemberView.apply"),
    ("membership.view", "repro.membership.view", "MemberView.select_updates"),
    ("membership.view", "repro.membership.view", "MemberView.observe_contact"),
    ("recorder", "repro.instrumentation", "MetricsRecorder.transaction"),
    ("recorder", "repro.instrumentation", "MetricsRecorder.cap"),
    ("recorder", "repro.instrumentation", "MetricsRecorder.turnaround"),
    ("recorder", "repro.instrumentation", "MetricsRecorder.sample"),
    ("recorder", "repro.instrumentation", "MetricsRecorder.bump"),
    ("cluster.build", "repro.cluster.cluster", "Cluster.__init__"),
    ("cluster.build", "repro.cluster.cluster", "Cluster.install_assignment"),
    ("managers.install", "repro.managers.base", "PowerManager.install"),
    ("managers.install", "repro.managers.base", "PowerManager.start"),
    ("workloads.build", "repro.workloads.generator", "assign_pair_to_cluster"),
    ("experiments.build_run", "repro.experiments.harness", "build_run"),
    ("experiments.cache.load", "repro.experiments.runner", "ResultCache.load"),
    ("experiments.cache.store", "repro.experiments.runner", "ResultCache.store"),
    ("experiments.fingerprint", "repro.experiments.runner", "spec_fingerprint"),
    ("experiments.audit", "repro.experiments.chaos", "BudgetAuditor.probe"),
)

#: The scheduler's queue operations form the ``sim.sched`` boundary.
#: ``push`` is an instance attribute bound at construction (a C-level
#: ``partial``), so it is wrapped per instance by hooking ``__init__``.
SCHEDULER_MODULE = "repro.sim.schedulers"
SCHEDULER_METHODS = ("pop", "pop_due")

#: Boundaries whose calls are also kept as spans for the Chrome trace.
SPAN_BOUNDARIES = frozenset(
    {
        "sim.run",
        "experiments.build_run",
        "experiments.cache.load",
        "experiments.cache.store",
        "experiments.audit",
    }
)

#: Stored spans are capped so a long traced run cannot exhaust memory.
MAX_SPANS = 200_000

AfterHook = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]


class Tracer:
    """Wraps layer boundaries and accumulates calls and self time.

    ``stats`` maps each wrapped attribute (``"Network.send"``) to
    ``[calls, elapsed_s, child_elapsed_s, child_calls]``; ``tallies``
    holds counts read at the boundaries (engine event counters, recorder
    counter bumps, cache hits, grants).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}
        self.boundary_of: Dict[str, str] = {}
        self.tallies: Counter = Counter()
        self.network_stats: List[Any] = []
        #: (name, category, start, elapsed) in tracer-clock seconds.
        self.spans: List[Tuple[str, str, float, float]] = []
        self.wall_s = 0.0
        self._stack: List[List[float]] = [[0.0, 0]]
        self._started: Optional[float] = None
        self._paused_s = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Callable[..., Any]] = {}

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        key: str,
        boundary: str,
        fn: Callable[..., Any],
        after: Optional[AfterHook] = None,
    ) -> Callable[..., Any]:
        """A traced stand-in for ``fn`` that books its calls under ``key``."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        self.boundary_of[key] = boundary
        stack = self._stack
        clock = self.clock
        spans = self.spans if boundary in SPAN_BOUNDARIES else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                stats[3] += frame[1]
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                if spans is not None and len(spans) < MAX_SPANS:
                    spans.append((key, boundary, start, elapsed))
                if after is not None:
                    after(args, kwargs, result)

        return traced

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Keep the benchmark's own bookkeeping out of the traced wall.

        Traced calls made while paused would break the closure check,
        which is how a pause around program code would be noticed.
        """
        start = self.clock()
        try:
            yield
        finally:
            self._paused_s += self.clock() - start

    def span(self, name: str, category: str, start: float, elapsed: float) -> None:
        """Record a span measured by the caller on this tracer's clock."""
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, category, start, elapsed))

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace ``owner.name``, which ``owner`` itself must define."""
        self._patches.append((owner, name, vars(owner)[name]))
        self._wrappers[id(replacement)] = replacement
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every boundary; the traced section starts now."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks: Dict[str, AfterHook] = {
            "MetricsRecorder.bump": self._after_bump,
            "MetricsRecorder.turnaround": self._after_turnaround,
            "ResultCache.load": self._after_load,
        }
        for boundary, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = vars(owner)[method]
                self._patch(owner, method, self.wrap(attr, boundary, original, hooks.get(attr)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(attr, boundary, original)
            for name in sorted(sys.modules):
                bound = sys.modules[name]
                if name.startswith("repro") and vars(bound).get(attr) is original:
                    self._patch(bound, attr, wrapper)
        schedulers = importlib.import_module(SCHEDULER_MODULE)
        for cls in schedulers.SCHEDULERS.values():
            for method in SCHEDULER_METHODS:
                key = f"{cls.__name__}.{method}"
                self._patch(cls, method, self.wrap(key, "sim.sched", vars(cls)[method]))
            self._patch(cls, "__init__", self._push_hook(cls))
        engine_cls = importlib.import_module("repro.sim.engine").Engine
        self._patch(engine_cls, "run", self._count_events(vars(engine_cls)["run"]))
        network_cls = importlib.import_module("repro.net.network").Network
        self._patch(network_cls, "__init__", self._collect_stats(vars(network_cls)["__init__"]))
        self._stack[:] = [[0.0, 0]]
        self._started = self.clock()

    def uninstall(self) -> None:
        """Restore every wrapped attribute; the traced section ends now."""
        if self._started is not None:
            self.wall_s = self.clock() - self._started - self._paused_s
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def leftover_wrappers(self) -> List[str]:
        """Names in ``repro`` modules and classes still bound to a wrapper."""
        found: List[str] = []
        for module_name in sorted(sys.modules):
            if not module_name.startswith("repro"):
                continue
            for attr, value in vars(sys.modules[module_name]).items():
                if id(value) in self._wrappers:
                    found.append(f"{module_name}.{attr}")
                elif isinstance(value, type):
                    found.extend(
                        f"{module_name}.{attr}.{name}"
                        for name, member in vars(value).items()
                        if id(member) in self._wrappers
                    )
        return found

    def _push_hook(self, cls: type) -> Callable[..., None]:
        original_init = vars(cls)["__init__"]
        key = f"{cls.__name__}.push"

        def init(scheduler: Any, *args: Any, **kwargs: Any) -> None:
            original_init(scheduler, *args, **kwargs)
            scheduler.push = self.wrap(key, "sim.sched", scheduler.push)

        return init

    def _count_events(self, run: Callable[..., Any]) -> Callable[..., Any]:
        tallies = self.tallies

        def counted(engine: Any, *args: Any, **kwargs: Any) -> Any:
            events, cancelled = engine.processed_events, engine.cancelled_events
            try:
                return run(engine, *args, **kwargs)
            finally:
                tallies["sim.events"] += engine.processed_events - events
                tallies["sim.cancelled"] += engine.cancelled_events - cancelled

        return counted

    def _collect_stats(self, original_init: Callable[..., None]) -> Callable[..., None]:
        collected = self.network_stats

        def init(network: Any, *args: Any, **kwargs: Any) -> None:
            original_init(network, *args, **kwargs)
            collected.append(network.stats)

        return init

    def _after_bump(self, args: Tuple[Any, ...], kwargs: Dict[str, Any], _: Any) -> None:
        counter = args[1] if len(args) > 1 else kwargs["counter"]
        by = args[2] if len(args) > 2 else kwargs.get("by", 1)
        self.tallies[f"counter.{counter}"] += by

    def _after_turnaround(
        self, args: Tuple[Any, ...], kwargs: Dict[str, Any], _: Any
    ) -> None:
        granted = kwargs["granted_w"] if "granted_w" in kwargs else args[4]
        self.tallies["turnarounds"] += 1
        if granted > 0:
            self.tallies["turnarounds.granted"] += 1

    def _after_load(self, _args: Tuple[Any, ...], _kwargs: Dict[str, Any], result: Any) -> None:
        if result is not None:
            self.tallies["cache.hits"] += 1

    # -- reporting -------------------------------------------------------

    def open_frames(self) -> int:
        """Frames still on the stack besides the root (0 after a clean run)."""
        return len(self._stack) - 1

    def report(self, cost_inside_s: float, cost_outside_s: float) -> Dict[str, Any]:
        """Per-boundary calls and self time, net of the wrapper cost.

        ``cost_inside_s`` is charged once per call to the call itself,
        ``cost_outside_s`` once per call to its caller (see
        :func:`calibrate`).  ``closure_residual_s`` is what the self
        times, the unattributed time and the wrapper cost fail to cover
        of the traced wall time.
        """
        boundaries: Dict[str, Dict[str, float]] = {}
        total_calls = 0
        for key, (calls, elapsed, child_elapsed, child_calls) in self.stats.items():
            self_s = (
                elapsed - child_elapsed - calls * cost_inside_s - child_calls * cost_outside_s
            )
            entry = boundaries.setdefault(self.boundary_of[key], {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            total_calls += int(calls)
        root_elapsed, root_calls = self._stack[0]
        unattributed = self.wall_s - root_elapsed - root_calls * cost_outside_s
        overhead = total_calls * (cost_inside_s + cost_outside_s)
        covered = sum(entry["self_s"] for entry in boundaries.values()) + unattributed + overhead
        return {
            "boundaries": boundaries,
            "calls_by_key": {key: int(stats[0]) for key, stats in self.stats.items()},
            "tallies": dict(self.tallies),
            "network": {
                "sent": sum(stats.sent for stats in self.network_stats),
                "delivered": sum(stats.delivered for stats in self.network_stats),
                "dropped": sum(stats.dropped for stats in self.network_stats),
            },
            "wall_s": self.wall_s,
            "unattributed_s": unattributed,
            "overhead_s": overhead,
            "closure_residual_s": self.wall_s - covered,
        }

    def write_chrome_trace(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
        origin = self._started if self._started is not None else 0.0
        events = [
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": elapsed * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for name, category, start, elapsed in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata})
        )


def calibrate(
    clock: Callable[[], float] = time.perf_counter, calls: int = 50_000, rounds: int = 5
) -> Tuple[float, float]:
    """Per-call wrapper cost ``(inside, outside)`` the wrapped call's window.

    A no-op is called bare and wrapped; the wrapper books each call's
    window, so the window's mean beyond the bare call is the inside
    share and the rest of the total extra cost lands in the caller.
    The median over ``rounds`` is returned.
    """
    inside: List[float] = []
    outside: List[float] = []

    def noop() -> None:
        return None

    for _ in range(rounds):
        tracer = Tracer(clock)
        traced = tracer.wrap("noop", "noop", noop)
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        total = clock() - start
        window = tracer.stats["noop"][1]
        inside.append((window - bare) / calls)
        outside.append((total - window) / calls)
    return statistics.median(inside), statistics.median(outside)


def per_layer_metrics(report: Dict[str, Any], passes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run, per pass of fixed work.

    Everything but ``trace.overhead_ratio``, which needs the untraced
    run beside this one.
    """
    boundaries = report["boundaries"]
    calls_by_key = report["calls_by_key"]
    tallies = report["tallies"]
    network = report["network"]

    def calls(boundary: str) -> float:
        return boundaries.get(boundary, {}).get("calls", 0) / passes

    def self_s(boundary: str) -> float:
        return boundaries.get(boundary, {}).get("self_s", 0.0) / passes

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    events = tallies.get("sim.events", 0)
    cancelled = tallies.get("sim.cancelled", 0)
    loads = boundaries.get("experiments.cache.load", {}).get("calls", 0)
    return {
        "sim.run.self_s": self_s("sim.run"),
        "sim.sched.calls": calls("sim.sched"),
        "sim.sched.self_s": self_s("sim.sched"),
        "sim.events": events / passes,
        "sim.cancelled": cancelled / passes,
        "sim.cancel_ratio": ratio(cancelled, events + cancelled),
        "net.send.calls": calls("net.send"),
        "net.send.self_s": self_s("net.send"),
        "net.delivered": network["delivered"] / passes,
        "net.dropped": network["dropped"] / passes,
        "net.delivery_ratio": ratio(network["delivered"], network["sent"]),
        "core.tick.calls": calls("core.tick"),
        "core.tick.self_s": self_s("core.tick"),
        "core.pool.calls": calls("core.pool"),
        "core.pool.self_s": self_s("core.pool"),
        "core.grant_ratio": ratio(
            tallies.get("turnarounds.granted", 0), tallies.get("turnarounds", 0)
        ),
        "core.request_retries": tallies.get("counter.decider.request_retries", 0) / passes,
        "power.calls": calls("power"),
        "power.self_s": self_s("power"),
        "power.reads": calls_by_key.get("SimulatedRapl.read_power", 0) / passes,
        "power.cap_writes": calls_by_key.get("SimulatedRapl.set_cap", 0) / passes,
        "membership.detector.calls": calls("membership.detector"),
        "membership.detector.self_s": self_s("membership.detector"),
        "membership.view.calls": calls("membership.view"),
        "membership.view.self_s": self_s("membership.view"),
        "membership.probe_rounds": tallies.get("counter.membership.pings", 0) / passes,
        "recorder.calls": calls("recorder"),
        "recorder.self_s": self_s("recorder"),
        "cluster.build_s": self_s("cluster.build"),
        "managers.install_s": self_s("managers.install"),
        "workloads.build_s": self_s("workloads.build"),
        "experiments.build_run.calls": calls("experiments.build_run"),
        "experiments.build_run_s": self_s("experiments.build_run"),
        "experiments.cache.load.calls": calls("experiments.cache.load"),
        "experiments.cache.load_s": self_s("experiments.cache.load"),
        "experiments.fingerprint_s": self_s("experiments.fingerprint"),
        "experiments.cache.hit_ratio": ratio(tallies.get("cache.hits", 0), loads),
        "experiments.cache.store.calls": calls("experiments.cache.store"),
        "experiments.cache.store_s": self_s("experiments.cache.store"),
        "experiments.audit.calls": calls("experiments.audit"),
        "experiments.audit_s": self_s("experiments.audit"),
        "trace.unattributed_s": report["unattributed_s"] / passes,
    }
