"""Resilient parallel sweep executor with an on-disk result cache.

Every experiment of the evaluation is an embarrassingly-parallel sweep:
a list of fully-self-describing specs, each simulated in its own fresh
universe.  :func:`run_sweep` is the one funnel they all go through now:

* **Parallelism.**  ``jobs > 1`` fans specs out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; ``jobs=1`` degrades to
  the plain in-process loop (no subprocesses -- breakpoints, coverage and
  hypothesis shrinking keep working).  Results always come back in *spec
  order*, regardless of completion order, and because every run seeds its
  own :class:`~repro.sim.rng.RngRegistry` the results are byte-identical
  across job counts.

* **Resilience.**  The parallel path harvests futures in *completion*
  order with a per-task deadline, retries failed attempts under a
  bounded exponential-backoff :class:`RetryPolicy` (jitter drawn from a
  dedicated named stream, never ambient RNG), rebuilds the pool when a
  worker crashes (``BrokenProcessPool``) or hangs past its deadline, and
  quarantines a spec that exhausts its budget as an in-slot
  :class:`~repro.experiments.journal.TaskFailure` instead of aborting
  the campaign.  ``Ctrl-C`` flushes already-finished in-flight results
  to the cache/journal before re-raising.

* **Durability.**  With a ``journal`` path, every spec state transition
  (submitted/done/failed/quarantined) is appended to a write-ahead
  :class:`~repro.experiments.journal.CampaignJournal`; ``resume=True``
  replays the journal first and re-executes only what is not durably
  finished, converging to byte-identical results after a crash or
  SIGKILL at any point.

* **Caching.**  With a ``cache_dir``, each finished run is written as one
  file (a small JSON header line, then the recorder's rows as a packed
  body) keyed by a stable content hash of (spec, task kind, code
  version, salt).
  Re-running an interrupted or overlapping sweep only executes the
  missing specs; corrupted or stale cache files are treated as misses,
  never as errors.

* **Progress.**  Module-level listeners (and a per-call ``progress``
  callback) receive one :class:`ProgressEvent` per finished spec --
  :mod:`repro.experiments.report` prints them for the CLI.

* **Self-chaos.**  ``harness_faults`` arms :func:`_call_shimmed` around
  ``kind.fn`` to inject worker crashes, hangs and poisoned specs -- the
  test/CI hook that proves the pool degrades gracefully.

Sweeps over other spec types plug in through :class:`TaskKind`, which
names the run function and its spec and result types; the JSON codec
follows from the types (see :mod:`repro.experiments.serialize` and
:data:`repro.experiments.scaling.SCALING_RUN` and friends).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.experiments import serialize
from repro.experiments.harness import RunResult, RunSpec, run_single
from repro.experiments.journal import (
    CampaignJournal,
    TaskFailure,
    replay_journal,
    task_failure_from_dict,
)
from repro.sim.rng import RngRegistry, stable_name_hash

#: Part of every cache key.  Bump when simulation semantics change in a
#: way that invalidates previously-computed results.  "2": the escrowed
#: grant protocol (acks, refunds, retries) changed every Penelope
#: trajectory and the result codec gained ledger samples.
CODE_VERSION = "2"

#: Where the CLI caches results unless told otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Exit code a crash-injected worker dies with (distinctive in logs).
_CRASH_EXIT_CODE = 86

#: How long an injected hang sleeps -- far beyond any sane task timeout.
_HANG_SLEEP_S = 3600.0


@dataclass(frozen=True)
class TaskKind:
    """A sweep-able task type: a run function and its spec/result types.

    ``fn`` must be a module-level callable (picklable by reference) taking
    one ``spec_type`` and returning one ``result_type``.  Specs are hashed
    for the cache and results persisted through
    :func:`~repro.experiments.serialize.encode`/``decode``.
    """

    name: str
    fn: Callable[[Any], Any]
    spec_type: type
    result_type: type


#: The default kind: :func:`repro.experiments.harness.run_single`.
SINGLE_RUN = TaskKind("single", run_single, RunSpec, RunResult)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry/backoff/deadline contract for one sweep.

    ``max_retries`` counts *re*-executions: a spec runs at most
    ``max_retries + 1`` times before it is quarantined.  The backoff
    before retry ``attempt + 1`` is ``base * 2**attempt`` capped at
    ``backoff_cap_s``, scaled by a deterministic jitter factor in
    ``[0.5, 1.0)`` drawn from the dedicated ``runner.retry.{}`` named
    stream (see :func:`backoff_delay_s`) -- never from ambient RNG, so
    retries cannot perturb simulation results.  ``task_timeout_s`` is a
    per-attempt wall-clock deadline, enforced only in the parallel path
    (an in-process task cannot be preempted).
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(f"task timeout must be positive, got {self.task_timeout_s}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff base must be >= 0, got {self.backoff_base_s}")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff cap {self.backoff_cap_s}s is below its base {self.backoff_base_s}s"
            )


#: Default resilience contract: three attempts, no deadline.
DEFAULT_RETRY = RetryPolicy()


def backoff_delay_s(policy: RetryPolicy, fingerprint: str, attempt: int) -> float:
    """Deterministic backoff before retrying ``fingerprint``'s ``attempt``.

    Exponential in the (0-based) failed attempt index, capped, with
    jitter from a stateless draw on the dedicated ``runner.retry.{}``
    stream: the registry is seeded from ``(fingerprint, attempt)``, so
    the schedule is a pure function of the task identity -- reproducible
    across runs and resumes, and invisible to every simulation stream.
    """
    base = min(policy.backoff_base_s * (2.0**attempt), policy.backoff_cap_s)
    registry = RngRegistry(seed=stable_name_hash(f"{fingerprint}:{attempt}"))
    stream = registry.stream(f"runner.retry.{fingerprint}")
    return base * (0.5 + 0.5 * float(stream.random()))


class HarnessFaultError(RuntimeError):
    """The error an injected ``raise`` fault throws inside a worker."""


@dataclass(frozen=True)
class HarnessFaults:
    """Parsed self-chaos spec: which sweep indices fail, and how.

    The text syntax is comma-separated ``mode:index`` entries, e.g.
    ``"crash:0,hang:1,raise:2"``.  ``crash`` kills the worker process
    (``os._exit``) on the spec's first attempt, ``hang`` sleeps past any
    sane deadline on the first attempt, and ``raise`` throws
    :class:`HarnessFaultError` on *every* attempt (a poisoned spec that
    must end up quarantined).  Crash/hang recover on retry by design:
    that is what lets tests assert innocents survive a pool rebuild.
    """

    crash: frozenset
    hang: frozenset
    always_raise: frozenset

    @classmethod
    def parse(cls, text: Optional[str]) -> "HarnessFaults":
        crash, hang, always_raise = set(), set(), set()
        for part in (text or "").split(","):
            part = part.strip()
            if not part:
                continue
            mode, sep, value = part.partition(":")
            if not sep:
                raise ValueError(
                    f"bad harness fault {part!r}: expected mode:index"
                )
            index = int(value)
            if mode == "crash":
                crash.add(index)
            elif mode == "hang":
                hang.add(index)
            elif mode == "raise":
                always_raise.add(index)
            else:
                raise ValueError(
                    f"unknown harness fault mode {mode!r} "
                    "(expected crash, hang or raise)"
                )
        return cls(frozenset(crash), frozenset(hang), frozenset(always_raise))

    def __bool__(self) -> bool:
        return bool(self.crash or self.hang or self.always_raise)


def _call_shimmed(
    fn: Callable[[Any], Any],
    spec: Any,
    index: int,
    attempt: int,
    faults_text: str,
) -> Any:
    """Worker-side wrapper around ``kind.fn`` that injects harness faults.

    Module-level (picklable by reference) so the pool can ship it; the
    fault spec travels as text and is re-parsed here.
    """
    faults = HarnessFaults.parse(faults_text)
    if index in faults.crash and attempt == 0:
        os._exit(_CRASH_EXIT_CODE)
    if index in faults.hang and attempt == 0:
        time.sleep(_HANG_SLEEP_S)
    if index in faults.always_raise:
        raise HarnessFaultError(
            f"injected harness fault: spec {index} poisoned (attempt {attempt})"
        )
    return fn(spec)


class SweepFailure(RuntimeError):
    """Raised by aggregating wrappers when a sweep quarantined specs.

    Carries the structured :class:`TaskFailure` records so callers (and
    the CLI) can report exactly which specs died and why, instead of
    crashing on a ``TaskFailure`` leaking into aggregation arithmetic.
    """

    def __init__(self, failures: Sequence[TaskFailure], context: str = "") -> None:
        self.failures = list(failures)
        where = f" in {context}" if context else ""
        lines = ", ".join(
            f"spec {f.index} ({f.reason}: {f.error_type} after {f.attempts} attempts)"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} spec(s) quarantined{where}: {lines}"
        )


def split_failures(results: Sequence[Any]) -> Tuple[List[Any], List[TaskFailure]]:
    """Split a sweep result list into (successes, quarantined failures)."""
    ok = [r for r in results if not isinstance(r, TaskFailure)]
    failures = [r for r in results if isinstance(r, TaskFailure)]
    return ok, failures


def raise_on_failures(results: Sequence[Any], context: str = "") -> List[Any]:
    """Guard for aggregating callers: raise :class:`SweepFailure` if any
    slot holds a :class:`TaskFailure`; otherwise return the results."""
    _, failures = split_failures(results)
    if failures:
        raise SweepFailure(failures, context)
    return list(results)


@dataclass(frozen=True)
class ProgressEvent:
    """One spec of a sweep finished (by execution, cache hit, journal
    restore, or quarantine -- a quarantined spec still counts as
    finished: its slot holds a :class:`TaskFailure`)."""

    kind: str
    index: int
    total: int
    spec: Any
    cached: bool
    #: Wall-clock seconds until the result was collected (0 for cache hits;
    #: informational only -- never part of any cached artifact).
    duration_s: float


ProgressListener = Callable[[ProgressEvent], None]

_listeners: List[ProgressListener] = []


def add_progress_listener(listener: ProgressListener) -> None:
    """Subscribe ``listener`` to every sweep's per-spec progress events."""
    _listeners.append(listener)


def remove_progress_listener(listener: ProgressListener) -> None:
    """Unsubscribe ``listener``; unknown listeners are ignored."""
    if listener in _listeners:
        _listeners.remove(listener)


def _notify(event: ProgressEvent, progress: Optional[ProgressListener]) -> None:
    for listener in list(_listeners):
        listener(event)
    if progress is not None:
        progress(event)


def spec_fingerprint(spec: Any, kind: TaskKind = SINGLE_RUN, salt: str = "") -> str:
    """Stable content hash identifying one (spec, kind, code version) run."""
    payload = {
        "version": CODE_VERSION,
        "kind": kind.name,
        "salt": salt,
        "spec": serialize.encode(spec),
    }
    return serialize.sha256_of(payload)


class ResultCache:
    """One-file-per-run JSON cache under ``root/<kind>/<fingerprint>.json``.

    Each file is a small canonical-JSON header line -- ``fingerprint``,
    ``kind``, ``spec``, the ``result`` without its recorder's row tables,
    and ``body_sha256`` -- then, after the newline, the body: the row
    tables of the result's top-level ``recorder`` as packed columns
    (empty for kinds without one, see
    :func:`~repro.experiments.serialize.split_rows`).

    Every method takes the spec's :func:`spec_fingerprint`, which the
    caller has already computed.  :meth:`load` reads the file as bytes
    in one call, parses only the header, and checks the digest over the
    raw body bytes in place (no decode, no copy); the recorder gets the
    body bytes and unpacks them on first use, so replaying a table that
    reads a run's runtime never touches its event log.  :meth:`store`
    encodes each part once and hashes the bytes it writes.  A
    fingerprint or digest mismatch, a missing body (including the old
    one-line layout), a body that is not packed (the older JSON-text
    body) or any parse/decode failure of the header (a non-UTF-8 byte
    included) makes :meth:`load` report a miss, so truncated,
    hand-edited or older files fall back to re-running instead of
    crashing.
    """

    def __init__(self, root: Union[str, Path], kind: TaskKind = SINGLE_RUN) -> None:
        self.root = Path(root)
        self.kind = kind

    def path_for(self, fingerprint: str) -> Path:
        return self.root / self.kind.name / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> Optional[Any]:
        """The cached result under ``fingerprint``; ``None`` on miss/corruption."""
        path = self.path_for(fingerprint)
        try:
            data = path.read_bytes()
            newline = data.find(b"\n")
            if newline < 0:
                return None
            header = json.loads(data[:newline].decode("utf-8"))
            body = memoryview(data)[newline + 1 :]
            if (
                header["fingerprint"] != path.stem
                or header["body_sha256"] != hashlib.sha256(body).hexdigest()
            ):
                return None
            return serialize.decode(
                self.kind.result_type,
                serialize.join_rows(header["result"], bytes(body)),
            )
        except (OSError, AttributeError, KeyError, TypeError, ValueError):
            return None

    def store(self, fingerprint: str, spec: Any, result: Any) -> Path:
        """Atomically persist ``result`` (write temp file, then rename)."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        result_dict = serialize.encode(result)
        body = serialize.split_rows(result_dict)
        header = {
            "fingerprint": path.stem,
            "kind": self.kind.name,
            "spec": serialize.encode(spec),
            "result": result_dict,
            "body_sha256": hashlib.sha256(body).hexdigest(),
        }
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        with tmp.open("wb") as out:
            out.write(serialize.canonical_json(header).encode("utf-8"))
            out.write(b"\n")
            out.write(body)
        os.replace(tmp, path)
        return path


def run_sweep(
    specs: Iterable[Any],
    kind: TaskKind = SINGLE_RUN,
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    salt: str = "",
    progress: Optional[ProgressListener] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    harness_faults: Optional[str] = None,
) -> List[Any]:
    """Run every spec and return results in spec order.

    The result list always has one slot per spec: successes hold the
    task result, quarantined specs hold a :class:`TaskFailure` (use
    :func:`split_failures` / :func:`raise_on_failures` to handle them).

    Parameters
    ----------
    specs:
        The sweep, in the order results should come back.
    kind:
        Task type (run function, spec and result types); defaults to
        ``run_single``.  Every spec must be a ``kind.spec_type``.
    jobs:
        Worker processes.  ``1`` runs in-process; ``None`` uses the CPU
        count.
    cache_dir:
        Cache root (``None`` disables caching entirely: existing cache
        files are neither read nor written).
    salt:
        Extra cache-key component (e.g. for deliberate cache busting).
    progress:
        Per-call progress callback, invoked after the module-level
        listeners for each finished spec.
    retry:
        Resilience contract (:class:`RetryPolicy`); defaults to
        :data:`DEFAULT_RETRY` (three attempts, no per-task deadline).
    journal:
        Write-ahead campaign journal path; every spec state transition
        is appended (fsync'd) before the runner acts on it.
    resume:
        Replay ``journal`` first and re-execute only specs without a
        durable ``done``/``quarantined`` record.  Requires ``journal``.
    harness_faults:
        Self-chaos spec (``"crash:0,hang:1,raise:2"``) shimmed around
        ``kind.fn``.  Crash and hang faults need ``jobs > 1`` (in-process
        they would take the calling process down with them).
    """
    spec_list = list(specs)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs!r}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    for spec in spec_list:
        if not isinstance(spec, kind.spec_type):
            raise TypeError(
                f"{kind.name} sweep needs {kind.spec_type.__name__} specs, "
                f"got {type(spec).__name__}"
            )
    policy = retry if retry is not None else DEFAULT_RETRY
    if harness_faults is not None:
        HarnessFaults.parse(harness_faults)  # fail fast on a typo'd spec
    cache = ResultCache(cache_dir, kind) if cache_dir is not None else None
    total = len(spec_list)
    results: List[Any] = [None] * total
    fingerprints = [spec_fingerprint(spec, kind, salt) for spec in spec_list]

    restored_done: Dict[str, Dict[str, Any]] = {}
    restored_quarantined: Dict[str, Dict[str, Any]] = {}
    if resume and journal is not None:
        replay = replay_journal(journal)
        restored_done = replay.done
        restored_quarantined = replay.quarantined

    journal_log: Optional[CampaignJournal] = None
    if journal is not None:
        journal_log = CampaignJournal.open(journal, kind.name, salt, total)

    try:
        pending: List[int] = []
        for index, spec in enumerate(spec_list):
            fingerprint = fingerprints[index]
            if fingerprint in restored_done:
                # Durable in the journal: restore without re-executing
                # (and repopulate the cache so later cache-only runs --
                # and the CI byte-diff -- see the same artifacts).
                result = serialize.decode(
                    kind.result_type, restored_done[fingerprint]
                )
                results[index] = result
                if cache is not None:
                    cache.store(fingerprint, spec, result)
                _notify(
                    ProgressEvent(kind.name, index, total, spec, True, 0.0),
                    progress,
                )
                continue
            if fingerprint in restored_quarantined:
                results[index] = task_failure_from_dict(
                    restored_quarantined[fingerprint]
                )
                _notify(
                    ProgressEvent(kind.name, index, total, spec, True, 0.0),
                    progress,
                )
                continue
            cached = cache.load(fingerprint) if cache is not None else None
            if cached is not None:
                results[index] = cached
                if journal_log is not None:
                    # Journal cache hits too: the journal alone must be
                    # able to reconstruct the full campaign on resume.
                    journal_log.record_done(
                        fingerprint, index, serialize.encode(cached)
                    )
                _notify(
                    ProgressEvent(kind.name, index, total, spec, True, 0.0),
                    progress,
                )
            else:
                pending.append(index)

        if not pending:
            return results

        if jobs == 1:
            _run_serial(
                kind, cache, journal_log, results, spec_list, fingerprints,
                pending, total, policy, harness_faults, progress,
            )
        else:
            _run_parallel(
                kind, cache, journal_log, results, spec_list, fingerprints,
                pending, total, jobs, policy, harness_faults, progress,
            )
        return results
    finally:
        if journal_log is not None:
            journal_log.close()


def _run_serial(
    kind: TaskKind,
    cache: Optional[ResultCache],
    journal_log: Optional[CampaignJournal],
    results: List[Any],
    spec_list: Sequence[Any],
    fingerprints: Sequence[str],
    pending: Sequence[int],
    total: int,
    policy: RetryPolicy,
    faults_text: Optional[str],
    progress: Optional[ProgressListener],
) -> None:
    """In-process execution with the same retry/quarantine semantics as
    the pool path (no per-task deadline: a task cannot be preempted from
    inside its own process)."""
    for index in pending:
        fingerprint = fingerprints[index]
        attempt = 0
        while True:
            if journal_log is not None:
                journal_log.record_submitted(fingerprint, index, attempt)
            started = time.perf_counter()
            try:
                if faults_text is not None:
                    result = _call_shimmed(
                        kind.fn, spec_list[index], index, attempt, faults_text
                    )
                else:
                    result = kind.fn(spec_list[index])
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                elapsed = time.perf_counter() - started
                quarantined = _register_failure(
                    kind, journal_log, results, spec_list, fingerprints,
                    index, attempt, total, policy,
                    "exception", type(exc).__name__, str(exc), elapsed, progress,
                )
                if quarantined:
                    break
                time.sleep(backoff_delay_s(policy, fingerprint, attempt))
                attempt += 1
            else:
                _complete(
                    kind, cache, journal_log, results, spec_list, fingerprints,
                    index, total, result, time.perf_counter() - started, progress,
                )
                break


def _register_failure(
    kind: TaskKind,
    journal_log: Optional[CampaignJournal],
    results: List[Any],
    spec_list: Sequence[Any],
    fingerprints: Sequence[str],
    index: int,
    attempt: int,
    total: int,
    policy: RetryPolicy,
    reason: str,
    error_type: str,
    message: str,
    elapsed: float,
    progress: Optional[ProgressListener],
) -> bool:
    """Journal one failed attempt; quarantine on budget exhaustion.

    Returns True when the spec is now quarantined (no retry left), in
    which case its result slot holds the :class:`TaskFailure` and a
    progress event has fired.
    """
    fingerprint = fingerprints[index]
    if journal_log is not None:
        journal_log.record_failed(
            fingerprint, index, attempt, reason, error_type, message
        )
    if attempt < policy.max_retries:
        return False
    failure = TaskFailure(
        kind=kind.name,
        fingerprint=fingerprint,
        index=index,
        reason=reason,
        error_type=error_type,
        message=message,
        attempts=attempt + 1,
    )
    results[index] = failure
    if journal_log is not None:
        journal_log.record_quarantined(failure)
    _notify(
        ProgressEvent(kind.name, index, total, spec_list[index], False, elapsed),
        progress,
    )
    return True


def _complete(
    kind: TaskKind,
    cache: Optional[ResultCache],
    journal_log: Optional[CampaignJournal],
    results: List[Any],
    spec_list: Sequence[Any],
    fingerprints: Sequence[str],
    index: int,
    total: int,
    result: Any,
    duration_s: float,
    progress: Optional[ProgressListener],
) -> None:
    """Persist one finished spec (cache, then journal, then notify --
    write-ahead ordering: a listener that raises cannot lose the
    durable record)."""
    results[index] = result
    if cache is not None:
        cache.store(fingerprints[index], spec_list[index], result)
    if journal_log is not None:
        journal_log.record_done(
            fingerprints[index], index, serialize.encode(result)
        )
    _notify(
        ProgressEvent(kind.name, index, total, spec_list[index], False, duration_s),
        progress,
    )


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill every worker process of ``pool`` (hung workers cannot be
    cancelled through the futures API; reaching into ``_processes`` is
    the only way to reclaim them without leaking until exit)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    for proc in list(processes.values()):
        try:
            proc.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass


def _run_parallel(
    kind: TaskKind,
    cache: Optional[ResultCache],
    journal_log: Optional[CampaignJournal],
    results: List[Any],
    spec_list: Sequence[Any],
    fingerprints: Sequence[str],
    pending: Sequence[int],
    total: int,
    jobs: int,
    policy: RetryPolicy,
    faults_text: Optional[str],
    progress: Optional[ProgressListener],
) -> None:
    """Completion-order harvesting over an elastic process pool.

    Submission is bounded to the worker count so a per-task deadline
    starts when the task actually starts.  The pool is rebuilt on
    ``BrokenProcessPool`` (all in-flight attempts are charged -- the
    crasher cannot be identified, a documented conservative policy) and
    on deadline expiry (only the expired attempts are charged; the other
    in-flight specs are resubmitted uncharged).  Retries wait in a delay
    heap rather than blocking the harvest loop.
    """
    max_workers = min(jobs, len(pending))
    queue = deque(pending)
    retry_heap: List[Tuple[float, int, int]] = []  # (ready_at, seq, index)
    inflight: Dict[Any, Tuple[int, int, float, float]] = {}
    attempts: Dict[int, int] = {index: 0 for index in pending}
    remaining = len(pending)
    seq = 0
    pool = ProcessPoolExecutor(max_workers=max_workers)

    def rebuild_pool() -> None:
        nonlocal pool
        _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=max_workers)

    def submit(index: int) -> None:
        attempt = attempts[index]
        if journal_log is not None:
            journal_log.record_submitted(fingerprints[index], index, attempt)
        try:
            if faults_text is not None:
                future = pool.submit(
                    _call_shimmed, kind.fn, spec_list[index],
                    index, attempt, faults_text,
                )
            else:
                future = pool.submit(kind.fn, spec_list[index])
        except BrokenProcessPool:
            # The break predates this submit: charge the in-flight
            # attempts, then submit this spec (uncharged) to the fresh pool.
            handle_break()
            if faults_text is not None:
                future = pool.submit(
                    _call_shimmed, kind.fn, spec_list[index],
                    index, attempt, faults_text,
                )
            else:
                future = pool.submit(kind.fn, spec_list[index])
        inflight[future] = (index, attempt, time.monotonic(), time.perf_counter())

    def fail_attempt(
        index: int, attempt: int, reason: str,
        error_type: str, message: str, elapsed: float,
    ) -> None:
        nonlocal remaining, seq
        quarantined = _register_failure(
            kind, journal_log, results, spec_list, fingerprints,
            index, attempt, total, policy,
            reason, error_type, message, elapsed, progress,
        )
        if quarantined:
            remaining -= 1
        else:
            attempts[index] = attempt + 1
            ready_at = time.monotonic() + backoff_delay_s(
                policy, fingerprints[index], attempt
            )
            heapq.heappush(retry_heap, (ready_at, seq, index))
            seq += 1

    def handle_break() -> None:
        # A dead worker poisons every in-flight future and cannot be
        # identified from the driver; conservatively charge them all an
        # attempt (crash faults in tests/CI fire on attempt 0 only, so
        # innocents recover on the rebuilt pool).
        states = [inflight[f] for f in list(inflight)]
        inflight.clear()
        rebuild_pool()
        for index, attempt, _, started_wall in states:
            fail_attempt(
                index, attempt, "worker-crash", "BrokenProcessPool",
                "worker process died; pool rebuilt",
                time.perf_counter() - started_wall,
            )

    try:
        while remaining > 0:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, _, index = heapq.heappop(retry_heap)
                queue.append(index)
            while queue and len(inflight) < max_workers:
                submit(queue.popleft())
            if not inflight:
                if retry_heap:
                    delay = retry_heap[0][0] - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, 0.25))
                    continue
                break  # unreachable: remaining > 0 implies work somewhere
            tick = 0.25
            now = time.monotonic()
            if retry_heap:
                tick = min(tick, max(retry_heap[0][0] - now, 0.01))
            if policy.task_timeout_s is not None:
                for _, _, started_mono, _ in inflight.values():
                    deadline = started_mono + policy.task_timeout_s
                    tick = min(tick, max(deadline - now, 0.01))
            done, _ = futures_wait(
                set(inflight), timeout=tick, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                index, attempt, _, started_wall = inflight.pop(future)
                elapsed = time.perf_counter() - started_wall
                try:
                    result = future.result(timeout=0)
                except BrokenProcessPool:
                    broken = True
                    fail_attempt(
                        index, attempt, "worker-crash", "BrokenProcessPool",
                        "worker process died; pool rebuilt", elapsed,
                    )
                except Exception as exc:
                    fail_attempt(
                        index, attempt, "exception",
                        type(exc).__name__, str(exc), elapsed,
                    )
                else:
                    _complete(
                        kind, cache, journal_log, results, spec_list,
                        fingerprints, index, total, result, elapsed, progress,
                    )
                    remaining -= 1
            if broken and inflight:
                handle_break()
            elif broken:
                rebuild_pool()
            if policy.task_timeout_s is not None and inflight:
                now = time.monotonic()
                expired = [
                    (future, state)
                    for future, state in inflight.items()
                    if now - state[2] >= policy.task_timeout_s
                ]
                if expired:
                    expired_futures = {future for future, _ in expired}
                    survivors = [
                        state[0]
                        for future, state in inflight.items()
                        if future not in expired_futures
                    ]
                    inflight.clear()
                    # A running task cannot be cancelled; the only way to
                    # reclaim a hung worker is to kill the pool.  Expired
                    # attempts are charged; survivors resubmit uncharged.
                    rebuild_pool()
                    for _, (index, attempt, _, started_wall) in expired:
                        fail_attempt(
                            index, attempt, "timeout", "TaskTimeout",
                            f"exceeded task deadline of "
                            f"{policy.task_timeout_s:g}s",
                            time.perf_counter() - started_wall,
                        )
                    for index in survivors:
                        queue.append(index)
    except KeyboardInterrupt:
        # Flush results that already finished (no progress notification:
        # the interrupt may have come *from* a listener), then reclaim
        # the workers and re-raise -- nothing already computed is lost.
        for future, (index, _, _, _) in list(inflight.items()):
            if future.done() and not future.cancelled():
                try:
                    result = future.result(timeout=0)
                except (Exception, KeyboardInterrupt):
                    continue
                results[index] = result
                if cache is not None:
                    cache.store(fingerprints[index], spec_list[index], result)
                if journal_log is not None:
                    journal_log.record_done(
                        fingerprints[index], index, serialize.encode(result)
                    )
        for future in list(inflight):
            future.cancel()
        _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)
