"""Runtime invariant monitor: safety probes evaluated *during* runs.

The chaos auditor asserts budget conservation; this module generalizes
that into a registry of named invariants, each a probe over the live
simulation state, evaluated at every auditor interval (and, for the
hook-based ones, at the exact instant the protocol event happens).  A
failed probe produces a structured :class:`InvariantViolation` carrying
the simulated time and enough causal context to debug it -- the record
the shrinking fuzzer (:mod:`repro.experiments.fuzz`) minimizes fault
schedules against.

Invariants shipped by default:

``conservation``
    The :class:`~repro.core.manager.ConservationLedger` identity and the
    base §2.1 :class:`~repro.managers.base.BudgetAudit` both hold.
``escrow-consistency``
    Every pool's open-escrow entries sum to its ``escrow_w``, no entry
    is negative, and no grant id is simultaneously open and settled
    (settling is at-most-once).
``safe-cap-range``
    Every managed node's requested cap stays inside the node's safe
    range -- equivalently, no socket's share of an even split exceeds
    the per-socket maximum (§2.1 second constraint).
``membership-dead-grant``
    No decider accepts power from a peer its own view still holds
    confirmed-dead *after* ingesting the grant's liveness evidence, and
    no pool keeps escrow open toward a requester its view confirmed
    dead (the transition hook writes those off).
``retry-budget``
    Retries are bounded by their enabling condition: every retry is
    preceded by a distinct request timeout, so the retry counter can
    never exceed the timeout counter (and is zero when retries are
    configured off).
``clock-monotone``
    The engine clock never runs backwards between probes.

Test-only invariants whose names start with ``selftest`` are registered
but excluded from :func:`default_invariants` -- the fuzzer's acceptance
test arms ``selftest-node-death`` (violated by any node write-off) to
prove the find-and-shrink loop works end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.membership.view import DEAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import PenelopeManager
    from repro.sim.engine import Engine


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a named invariant."""

    #: Registry name of the violated invariant.
    invariant: str
    #: Simulated time the violation was observed.
    time: float
    #: Human-readable statement of what broke.
    message: str
    #: Causal context (node ids, watts, counter values -- JSON-safe).
    context: Dict[str, Any] = field(default_factory=dict)


class InvariantViolationError(AssertionError):
    """Raised on the first violation when the monitor is fail-fast.

    Subclasses :class:`AssertionError` so existing chaos tests (and the
    sweep runner's failure handling) treat a violated invariant exactly
    like a failed conservation assertion.
    """

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(
            f"invariant {violation.invariant!r} violated at "
            f"t={violation.time:.3f}s: {violation.message}"
        )
        self.violation = violation


#: An invariant's probe: inspects the monitor's manager/engine and yields
#: a violation record per breach found (empty when the invariant holds).
Probe = Callable[["InvariantMonitor"], Iterator[InvariantViolation]]


@dataclass(frozen=True)
class Invariant:
    name: str
    description: str
    probe: Probe


_REGISTRY: Dict[str, Invariant] = {}


def register_invariant(name: str, description: str) -> Callable[[Probe], Probe]:
    """Decorator registering ``fn`` as the probe of invariant ``name``."""

    def decorate(fn: Probe) -> Probe:
        if name in _REGISTRY:
            raise ValueError(f"invariant {name!r} already registered")
        _REGISTRY[name] = Invariant(name=name, description=description, probe=fn)
        return fn

    return decorate


def get_invariant(name: str) -> Invariant:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown invariant {name!r} (known: {sorted(_REGISTRY)})"
        ) from None


def all_invariants() -> List[Invariant]:
    """Every registered invariant, including test-only ones."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def default_invariants() -> List[Invariant]:
    """The production set: everything not namespaced ``selftest``."""
    return [
        _REGISTRY[name]
        for name in sorted(_REGISTRY)
        if not name.startswith("selftest")
    ]


class InvariantMonitor:
    """Evaluates a set of invariants against one live Penelope run.

    ``fail_fast=True`` (the chaos default) raises
    :class:`InvariantViolationError` at the first breach, surfacing it
    out of the engine loop like the auditor's conservation assertion
    always has.  ``fail_fast=False`` (the fuzzer) records violations --
    capped per invariant so a systematically-broken probe cannot flood
    memory -- and lets the run finish.
    """

    #: Violations kept per invariant; breaches beyond the cap are
    #: counted (``overflowed``) but not stored.
    MAX_PER_INVARIANT = 8

    def __init__(
        self,
        engine: "Engine",
        manager: "PenelopeManager",
        invariants: Optional[Iterable[Invariant]] = None,
        fail_fast: bool = True,
    ) -> None:
        self.engine = engine
        self.manager = manager
        self.invariants = (
            list(invariants) if invariants is not None else default_invariants()
        )
        self.fail_fast = fail_fast
        self.violations: List[InvariantViolation] = []
        #: Total breaches per invariant (including ones over the cap).
        self.counts: Dict[str, int] = {}
        self._last_now = engine.now
        self._install_hooks()

    @property
    def overflowed(self) -> int:
        """Breaches observed but not stored (over the per-invariant cap)."""
        return sum(self.counts.values()) - len(self.violations)

    # -- recording ----------------------------------------------------------

    def record(self, violation: InvariantViolation) -> None:
        """Book one breach; raises when fail-fast."""
        count = self.counts.get(violation.invariant, 0)
        self.counts[violation.invariant] = count + 1
        if count < self.MAX_PER_INVARIANT:
            self.violations.append(violation)
        self.manager.recorder.bump(f"invariant.{violation.invariant}")
        if self.fail_fast:
            raise InvariantViolationError(violation)

    # -- probing ------------------------------------------------------------

    def probe(self) -> None:
        """Evaluate every invariant once, right now."""
        # Revives replace a node's decider; re-point the event hooks at
        # the current generation before the sampled probes run.
        self._install_hooks()
        for invariant in self.invariants:
            for violation in invariant.probe(self):
                self.record(violation)

    def _install_hooks(self) -> None:
        if not any(i.name == "membership-dead-grant" for i in self.invariants):
            return
        for decider in self.manager.deciders.values():
            decider.dead_grant_hook = self._on_dead_grant

    def _on_dead_grant(self, receiver: int, donor: int, time: float) -> None:
        self.record(
            InvariantViolation(
                invariant="membership-dead-grant",
                time=time,
                message=(
                    f"node {receiver} accepted a grant from peer {donor} "
                    f"its view still holds confirmed-dead"
                ),
                context={"receiver": receiver, "donor": donor},
            )
        )


# -- the default probes -------------------------------------------------------


@register_invariant(
    "conservation",
    "budget conservation ledger balances and the §2.1 audit holds",
)
def _probe_conservation(
    monitor: InvariantMonitor,
) -> Iterator[InvariantViolation]:
    manager = monitor.manager
    ledger = manager.ledger()
    try:
        ledger.check()
    except AssertionError as exc:
        yield InvariantViolation(
            invariant="conservation",
            time=ledger.time,
            message=str(exc),
            context={"residual_w": ledger.residual_w},
        )
    try:
        manager.audit().check()
    except AssertionError as exc:
        yield InvariantViolation(
            invariant="conservation",
            time=ledger.time,
            message=str(exc),
            context={"kind": "budget-audit"},
        )


@register_invariant(
    "escrow-consistency",
    "open escrow sums match, entries are positive, settle is at-most-once",
)
def _probe_escrow(monitor: InvariantMonitor) -> Iterator[InvariantViolation]:
    now = monitor.engine.now
    tolerance = 1e-6
    for node_id, pool in monitor.manager.pools.items():
        entries = pool.open_escrow()
        total = sum(watts for _, watts, _ in entries)
        if abs(total - pool.escrow_w) > tolerance:
            yield InvariantViolation(
                invariant="escrow-consistency",
                time=now,
                message=(
                    f"pool {node_id} escrow entries sum to {total:.6f} W "
                    f"but escrow_w is {pool.escrow_w:.6f} W"
                ),
                context={"node": node_id, "entries_w": total, "escrow_w": pool.escrow_w},
            )
        settled = set(pool.settled_grant_ids())
        for grant_id, watts, requester in entries:
            if watts <= 0:
                yield InvariantViolation(
                    invariant="escrow-consistency",
                    time=now,
                    message=(
                        f"pool {node_id} holds a non-positive escrow of "
                        f"{watts!r} W for grant {grant_id}"
                    ),
                    context={"node": node_id, "grant_id": grant_id, "watts": watts},
                )
            if grant_id in settled:
                yield InvariantViolation(
                    invariant="escrow-consistency",
                    time=now,
                    message=(
                        f"pool {node_id} grant {grant_id} is both settled "
                        f"and still open in escrow (double settle)"
                    ),
                    context={
                        "node": node_id,
                        "grant_id": grant_id,
                        "requester": requester,
                    },
                )


@register_invariant(
    "safe-cap-range",
    "every managed node's cap stays inside its safe per-socket range",
)
def _probe_caps(monitor: InvariantMonitor) -> Iterator[InvariantViolation]:
    manager = monitor.manager
    if manager.cluster is None:
        return
    now = monitor.engine.now
    spec = manager.cluster.config.spec
    for node_id in manager.client_ids:
        cap_w = manager.cluster.node(node_id).rapl.cap_w
        if not spec.is_safe_cap(cap_w):
            yield InvariantViolation(
                invariant="safe-cap-range",
                time=now,
                message=(
                    f"node {node_id} cap {cap_w:.3f} W is outside the safe "
                    f"range [{spec.min_cap_w:.1f}, {spec.max_cap_w:.1f}] W"
                ),
                context={
                    "node": node_id,
                    "cap_w": cap_w,
                    "min_cap_w": spec.min_cap_w,
                    "max_cap_w": spec.max_cap_w,
                },
            )


@register_invariant(
    "membership-dead-grant",
    "no grants accepted from, nor escrow held toward, confirmed-dead peers",
)
def _probe_dead_peers(monitor: InvariantMonitor) -> Iterator[InvariantViolation]:
    # The accepted-grant half is event-driven (the decider hook records
    # at the exact instant); this sampled half checks the donor side:
    # the pool's membership-transition hook writes off escrow to peers
    # confirmed dead, so none may remain open.
    now = monitor.engine.now
    for node_id, pool in monitor.manager.pools.items():
        membership = pool._membership
        if membership is None:
            continue
        for grant_id, watts, requester in pool.open_escrow():
            if membership.view.status_of(requester) == DEAD:
                yield InvariantViolation(
                    invariant="membership-dead-grant",
                    time=now,
                    message=(
                        f"pool {node_id} holds {watts:.3f} W in escrow for "
                        f"grant {grant_id} to peer {requester}, which its "
                        f"view confirmed dead"
                    ),
                    context={
                        "node": node_id,
                        "grant_id": grant_id,
                        "requester": requester,
                        "watts": watts,
                    },
                )


@register_invariant(
    "retry-budget",
    "request retries never outrun the timeouts that justify them",
)
def _probe_retries(monitor: InvariantMonitor) -> Iterator[InvariantViolation]:
    counters = monitor.manager.recorder.counters
    retries = counters.get("decider.request_retries", 0)
    timeouts = counters.get("decider.request_timeouts", 0)
    now = monitor.engine.now
    if retries > timeouts:
        yield InvariantViolation(
            invariant="retry-budget",
            time=now,
            message=(
                f"{retries} retries recorded against only {timeouts} "
                f"request timeouts (every retry must follow a timeout)"
            ),
            context={"retries": retries, "timeouts": timeouts},
        )
    if monitor.manager.config.request_retries == 0 and retries > 0:
        yield InvariantViolation(
            invariant="retry-budget",
            time=now,
            message=f"{retries} retries recorded with retries configured off",
            context={"retries": retries},
        )


@register_invariant(
    "clock-monotone",
    "the engine clock never runs backwards between probes",
)
def _probe_clock(monitor: InvariantMonitor) -> Iterator[InvariantViolation]:
    now = monitor.engine.now
    if now < monitor._last_now:
        yield InvariantViolation(
            invariant="clock-monotone",
            time=now,
            message=(
                f"engine clock moved backwards: {monitor._last_now!r} -> {now!r}"
            ),
            context={"previous": monitor._last_now, "now": now},
        )
    monitor._last_now = now


@register_invariant(
    "selftest-node-death",
    "TEST ONLY: violated by any node write-off (fuzzer plumbing check)",
)
def _probe_selftest(monitor: InvariantMonitor) -> Iterator[InvariantViolation]:
    # Deliberately breakable: any kill books a write-off and trips this.
    # Used by the fuzzer's acceptance test to prove the find-and-shrink
    # loop works; never part of default_invariants().
    write_offs = monitor.manager.recorder.counters.get("manager.write_offs", 0)
    if write_offs > 0:
        yield InvariantViolation(
            invariant="selftest-node-death",
            time=monitor.engine.now,
            message=f"{write_offs} node write-off(s) recorded",
            context={"write_offs": write_offs},
        )
