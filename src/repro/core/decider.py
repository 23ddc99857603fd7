"""The local decider: Algorithm 1 of the paper.

Every ``T`` seconds the decider reads the average power ``P`` dissipated
since the last iteration and compares it to the node cap ``C_t`` with
margin ``ε``:

* ``P < C_t - ε`` -- the node has **excess**: lower the cap by
  ``Δ = C_t - P`` *first*, then deposit ``Δ`` in the local pool (ordering
  preserves the system-wide budget, §3.1).
* otherwise the node is **power-hungry**: drain the local pool if it has
  anything (local power discovery); else pick a peer uniformly at random
  and send a request -- *urgent*, carrying ``α = initialCap - C_t``, if
  the node is below its initial cap, plain otherwise.

At the end of the iteration the decider honours the pool's
``localUrgency`` flag: if some other node's urgent request hit our pool
and we are not ourselves urgent, release everything above the initial cap
so the urgent node can find it (distributed urgency, §3.1-3.2).

Fault tolerance
---------------
Every received :class:`~repro.net.messages.PowerGrant` with positive
delta is acknowledged with a :class:`~repro.net.messages.GrantAck` so the
donor pool can settle its escrow (see :mod:`repro.core.pool`).  Timed-out
requests are retried with exponential backoff and jitter, and peers that
time out are *suspected* for a while: uniform random discovery re-draws
(at most twice) when it lands on a suspected peer, steering traffic away
from crashed or partitioned nodes until the suspicion expires.

With ``enable_membership`` the ad-hoc suspicion map is superseded by the
SWIM-style failure detector (:mod:`repro.membership`): discovery draws
its candidates from the live membership view, outgoing requests and acks
piggyback pending membership gossip, and incoming grants feed direct
liveness evidence back into the view.  A node whose view empties (e.g.
full partition) degrades to local-pool-only operation instead of
erroring.

The loop is a state machine on queued calls, not a generator process.
Its start hop, stagger, ticks, retry backoffs and the wake-up a fired
deadline queues are bare entries; the request deadline is a handle, or
under batched ticks shared (:mod:`repro.core.batcher`).  A reply is
taken in place on delivery.  A message landing between a fired deadline
and its wake-up is the wake-up's: the matching grant still counts, and
anything else is absorbed and the request times out.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import PenelopeConfig
from repro.core.pool import PowerPool
from repro.instrumentation import MetricsRecorder
from repro.net.messages import (
    MEMBER_DEAD,
    PORT_DECIDER,
    PORT_POOL,
    Addr,
    PowerGrant,
    PowerRequest,
    grant_ack,
    power_request,
)
from repro.net.network import Network
from repro.net.roster import roster_of
from repro.power.rapl import PowerCapInterface
from repro.sim import PRIORITY_URGENT, Engine, Handle, Store

if TYPE_CHECKING:  # pragma: no cover - break the core <-> membership cycle
    from repro.core.batcher import SharedDeadline, TickBatcher
    from repro.membership.detector import FailureDetector
    from repro.net.messages import Message


class LocalDecider:
    """Penelope's per-node feedback controller (Algorithm 1).

    Parameters
    ----------
    engine, network:
        Simulation kernel and fabric.
    node_id:
        The node this decider manages.
    rapl:
        The power interface of that node (read power / set cap).
    pool:
        The co-located :class:`~repro.core.pool.PowerPool`.
    peers:
        The Penelope roster, ``node_id`` included or not.  Every member
        but ``node_id`` is a discovery target; the decider keeps them as
        an O(1) view of the roster, shared when ``peers`` is a
        :class:`~repro.net.roster.Roster` (as the manager passes).
    initial_cap_w:
        The node's initial assignment -- the urgency threshold.
    rng:
        Random stream for peer choice and start stagger.
    membership:
        The node's failure detector when ``enable_membership`` is on;
        ``None`` keeps the legacy ad-hoc suspicion behaviour bit-exact.
    """

    # Ten thousand deciders live in the largest universes: slots keep
    # each one free of a per-instance dict.
    __slots__ = (
        "engine", "network", "node_id", "rapl", "pool", "peers", "initial_cap_w",
        "config", "recorder", "_rng", "addr", "inbox", "cap_w", "applied_grants_w",
        "iterations", "requests_sent", "urgent_requests_sent", "empty_grants",
        "_suspicion", "_pending_acks", "_membership", "_batcher", "clock_scale",
        "_seen_grants", "dead_grant_hook", "_run", "_runs", "_next_tick",
        "_urgent", "_scale", "_retry_by", "_attempts", "_backoff", "_peer",
        "_request", "_sent_at", "_deadline", "_waits", "_wait", "_reply",
    )

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: int,
        rapl: PowerCapInterface,
        pool: PowerPool,
        peers: Sequence[int],
        initial_cap_w: float,
        config: PenelopeConfig,
        rng: np.random.Generator,
        recorder: Optional[MetricsRecorder] = None,
        membership: Optional["FailureDetector"] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.node_id = node_id
        self.rapl = rapl
        self.pool = pool
        self.peers: Sequence[int] = roster_of(peers).without(node_id)
        self.initial_cap_w = initial_cap_w
        self.config = config
        self.recorder = recorder or MetricsRecorder()
        self._rng = rng
        self.addr = Addr(node_id, PORT_DECIDER)
        self.inbox = Store(
            engine, capacity=config.pool_inbox_capacity, name=f"decider@{node_id}.inbox"
        )
        network.attach(self.addr, self.inbox)
        #: The decider's notion of the node cap, C_t.  Kept separately from
        #: the RAPL requested cap so accounting never depends on hardware
        #: clamping order (they are asserted equal in tests).
        self.cap_w = rapl.cap_w
        #: Watts received via grants and applied to the cap (for in-flight
        #: accounting by the manager).
        self.applied_grants_w = 0.0
        self.iterations = 0
        self.requests_sent = 0
        self.urgent_requests_sent = 0
        #: Zero-delta grants received (an empty pool answering honestly --
        #: protocol-conformant, counted apart from unexpected messages).
        self.empty_grants = 0
        #: Suspected peers: node id -> simulated time the suspicion expires.
        self._suspicion: Dict[int, float] = {}
        #: Acks awaiting re-transmission (ack-loss hardening): list of
        #: ``[donor addr, grant id, delta, resends left]``.
        self._pending_acks: List[List[Any]] = []
        self._membership = membership
        #: Set while this decider is driven by a
        #: :class:`~repro.core.batcher.TickBatcher` instead of its own
        #: per-node loop (the batcher assigns/clears it).
        self._batcher: Optional["TickBatcher"] = None
        #: Local-clock scale factor (1.0 = nominal).  A drifting node's
        #: timers -- tick cadence, response timeouts, retry backoffs --
        #: all stretch by this factor (``faults.clock_drift_at``).  At
        #: exactly 1.0 every ``x * scale`` below is bitwise ``x``, so
        #: pinned fixtures are unaffected.
        self.clock_scale: float = 1.0
        #: Grant ids already applied once (duplicate-delivery hardening):
        #: a network-duplicated :class:`PowerGrant` must re-ack but never
        #: re-apply, or the watts it carries would be minted twice.
        self._seen_grants: "OrderedDict[int, bool]" = OrderedDict()
        #: Invariant-monitor hook: called ``(receiver, donor, sim_time)``
        #: whenever a grant is accepted from a peer the local membership
        #: view still holds confirmed-dead *after* ingesting the message.
        self.dead_grant_hook: Optional[Callable[[int, int, float], None]] = None
        #: The per-node loop's number (0 while not running; entries of a
        #: stopped loop carry an old one) and its next tick instant.
        self._run = 0
        self._runs = 0
        self._next_tick = 0.0
        #: The iteration's peer request: urgency, clock scale, retry budget
        #: and the attempt in flight -- its request (the token of entries
        #: queued for it; ``None`` between requests) and deadline.
        self._urgent = False
        self._scale = 1.0
        self._retry_by = 0.0
        self._attempts = 0
        self._backoff = 0.0
        self._peer = 0
        self._request: Optional[PowerRequest] = None
        self._sent_at = 0.0
        self._deadline: Union[Handle, "SharedDeadline", None] = None
        #: The attempt's inbox wait: its number (0 when not waiting; each
        #: wait takes a fresh one from ``_waits``, so a hand-off queued
        #: for an ended wait surfaces as a no-op) and its reply slot, the
        #: message handed over and not yet taken (``None`` until then).
        self._waits = 0
        self._wait = 0
        self._reply: Optional["Message"] = None

    #: How many applied grant ids to remember for duplicate suppression
    #: (matches the donor pool's settled-escrow history depth).
    _GRANT_HISTORY = 512

    # -- state inspection ---------------------------------------------------

    @property
    def is_urgent(self) -> bool:
        """Urgency = power-hungry *and* below the initial cap (checked at
        request time inside the loop; this property reflects the cap test)."""
        return self.cap_w < self.initial_cap_w

    @property
    def is_running(self) -> bool:
        return self._batcher is not None or self._run != 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the per-node loop one urgent zero-delay hop from now."""
        if self._run:
            raise RuntimeError(f"decider {self.node_id} already running")
        # A stopped decider detached its endpoint; re-attach on restart.
        if self.network.inbox_of(self.addr) is not self.inbox:
            self.network.attach(self.addr, self.inbox)
        self._runs += 1
        self._run = self._runs
        self.engine.call_later(
            0.0, self._begin, self._run, name="decider.start", priority=PRIORITY_URGENT
        )

    def stop(self) -> None:
        """Stop the control loop, abandon a request in flight and detach
        the endpoint (so a crash-restarted replacement can attach it)."""
        if self._batcher is not None:
            self._batcher.remove(self)
        if self._run:
            self._run = 0
            self.abandon_request()
        self.network.detach(self.addr)

    # -- cap helpers -----------------------------------------------------------

    def _set_cap(self, new_cap_w: float) -> None:
        self.cap_w = new_cap_w
        self.rapl.set_cap(new_cap_w)
        self.recorder.cap(self.engine.now, self.node_id, new_cap_w)

    def _raise_cap(self, delta_w: float) -> None:
        """Raise the cap by ``delta_w``, respecting the node's safe maximum.

        §3: deciders "have information about safe power ranges for the node
        on which they are running and can ensure that nodes do not exceed
        that safe range."  Any watts that will not fit under the maximum go
        back into the local pool instead of being lost.
        """
        max_cap = self.rapl.spec.max_cap_w
        usable = min(delta_w, max(0.0, max_cap - self.cap_w))
        if usable > 0:
            self._set_cap(self.cap_w + usable)
        leftover = delta_w - usable
        if leftover > 0:
            self.pool.deposit(leftover)
            self.recorder.bump("decider.grant_overflow_banked")

    # -- the control loop (Algorithm 1) ------------------------------------------

    def _begin(self, run: int) -> None:
        if run != self._run:
            return
        stagger = self.config.effective_stagger_s
        if stagger > 0:
            self.engine.call_later(
                float(self._rng.uniform(0.0, stagger)),
                self._staggered,
                run,
                name="decider.stagger",
            )
        else:
            self._staggered(run)

    def _staggered(self, run: int) -> None:
        if run == self._run:
            self._next_tick = self.engine.now
            self._schedule_tick()

    def _schedule_tick(self) -> None:
        """Queue the next tick, or run it now if it is already due.

        Fixed-cadence ticks ("iterates once every second", §4.5): the
        next iteration lands at start + k*T regardless of how long a
        response wait took, like a real timer-driven daemon.
        ``clock_scale`` is re-read every iteration so a drift fault
        landing mid-run takes effect on the very next tick.
        """
        engine = self.engine
        period_s = self.config.period_s
        while True:
            self._next_tick += period_s * self.clock_scale
            now = engine.now
            if self._next_tick > now:
                engine.call_later(
                    self._next_tick - now, self._on_tick, self._run, name="decider.tick"
                )
                return
            if self._tick():
                return

    def _on_tick(self, run: int) -> None:
        if run == self._run and not self._tick():
            self._schedule_tick()

    def _tick(self) -> bool:
        """One iteration; True when it issued a peer request, whose end
        continues the loop (:meth:`_finish_request`)."""
        urgency = self.tick_start()
        if urgency is None:
            self.tick_end(False, 0.0)
            return False
        self.request_power(urgency)
        return True

    def tick_start(self) -> Optional[bool]:
        """The synchronous head of one iteration (Algorithm 1).

        Runs the pre-phase (suspicion purge, ack re-sends, stale-grant
        absorption) and the excess/local-discovery/peer-request branch.
        Returns ``None`` when the iteration needs no peer request (the
        caller must still finish with ``tick_end(False, 0.0)``), or the
        urgency flag of the peer request this iteration wants to issue
        (finish with ``tick_end(urgency, granted)`` once it resolves).

        Hoisted out of :meth:`_loop` so the batched tick driver can run
        every node's iteration as a plain call inside one engine event.
        """
        config = self.config
        engine = self.engine
        rapl = self.rapl
        pool = self.pool
        recorder = self.recorder
        node_id = self.node_id
        self.iterations += 1
        if self._suspicion:
            self._purge_suspicion()
        self._flush_pending_acks()
        self._absorb_stale_grants()
        power_w = rapl.read_power()
        cap_w = self.cap_w

        if power_w < cap_w - config.epsilon_w:
            # -- excess branch ------------------------------------
            delta = cap_w - power_w
            # Never cap below the node's safe minimum: release only
            # what the safe range allows (§2.1 second constraint).
            delta = min(delta, cap_w - rapl.spec.min_cap_w)
            if delta > 0:
                self._set_cap(cap_w - delta)  # lower cap FIRST
                pool.deposit(delta)
                recorder.transaction(
                    time=engine.now,
                    kind="release",
                    src=node_id,
                    dst=node_id,
                    watts=delta,
                )
            return None
        # -- power-hungry branch ---------------------------------
        headroom = rapl.spec.max_cap_w - cap_w
        if pool.balance_w > 0:
            # Urgency applies to local discovery too: a node
            # below its initial cap may take back enough of its
            # own cached power to return to that cap in one
            # step; only the portion beyond the initial cap is
            # subject to the getMaxSize limit (§3: urgent
            # requests "are allowed access to as much excess
            # power as they can locate until the urgent node
            # reaches its initial cap").
            allowed = pool.max_transaction_w()
            if config.enable_urgency and cap_w < self.initial_cap_w:
                allowed = max(allowed, self.initial_cap_w - cap_w)
            delta = pool.withdraw_up_to(min(allowed, headroom))
            if delta > 0:
                self._raise_cap(delta)
                recorder.transaction(
                    time=engine.now,
                    kind="local",
                    src=node_id,
                    dst=node_id,
                    watts=delta,
                )
            return None
        if self.peers and headroom > 0:
            return config.enable_urgency and cap_w < self.initial_cap_w
        return None

    def tick_end(self, urgency: bool, granted_w: float) -> None:
        """The synchronous tail of one iteration.

        Applies the peer grant (if any) and honours the pool's
        ``localUrgency`` flag -- the distributed urgency back-pressure of
        §3.1-3.2 (skipped when this iteration itself requested urgently).
        """
        if granted_w > 0:
            self._raise_cap(granted_w)
        pool = self.pool
        if self.config.enable_urgency and not urgency and pool.local_urgency:
            pool.consume_local_urgency()
            release = self.cap_w - self.initial_cap_w
            if release > 0:
                self._set_cap(self.cap_w - release)
                pool.deposit(release)
                self.recorder.transaction(
                    time=self.engine.now,
                    kind="induced-release",
                    src=self.node_id,
                    dst=self.node_id,
                    watts=release,
                )

    # -- peer transactions ----------------------------------------------------------

    def _choose_peer(self) -> Optional[int]:
        """Power discovery: one uniformly random peer (§3.1).

        With membership enabled the candidate set is the failure
        detector's live view instead of the static roster, and the draw
        is uniform over live peers (no redraws needed -- suspects are
        already excluded).  An empty view returns ``None``: graceful
        degradation to local-pool-only operation rather than an error.

        Without membership, random discovery is suspicion-aware: a draw
        landing on a recently-unresponsive peer is re-drawn, at most
        twice, so a crashed or partitioned neighbourhood sheds traffic
        without ever becoming unreachable (an unlucky third draw still
        goes through -- a bias, not a ban).  While no peer is suspected
        the single-draw RNG pattern is untouched.  Expired suspicions
        are purged lazily on the way.
        """
        membership = self._membership
        if membership is not None:
            candidates: Sequence[int] = membership.live_peers()
            if not candidates:
                self.recorder.bump("decider.no_live_peers")
                return None
        else:
            candidates = self.peers
        rng = self._rng
        peer = int(candidates[int(rng.integers(0, len(candidates)))])
        if membership is None and self._suspicion:
            now = self.engine.now
            for _ in range(2):
                expiry = self._suspicion.get(peer)
                if expiry is None:
                    break
                if expiry <= now:
                    del self._suspicion[peer]
                    break
                self.recorder.bump("decider.suspicion_redraws")
                peer = int(candidates[int(rng.integers(0, len(candidates)))])
        return peer

    def _suspect(self, peer: int) -> None:
        """Bias discovery away from ``peer`` until the suspicion expires.

        With membership enabled the detector's probe machinery is the
        liveness source of truth and the ad-hoc TTL map stays empty.
        """
        if self._membership is not None:
            return
        ttl = self.config.suspicion_ttl_s
        if ttl > 0:
            self._suspicion[peer] = self.engine.now + ttl

    def _purge_suspicion(self) -> None:
        """Drop expired suspicion entries (every tick, not just when the
        redraw loop happens to land on one -- a suspicion acquired and
        never re-drawn would otherwise linger forever)."""
        now = self.engine.now
        expired = [peer for peer, expiry in self._suspicion.items() if expiry <= now]
        for peer in expired:
            del self._suspicion[peer]

    def request_power(self, urgent: bool) -> None:
        """Request power from peers, retrying timeouts with backoff.

        The iteration ends -- ``tick_end`` with the granted watts (0 when
        every attempt timed out or the answering pool was empty), then
        the next tick -- when the request resolves, possibly before this
        call returns.  Each retry waits an exponentially growing backoff
        stretched by seeded jitter, then re-draws a peer (the timed-out
        one is now suspected, so discovery steers away from it).  A
        zero-delta grant is a definitive answer, not a failure -- it is
        never retried.

        Retries only spend what remains of the current iteration's
        period: a retry whose worst-case backoff-plus-timeout would
        overrun the next tick is skipped, so the fixed-cadence loop (the
        §4.5 frequency semantics) never slips.  With the default
        ``timeout == period`` the first attempt is the whole budget and
        behavior is exactly the paper's one-request-per-iteration;
        configs with a shorter response timeout get in-period retries.
        """
        scale = self.clock_scale
        self._urgent = urgent
        self._scale = scale
        self._retry_by = self.engine.now + self.config.period_s * scale
        self._attempts = 0
        self._backoff = self.config.retry_backoff_s * scale
        self._attempt()

    def _attempt(self) -> None:
        """Send one request and wait (bounded) for its grant.

        A grant that arrives *after* the timeout is not lost: the next
        iteration's :meth:`_absorb_stale_grants` deposits it into the
        local pool.  When discovery yields no candidate (membership view
        empty) the attempt is skipped entirely -- no request, no timeout
        -- and the node runs on its local pool until the view
        repopulates.
        """
        peer = self._choose_peer()
        if peer is None:
            self._attempt_done(0.0, False)
            return
        urgent = self._urgent
        alpha = max(0.0, self.initial_cap_w - self.cap_w) if urgent else 0.0
        request = power_request(
            self.addr, Addr(peer, PORT_POOL), urgent, alpha, self.iterations
        )
        self.requests_sent += 1
        if urgent:
            self.urgent_requests_sent += 1
        self._sent_at = self.engine.now
        self.network.send(self._stamp(request))
        self._peer = peer
        self._request = request
        # Batched requests armed at this instant share one deadline;
        # per-node loops arm their own.  Drifted deciders are never
        # batched, so only the per-node path scales the timeout.
        batcher = self._batcher
        if batcher is not None:
            self._deadline = batcher.request_deadline(self.config.timeout_s)
        else:
            self._deadline = self.engine.call_cancellable(
                self.config.timeout_s * self.clock_scale,
                self._on_deadline,
                name="decider.deadline",
            )
        self._await_reply()

    def _await_reply(self) -> None:
        self._waits += 1
        wait = self._wait = self._waits
        self._reply = self.inbox.wait(self._on_reply, wait)
        deadline = self._deadline
        if deadline is not None and not isinstance(deadline, Handle):
            deadline.waiters.append((self, wait))

    def _on_reply(self, wait: int, message: "Message") -> None:
        """A message for the waiting request, handed over by the inbox."""
        if wait != self._wait:
            return  # handed over after the wait ended
        request, deadline = self._request, self._deadline
        assert request is not None and deadline is not None
        if not deadline.pending:
            self._reply = message  # the deadline fired: its wake-up takes it
            return
        if isinstance(message, PowerGrant) and message.reply_to == request.msg_id:
            self._take_grant(message)
        else:
            # A stale grant from an earlier timed-out request: bank it.
            self._absorb_grant(message)
            self._await_reply()

    def _on_deadline(self) -> None:
        # Wake one fresh-sequence step later: a reply delivered in
        # between still counts, and a wake-up at a tick instant lands
        # behind that instant's batch (see repro.core.batcher).
        self.engine.call_later(0.0, self._on_wake, self._request, name="decider.wake")

    def _on_wake(self, request: PowerRequest) -> None:
        if request is not self._request:
            return  # abandoned since the deadline fired
        message = self._reply
        if message is not None:
            # Handed over since the deadline fired, or queued and not
            # surfaced yet (it surfaces as a no-op).
            if isinstance(message, PowerGrant) and message.reply_to == request.msg_id:
                self._take_grant(message)
                return
            # Anything else is banked; the request has timed out.
            self._absorb_grant(message)
        else:
            # Withdraw the wait so it cannot swallow a late grant that
            # the next iteration should absorb instead.
            self.inbox.cancel_wait(self._wait)
        self._wait, self._reply = 0, None
        self._suspect(self._peer)
        self.recorder.bump("decider.request_timeouts")
        self._record_turnaround(0.0, True)
        self._attempt_done(0.0, True)

    def _take_grant(self, message: PowerGrant) -> None:
        """The answer to the attempt in flight: apply it and end the wait."""
        self._wait, self._reply = 0, None
        self._suspicion.pop(self._peer, None)
        self._ingest(message)
        self._check_grant_source(message)
        self._acknowledge_grant(message)
        granted = message.delta
        if granted > 0:
            self._register_grant(message.msg_id)
            self.applied_grants_w += granted
        else:
            self.empty_grants += 1
            self.recorder.bump("decider.empty_grants")
        deadline = self._deadline
        if isinstance(deadline, Handle):
            # Disarm the deadline this grant beat; a shared one stays
            # armed for the other requests waiting on it.
            deadline.cancel()
        self._record_turnaround(granted, False)
        self._attempt_done(granted, False)

    def _record_turnaround(self, granted: float, timed_out: bool) -> None:
        engine = self.engine
        self.recorder.turnaround(
            time=engine.now,
            node=self.node_id,
            wait_s=engine.now - self._sent_at,
            granted_w=granted,
            timed_out=timed_out,
        )

    def _attempt_done(self, granted: float, timed_out: bool) -> None:
        """Retry a timed-out attempt if the period allows, else finish."""
        config = self.config
        if timed_out and self._attempts < config.request_retries:
            backoff = self._backoff
            worst_wait = backoff * (1.0 + config.retry_jitter)
            now = self.engine.now
            if now + worst_wait + config.timeout_s * self._scale <= self._retry_by:
                self._attempts += 1
                jitter = 1.0 + config.retry_jitter * float(self._rng.random())
                self.engine.call_later(
                    backoff * jitter, self._on_retry, self._request, name="decider.retry"
                )
                return
        self._finish_request(granted)

    def _on_retry(self, request: Optional[PowerRequest]) -> None:
        if request is not self._request:
            return  # abandoned during the backoff
        self._backoff *= self.config.retry_backoff_factor
        self.recorder.bump("decider.request_retries")
        self._attempt()

    def _finish_request(self, granted: float) -> None:
        """End the iteration's request and continue the loop."""
        self._request = None
        self._deadline = None
        self.tick_end(self._urgent, granted)
        batcher = self._batcher
        if batcher is not None:
            batcher.request_done(self)
        else:
            self._schedule_tick()

    def abandon_request(self) -> None:
        """Drop the request in flight (the decider stops or leaves the
        batcher): nothing queued for it acts later."""
        if self._wait:
            # Withdraw the wait, or a restart's first grant would be
            # handed to this dead wait and lost.
            self.inbox.cancel_wait(self._wait)
            self._wait, self._reply = 0, None
            deadline = self._deadline
            if isinstance(deadline, Handle):
                deadline.cancel()
        self._request = None
        self._deadline = None

    # -- grant acknowledgement ----------------------------------------------------

    def _acknowledge_grant(self, grant: PowerGrant) -> None:
        """Send the donor pool its escrow receipt (at-most-once settle).

        Zero-delta grants carry no escrow and need no ack.  With
        ``grant_ack_retries > 0`` the ack is also queued for
        re-transmission on the next iterations, shrinking the window in
        which a lost ack leaves the donor to refund an applied grant.
        """
        if grant.delta <= 0 or not self.config.enable_escrow:
            return
        self.network.send(
            self._stamp(grant_ack(self.addr, grant.src, grant.msg_id, grant.delta))
        )
        if self.config.grant_ack_retries > 0:
            self._pending_acks.append(
                [grant.src, grant.msg_id, grant.delta, self.config.grant_ack_retries]
            )

    def _flush_pending_acks(self) -> None:
        """Re-send queued acks (one round per iteration) until exhausted."""
        if not self._pending_acks:
            return
        send = self.network.send
        remaining: List[List[Any]] = []
        for entry in self._pending_acks:
            dst, grant_id, delta, resends = entry
            send(
                self._stamp(grant_ack(self.addr, dst, grant_id, delta))
            )
            self.recorder.bump("decider.ack_resends")
            if resends > 1:
                entry[3] = resends - 1
                remaining.append(entry)
        self._pending_acks = remaining

    # -- stale-grant recovery ----------------------------------------------------

    def _absorb_stale_grants(self) -> None:
        """Bank any grants that arrived after their request timed out.

        Dropping them would leak budget; depositing them in the local pool
        keeps the power in circulation (and this node drains its own pool
        first anyway).
        """
        while len(self.inbox) > 0:
            self._absorb_grant(self.inbox.get_nowait())

    def _absorb_grant(self, message: Any) -> None:
        # Any message reaching us is direct liveness evidence for its
        # sender: clear the ad-hoc suspicion immediately (a peer that just
        # granted power is plainly not crashed) and feed the membership
        # view, which also merges any piggybacked gossip.
        self._suspicion.pop(message.src.node, None)
        self._ingest(message)
        if isinstance(message, PowerGrant):
            if message.delta > 0:
                self._check_grant_source(message)
                if not self._register_grant(message.msg_id):
                    # A network-duplicated copy of a grant we already
                    # applied: re-ack (the donor's settle is idempotent)
                    # but never bank the watts a second time -- doing so
                    # would mint power and break the §2.1 budget audit.
                    self._acknowledge_grant(message)
                    self.recorder.bump("decider.duplicate_grants")
                    return
                self._acknowledge_grant(message)
                self.applied_grants_w += message.delta
                self.pool.deposit(message.delta)
                self.recorder.bump("decider.stale_grants_banked")
            else:
                # An empty pool answering honestly is protocol-conformant,
                # not noise -- counted apart from unexpected messages.
                self.empty_grants += 1
                self.recorder.bump("decider.empty_grants")
        else:
            self.recorder.bump("decider.unexpected_messages")

    def _register_grant(self, grant_id: int) -> bool:
        """Remember an applied grant id; ``False`` means already seen.

        The history is bounded (:data:`_GRANT_HISTORY`, evicting oldest)
        -- deep enough that a duplicate echo, which trails its original
        by at most one round-trip, always finds the record.
        """
        seen = self._seen_grants
        if grant_id in seen:
            return False
        seen[grant_id] = True
        while len(seen) > self._GRANT_HISTORY:
            seen.popitem(last=False)
        return True

    def _check_grant_source(self, message: "PowerGrant") -> None:
        """Invariant probe: grant accepted from a confirmed-dead peer?

        Called *after* :meth:`_ingest` so the direct liveness evidence the
        grant itself carries has already been applied -- a peer the view
        still holds DEAD at that point is a genuine protocol violation,
        not a stale reading about to refresh.
        """
        hook = self.dead_grant_hook
        if hook is None or self._membership is None:
            return
        donor = message.src.node
        if self._membership.view.status_of(donor) == MEMBER_DEAD:
            hook(self.node_id, donor, self.engine.now)

    # -- membership plumbing ------------------------------------------------------

    def _stamp(self, message: "Message") -> "Message":
        """Piggyback pending membership gossip onto an outgoing message."""
        if self._membership is not None:
            return self._membership.stamp(message)
        return message

    def _ingest(self, message: "Message") -> None:
        """Feed an incoming message (liveness + gossip) to the detector."""
        if self._membership is not None:
            self._membership.ingest(message)
