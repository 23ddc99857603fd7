"""The power pool: Algorithm 2 of the paper, plus escrowed transfers.

Each node hosts a pool -- a local cache of freed power that also serves
requests from other nodes' deciders.  All mutations of the pool balance
run atomically with respect to the event loop, mirroring the paper's
"simple lock" (§3.3): the request handler and the co-located decider's
deposits/withdrawals never interleave mid-update.

Escrowed grants (fault tolerance)
---------------------------------
A grant dropped in flight used to destroy budget permanently: the pool
balance was already decremented and nothing ever refunded it.  With
escrow enabled, every positive grant is tracked until the requester's
:class:`~repro.net.messages.GrantAck` arrives; an entry still unacked at
its deadline is refunded into the pool.  The two-generals corner -- the
grant applied but its *ack* lost, so the refund duplicates power -- is
repaired when a late ack finally lands: the pool reclaims the refunded
watts from its balance, recording any shortfall as ``reclaim_debt_w``
that future deposits pay down first.

With membership enabled the escrow verdict follows the failure
detector's state machine instead of the raw timer: an escrow expiring
while its requester is *suspected* is deferred (re-armed) rather than
refunded -- the detector has not decided yet -- and a membership
*confirm* (dead) writes off every open escrow to that peer immediately.
A refutation simply returns the peer to ``alive``, after which the next
deferral expiry refunds normally and a late ack still settles or
reclaims through the usual paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.core.config import PenelopeConfig
from repro.instrumentation import MetricsRecorder
from repro.net.messages import (
    MEMBER_DEAD,
    MEMBER_SUSPECT,
    PORT_POOL,
    Addr,
    GrantAck,
    Message,
    PowerRequest,
    power_grant,
)
from repro.net.network import Network
from repro.net.server import RequestServer
from repro.sim import Engine, Handle

if TYPE_CHECKING:  # pragma: no cover - break the core <-> membership cycle
    from repro.membership.detector import FailureDetector


def clamp_transaction(pool_w: float, rate: float, lower_w: float, upper_w: float) -> float:
    """``getMaxSize`` of Algorithm 2.

    10 % of the pool, clamped into ``[LOWER_LIMIT, UPPER_LIMIT]``: "if the
    pool size is over 300 it returns 30, and if below 10 it returns 1."
    """
    size = rate * pool_w
    if size > upper_w:
        return upper_w
    if size < lower_w:
        return lower_w
    return size


#: How many settled/refunded grant ids each pool remembers for duplicate
#: and late-ack classification.  Old entries age out FIFO; an ack landing
#: after eviction is counted as unknown (diagnostics only -- the power
#: accounting is already closed for those ids).
_ESCROW_HISTORY = 512

_V = TypeVar("_V")


class PowerPool:
    """A node's local cache of excess power plus its request server.

    The pool exposes:

    * the decider-side API -- :meth:`deposit`, :meth:`withdraw_up_to`
      (local power discovery, first stop of a hungry decider), and the
      ``local_urgency`` flag set by urgent requests;
    * the network side -- a :class:`~repro.net.server.RequestServer`
      answering :class:`~repro.net.messages.PowerRequest` messages per
      Algorithm 2 and settling :class:`~repro.net.messages.GrantAck`
      receipts against the escrow ledger.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: int,
        config: PenelopeConfig,
        rng: np.random.Generator,
        recorder: Optional[MetricsRecorder] = None,
        membership: Optional["FailureDetector"] = None,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.config = config
        self.recorder = recorder or MetricsRecorder()
        self._membership = membership
        if membership is not None:
            membership.view.listeners.append(self._on_membership_transition)
        self.addr = Addr(node_id, PORT_POOL)
        self._balance_w = 0.0
        #: Set when the pool serves an urgent request; read and cleared by
        #: the co-located decider (Algorithm 1's localUrgency flag).
        self.local_urgency = False
        self.server = RequestServer(
            engine,
            network,
            self.addr,
            self._handle_request,
            rng,
            service_time=config.pool_service_time_s,
            inbox_capacity=config.pool_inbox_capacity,
            name=f"pool@{node_id}",
        )
        #: Watts granted to remote requesters (in-flight accounting is done
        #: by the manager via this counter).  Escrow refunds decrement it;
        #: reclaims and debt paydowns re-increment it, so
        #: ``granted_out - applied`` stays an exact (signed) ledger term.
        self.granted_out_w = 0.0
        self.requests_handled = 0
        self.urgent_requests_handled = 0
        #: Open escrow: grant msg_id -> (delta, requester node, refund timer).
        self._escrow: Dict[int, Tuple[float, int, Handle]] = {}
        self._escrow_w = 0.0
        #: Refunded-but-unacked grants (id -> delta): a late ack reclaims.
        self._refunded: "OrderedDict[int, float]" = OrderedDict()
        #: Settled grant ids, to tell re-sent acks from unknown ones.
        self._settled: "OrderedDict[int, bool]" = OrderedDict()
        #: Watts the pool owes back after a reclaim found the balance short
        #: (the refund was already re-granted or withdrawn); deposits pay
        #: this down before touching the balance.
        self.reclaim_debt_w = 0.0

    # -- balance (decider-side API) ----------------------------------------

    @property
    def balance_w(self) -> float:
        return self._balance_w

    @property
    def escrow_w(self) -> float:
        """Watts currently held in open escrow (subset of granted-out)."""
        return self._escrow_w

    def open_escrow(self) -> List[Tuple[int, float, int]]:
        """Open escrow entries as ``(grant_id, watts, requester)`` rows.

        Read-only snapshot for the invariant monitor: lets probes check
        that no escrow is held against a confirmed-dead requester and
        that the per-entry sum matches :attr:`escrow_w`.
        """
        return [
            (grant_id, delta, requester)
            for grant_id, (delta, requester, _) in self._escrow.items()
        ]

    def settled_grant_ids(self) -> Tuple[int, ...]:
        """Grant ids settled at-most-once (invariant-monitor snapshot)."""
        return tuple(self._settled.keys())

    def deposit(self, watts: float) -> None:
        """Add freed power to the cache.

        The caller must have lowered its cap *first* (Algorithm 1 lowers
        ``C_{t+1}`` before ``Pool += Δ``) so the system-wide budget is
        never transiently exceeded.  Outstanding reclaim debt is paid
        down before the remainder lands in the balance.
        """
        if watts < 0:
            raise ValueError(f"cannot deposit negative power: {watts!r}")
        self._credit(watts)

    def _credit(self, watts: float) -> None:
        """Route incoming watts: reclaim debt first, balance second.

        Paying debt re-increments ``granted_out_w`` -- the debt exists
        because a refund duplicated watts that were also applied by the
        requester, so the paydown moves real watts back into the
        granted-out ledger term where the duplicate is parked.
        """
        if self.reclaim_debt_w > 0.0:
            pay = min(self.reclaim_debt_w, watts)
            self.reclaim_debt_w -= pay
            self.granted_out_w += pay
            watts -= pay
            self.recorder.bump("pool.debt_paydowns")
        self._balance_w += watts

    def withdraw_up_to(self, watts: float) -> float:
        """Take up to ``watts`` from the cache; returns the amount taken."""
        if watts < 0:
            raise ValueError(f"cannot withdraw negative power: {watts!r}")
        taken = min(self._balance_w, watts)
        self._balance_w -= taken
        return taken

    def forfeit_balance(self) -> float:
        """Zero the balance and return what it held (dead-node write-off).

        Called by the manager when this pool's node crashes: the cached
        watts are gone with the node, and the manager records them in its
        write-off ledger so conservation stays exact.
        """
        forfeited = self._balance_w
        self._balance_w = 0.0
        return forfeited

    def max_transaction_w(self) -> float:
        """The current non-urgent transaction cap (``getMaxSize``)."""
        if not self.config.enable_rate_limit:
            return self._balance_w
        return clamp_transaction(
            self._balance_w,
            self.config.rate,
            self.config.lower_limit_w,
            self.config.upper_limit_w,
        )

    # -- server side (Algorithm 2) ---------------------------------------------

    def _handle_request(self, message: Message) -> Tuple[Message, ...]:
        if self._membership is not None:
            # Direct liveness evidence plus any piggybacked gossip.
            self._membership.ingest(message)
        if isinstance(message, GrantAck):
            self._handle_grant_ack(message)
            return ()
        if not isinstance(message, PowerRequest):
            # Foreign message kinds are ignored (robustness, not protocol).
            self.recorder.bump("pool.unexpected_message")
            return ()
        self.requests_handled += 1
        if message.urgent:
            self.urgent_requests_handled += 1
            alpha = message.alpha
            delta = min(self._balance_w, alpha)
        else:
            delta = min(self._balance_w, self.max_transaction_w())
        self._balance_w -= delta
        self.granted_out_w += delta
        # localUrgency tracks the urgency of the *last* request served
        # (Algorithm 2's final line) -- but once set it must survive until
        # the co-located decider acts on it, or an urgent request followed
        # by any non-urgent one would be lost.
        if self.config.enable_urgency and message.urgent:
            self.local_urgency = True
        if delta > 0:
            self.recorder.transaction(
                self.engine.now,
                "grant",
                self.node_id,
                message.src.node,
                delta,
                message.urgent,
            )
        reply = power_grant(
            self.addr, message.src, delta, message.msg_id, message.urgent
        )
        if delta > 0 and self.config.enable_escrow:
            self._open_escrow(reply.msg_id, delta, message.src.node)
        if self._membership is not None:
            # replace() keeps msg_id, so the escrow entry keyed above and
            # the requester's reply_to correlation both still match.
            reply = self._membership.stamp(reply)
        return (reply,)

    # -- escrow lifecycle --------------------------------------------------------

    def _open_escrow(self, grant_id: int, delta: float, requester: int) -> None:
        timer = self.engine.call_cancellable(
            self.config.effective_escrow_timeout_s,
            self._expire_escrow,
            grant_id,
            name="pool.escrow",
        )
        self._escrow[grant_id] = (delta, requester, timer)
        self._escrow_w += delta

    def _expire_escrow(self, grant_id: int) -> None:
        """Refund an escrow whose ack never arrived (timer callback)."""
        entry = self._escrow.get(grant_id)
        if entry is None:  # pragma: no cover - settled acks cancel the timer
            return
        delta, requester, _ = entry
        if (
            self._membership is not None
            and self._membership.view.status_of(requester) == MEMBER_SUSPECT
        ):
            # Verdict pending: the detector suspects the requester but has
            # not confirmed.  Hold the watts in escrow for another round --
            # a confirm writes them off via the membership listener, a
            # refutation lets the next expiry refund normally, and a late
            # ack still settles at any point.
            timer = self.engine.call_cancellable(
                self.config.effective_escrow_timeout_s,
                self._expire_escrow,
                grant_id,
                name="pool.escrow",
            )
            self._escrow[grant_id] = (delta, requester, timer)
            self.recorder.bump("pool.escrow_deferrals")
            return
        del self._escrow[grant_id]
        self._escrow_w -= delta
        self.granted_out_w -= delta
        self._credit(delta)
        self._remember(self._refunded, grant_id, delta)
        self.recorder.bump("pool.escrow_refunds")
        self.recorder.transaction(
            time=self.engine.now,
            kind="refund",
            src=self.node_id,
            dst=requester,
            watts=delta,
        )

    def _handle_grant_ack(self, ack: GrantAck) -> None:
        grant_id = ack.reply_to
        entry = self._escrow.pop(grant_id, None)
        if entry is not None:
            delta, _, timer = entry
            self._escrow_w -= delta
            timer.cancel()
            self._remember(self._settled, grant_id, True)
            self.recorder.bump("pool.escrow_settled")
            return
        if grant_id in self._refunded:
            # The grant *was* applied; the refund duplicated its watts.
            # Claw back what the balance still holds and book the rest as
            # debt for future deposits to repay.
            delta = self._refunded.pop(grant_id)
            reclaimed = min(self._balance_w, delta)
            self._balance_w -= reclaimed
            self.granted_out_w += reclaimed
            shortfall = delta - reclaimed
            if shortfall > 0:
                self.reclaim_debt_w += shortfall
            self._remember(self._settled, grant_id, True)
            self.recorder.bump("pool.escrow_reclaims")
            if reclaimed > 0:
                self.recorder.transaction(
                    time=self.engine.now,
                    kind="reclaim",
                    src=ack.src.node,
                    dst=self.node_id,
                    watts=reclaimed,
                )
            return
        if grant_id in self._settled:
            self.recorder.bump("pool.duplicate_acks")
        else:
            self.recorder.bump("pool.unknown_acks")

    def _on_membership_transition(self, subject: int, status: str, incarnation: int) -> None:
        """Escrow hook on the local membership view (membership mode only).

        A *confirm* (dead) is the detector's definitive verdict: every
        escrow still open toward that peer is written off -- refunded into
        the pool right away instead of waiting out (possibly deferred)
        timers.  The refund goes through :meth:`_expire_escrow`, so a
        grant that was in fact applied is later reconciled by the
        late-ack reclaim path like any other refund.
        """
        if status != MEMBER_DEAD:
            return
        doomed = [
            grant_id
            for grant_id, (_, requester, _) in self._escrow.items()
            if requester == subject
        ]
        for grant_id in doomed:
            self._escrow[grant_id][2].cancel()
            self.recorder.bump("pool.escrow_confirm_writeoffs")
            self._expire_escrow(grant_id)

    @staticmethod
    def _remember(history: "OrderedDict[int, _V]", key: int, value: _V) -> None:
        history[key] = value
        while len(history) > _ESCROW_HISTORY:
            history.popitem(last=False)

    def consume_local_urgency(self) -> bool:
        """Read-and-clear the localUrgency flag (decider side)."""
        flag = self.local_urgency
        self.local_urgency = False
        return flag

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.server.start()

    def stop(self) -> None:
        """Crash/stop the pool.

        Open escrow entries are *not* refunded: the refund would land in
        a dead pool (and, if the in-flight grant is later applied, would
        duplicate watts with nobody left to reclaim them).  The deltas
        stay parked in ``granted_out_w``, where the manager's signed
        in-flight term accounts for them whichever way the grant resolves.
        """
        self.server.stop()
        for _, _, timer in self._escrow.values():
            timer.cancel()
        self._escrow.clear()
        self._escrow_w = 0.0
