"""The SLURM-style centralized power manager (§2.3.2, §4.1).

One dedicated node hosts the **central server** -- a global cache of all
excess power.  Every client node runs a local decider with the same
heuristic as Penelope's (power margin ``ε``, period ``T``) but both power
discovery and power assignment are proxied through the server:

* excess is *sent to* the server (:class:`~repro.net.messages.ExcessReport`),
* hungry nodes *request from* the server, which answers with a percentage
  of the total excess per request.

The paper's authors extend stock SLURM with a **centralized urgency**
mechanism for a fair comparison (§4.1): urgent requests (below the initial
cap) are served greedily up to ``α``; if the server cannot satisfy them it
sends :class:`~repro.net.messages.ReleaseDirective` messages that induce
non-urgent clients to fall back to their initial caps.

The server processes requests strictly serially at 80-100 microseconds
each (the paper's measurement) from a bounded inbox -- the two parameters
that produce the turnaround-time growth of Figs. 7/8 and the packet-drop
collapse of Fig. 5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.instrumentation import MetricsRecorder
from repro.managers.base import ManagerConfig, PowerManager
from repro.net.messages import (
    PORT_DECIDER,
    PORT_SERVER,
    Addr,
    ExcessReport,
    Message,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
    excess_report,
    power_grant,
    power_request,
)
from repro.net.network import Network
from repro.net.server import RequestServer
from repro.power.rapl import PowerCapInterface
from repro.sim import PRIORITY_URGENT, Engine, Handle, Store


@dataclass(frozen=True)
class SlurmConfig(ManagerConfig):
    """Centralized-manager parameters.

    The grant rate limit uses the same constants as Penelope's pools so the
    comparison isolates *architecture* (central vs peer-to-peer), not
    tuning.  ``rate_scheme`` selects the §4.5 modification: ``"fixed"`` is
    the plain percentage-of-pool rule; ``"scale-aware"`` divides the pool
    among the requesters seen in the last period, mitigating the power
    oscillation that otherwise appears at scale.
    """

    rate: float = 0.10
    lower_limit_w: float = 1.0
    upper_limit_w: float = 30.0
    rate_scheme: str = "fixed"
    server_service_time_s: Tuple[float, float] = (80e-6, 100e-6)
    server_inbox_capacity: int = 128
    client_inbox_capacity: int = 16
    enable_urgency: bool = True
    #: How long an unmet urgent need keeps triggering release directives
    #: before it is assumed stale (seconds).
    urgency_ttl_s: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"rate out of (0, 1]: {self.rate!r}")
        if self.lower_limit_w <= 0 or self.upper_limit_w < self.lower_limit_w:
            raise ValueError("bad transaction limits")
        if self.rate_scheme not in ("fixed", "scale-aware"):
            raise ValueError(f"unknown rate scheme {self.rate_scheme!r}")
        if self.server_inbox_capacity <= 0 or self.client_inbox_capacity <= 0:
            raise ValueError("inbox capacities must be positive")
        if self.urgency_ttl_s <= 0:
            raise ValueError("urgency TTL must be positive")

    def with_period(self, period_s: float) -> "SlurmConfig":
        return replace(self, period_s=period_s)


class SlurmServer:
    """The central server: global cache of excess plus urgency bookkeeping."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: int,
        config: SlurmConfig,
        rng: np.random.Generator,
        recorder: MetricsRecorder,
    ) -> None:
        self.engine = engine
        self.config = config
        self.recorder = recorder
        self.node_id = node_id
        self.addr = Addr(node_id, PORT_SERVER)
        self.pool_w = 0.0
        self.excess_received_w = 0.0
        self.granted_out_w = 0.0
        #: Unmet urgent need per node: node_id -> (deficit_w, recorded_at).
        self._urgent_deficits: Dict[int, Tuple[float, float]] = {}
        #: Request arrival times in the last period (scale-aware limiting).
        self._recent_requests: Deque[float] = deque()
        self.server = RequestServer(
            engine,
            network,
            self.addr,
            self._handle,
            rng,
            service_time=config.server_service_time_s,
            inbox_capacity=config.server_inbox_capacity,
            name=f"slurm-server@{node_id}",
        )

    # -- rate limiting ---------------------------------------------------------

    def _active_requesters(self) -> int:
        """Requests seen within the last decider period."""
        horizon = self.engine.now - self.config.period_s
        recent = self._recent_requests
        while recent and recent[0] < horizon:
            recent.popleft()
        return len(recent)

    def grant_limit_w(self) -> float:
        """How much one non-urgent request may receive right now."""
        config = self.config
        if config.rate_scheme == "scale-aware":
            share = self.pool_w / max(1, self._active_requesters())
        else:
            share = config.rate * self.pool_w
        return min(max(share, config.lower_limit_w), config.upper_limit_w)

    # -- urgency bookkeeping --------------------------------------------------------

    def _expire_stale_urgency(self) -> None:
        now = self.engine.now
        ttl = self.config.urgency_ttl_s
        stale = [
            node
            for node, (_, at) in self._urgent_deficits.items()
            if now - at > ttl
        ]
        for node in stale:
            del self._urgent_deficits[node]

    @property
    def has_unmet_urgency(self) -> bool:
        self._expire_stale_urgency()
        return bool(self._urgent_deficits)

    # -- the handler -------------------------------------------------------------------

    def _handle(self, message: Message) -> Tuple[Message, ...]:
        if isinstance(message, ExcessReport):
            self.pool_w += message.delta
            self.excess_received_w += message.delta
            return ()
        if not isinstance(message, PowerRequest):
            self.recorder.bump("slurm.server.unexpected_message")
            return ()

        requester = message.src.node
        self._recent_requests.append(self.engine.now)
        replies: List[Message] = []

        if self.config.enable_urgency and message.urgent:
            # Greedy service of urgent nodes (§4.1).
            delta = min(self.pool_w, message.alpha)
            self.pool_w -= delta
            unmet = message.alpha - delta
            if unmet > 1e-9:
                self._urgent_deficits[requester] = (unmet, self.engine.now)
            else:
                self._urgent_deficits.pop(requester, None)
        else:
            if requester in self._urgent_deficits:
                # The node recovered on its own; clear its deficit.
                del self._urgent_deficits[requester]
            if self.config.enable_urgency and self.has_unmet_urgency:
                # Reserve the pool for urgent nodes and push the requester
                # back toward its initial cap.
                delta = 0.0
                replies.append(
                    ReleaseDirective(
                        src=self.addr,
                        dst=Addr(requester, PORT_DECIDER),
                        on_behalf_of=next(iter(self._urgent_deficits)),
                    )
                )
                self.recorder.bump("slurm.server.release_directives")
            else:
                delta = min(self.pool_w, self.grant_limit_w())
                self.pool_w -= delta

        self.granted_out_w += delta
        if delta > 0:
            self.recorder.transaction(
                self.engine.now, "grant", self.node_id, requester, delta, message.urgent
            )
        replies.insert(
            0,
            power_grant(self.addr, message.src, delta, message.msg_id, message.urgent),
        )
        return tuple(replies)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        self.server.start()

    def stop(self) -> None:
        self.server.stop()

    @property
    def is_running(self) -> bool:
        return self.server.is_running


class SlurmClient:
    """The per-node decider reporting to the central server."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: int,
        rapl: PowerCapInterface,
        server_addr: Addr,
        initial_cap_w: float,
        config: SlurmConfig,
        rng: np.random.Generator,
        recorder: MetricsRecorder,
    ) -> None:
        self.engine = engine
        self.network = network
        self.node_id = node_id
        self.rapl = rapl
        self.server_addr = server_addr
        self.initial_cap_w = initial_cap_w
        self.config = config
        self.recorder = recorder
        self._rng = rng
        self.addr = Addr(node_id, PORT_DECIDER)
        self.inbox = Store(
            engine,
            capacity=config.client_inbox_capacity,
            name=f"slurm-client@{node_id}.inbox",
        )
        network.attach(self.addr, self.inbox)
        self.cap_w = rapl.cap_w
        self.excess_reported_w = 0.0
        self.applied_grants_w = 0.0
        self.iterations = 0
        self._release_pending = False
        #: The running loop's number (0 while stopped); queued ticks of a
        #: stopped loop carry an old one and do nothing.
        self._run = 0
        self._runs = 0
        #: When the next fixed-cadence tick is due.
        self._next_tick = 0.0
        #: The request awaiting the server's answer (the token of its
        #: inbox waits), with its send time, deadline and reply slot: the
        #: message handed over for the request's wait and not yet taken
        #: (``None`` while the wait is registered).
        self._request: Optional[PowerRequest] = None
        self._sent_at = 0.0
        self._deadline: Optional[Handle] = None
        self._reply: Optional[Message] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the control loop one urgent zero-delay hop from now."""
        if self._run:
            raise RuntimeError(f"client {self.node_id} already running")
        self._runs += 1
        self._run = self._runs
        self.engine.call_later(
            0.0,
            self._begin,
            self._run,
            name="slurm.client.start",
            priority=PRIORITY_URGENT,
        )

    def stop(self) -> None:
        """Halt the loop, abandoning a request in flight."""
        self._run = 0
        request = self._request
        if request is None:
            return
        self._request = self._reply = None
        deadline, self._deadline = self._deadline, None
        assert deadline is not None
        # Withdraw the wait, or a restart's first message would be
        # handed to this dead wait and lost; the client is the
        # deadline's only owner, so an armed one is cancelled rather
        # than left to fire as a no-op later.
        self.inbox.cancel_wait(request)
        deadline.cancel()

    @property
    def is_running(self) -> bool:
        return self._run != 0

    # -- cap manipulation -----------------------------------------------------------

    def _set_cap(self, new_cap_w: float) -> None:
        self.cap_w = new_cap_w
        self.rapl.set_cap(new_cap_w)
        self.recorder.cap(self.engine.now, self.node_id, new_cap_w)

    def _report_excess(self, delta_w: float, kind: str) -> None:
        """Lower the cap by ``delta_w`` and mail it to the server."""
        self._set_cap(self.cap_w - delta_w)
        self.excess_reported_w += delta_w
        self.network.send(excess_report(self.addr, self.server_addr, delta_w))
        self.recorder.transaction(
            self.engine.now, kind, self.node_id, self.server_addr.node, delta_w
        )

    def _apply_grant(self, delta_w: float) -> None:
        """Raise the cap, returning anything over the safe max to the server.

        The leftover is mailed back *without* touching the cap -- it was
        never added to it -- unlike :meth:`_report_excess`, which lowers
        the cap by what it sends.
        """
        self.applied_grants_w += delta_w
        max_cap = self.rapl.spec.max_cap_w
        usable = min(delta_w, max(0.0, max_cap - self.cap_w))
        if usable > 0:
            self._set_cap(self.cap_w + usable)
        leftover = delta_w - usable
        if leftover > 0:
            self.excess_reported_w += leftover
            self.network.send(excess_report(self.addr, self.server_addr, leftover))
            self.recorder.transaction(
                self.engine.now, "release", self.node_id, self.server_addr.node, leftover
            )
            self.recorder.bump("slurm.client.grant_overflow_returned")

    # -- the control loop ----------------------------------------------------------

    # The loop is a state machine on queued calls rather than a
    # generator process: every SLURM request passes through it.  It
    # queues bare entries for the urgent start hop, the stagger, each
    # tick and the wake-up a fired deadline queues at a fresh sequence
    # number, and a cancellable handle for the request's deadline; it
    # takes replies in place on delivery.

    def _begin(self, run: int) -> None:
        if run != self._run:
            return
        stagger = self.config.effective_stagger_s
        if stagger > 0:
            self.engine.call_later(
                float(self._rng.uniform(0.0, stagger)),
                self._staggered,
                run,
                name="slurm.client.stagger",
            )
        else:
            self._staggered(run)

    def _staggered(self, run: int) -> None:
        if run == self._run:
            self._next_tick = self.engine.now
            self._schedule_tick()

    def _schedule_tick(self) -> None:
        """Queue the next tick, or run it now if it is already due.

        Fixed-cadence ticks, like Penelope's decider: iteration k fires
        at start + k*T even if the previous response wait ran long --
        which is what keeps a large cluster's request bursts aligned
        and the central server queueing (§4.5).
        """
        engine = self.engine
        period = self.config.period_s
        while True:
            self._next_tick += period
            now = engine.now
            if self._next_tick > now:
                engine.call_later(
                    self._next_tick - now,
                    self._on_tick,
                    self._run,
                    name="slurm.client.tick",
                )
                return
            if self._iterate():
                return

    def _on_tick(self, run: int) -> None:
        if run == self._run and not self._iterate():
            self._schedule_tick()

    def _iterate(self) -> bool:
        """One decider iteration; True if it left a request awaiting the
        server (whose outcome then continues the loop)."""
        config = self.config
        self.iterations += 1
        self._drain_inbox()

        urgent_now = config.enable_urgency and self.cap_w < self.initial_cap_w
        if self._release_pending:
            self._release_pending = False
            if not urgent_now and self.cap_w > self.initial_cap_w:
                self._report_excess(
                    self.cap_w - self.initial_cap_w, kind="induced-release"
                )

        power_w = self.rapl.read_power()
        cap_w = self.cap_w
        if power_w < cap_w - config.epsilon_w:
            delta = cap_w - power_w
            delta = min(delta, cap_w - self.rapl.spec.min_cap_w)
            if delta > 0:
                self._report_excess(delta, kind="release")
        elif self.rapl.spec.max_cap_w - cap_w > 0:
            self._request_power(urgent_now)
            return True
        return False

    def _request_power(self, urgent: bool) -> None:
        alpha = max(0.0, self.initial_cap_w - self.cap_w) if urgent else 0.0
        request = power_request(
            self.addr, self.server_addr, urgent, alpha, self.iterations
        )
        engine = self.engine
        self._sent_at = engine.now
        self.network.send(request)
        self._request = request
        self._deadline = engine.call_cancellable(
            self.config.timeout_s, self._on_deadline, name="slurm.client.deadline"
        )
        self._await_reply()

    def _await_reply(self) -> None:
        self._reply = self.inbox.wait(self._on_reply, self._request)

    def _on_reply(self, request: PowerRequest, message: Message) -> None:
        """A message for the waiting request: its grant ends the wait."""
        if request is not self._request:
            return  # handed over after the request ended
        deadline = self._deadline
        assert deadline is not None
        if not deadline.pending:
            self._reply = message  # the deadline fired: its wake-up takes it
            return
        if isinstance(message, PowerGrant) and message.reply_to == request.msg_id:
            # A grant that beats the deadline leaves it armed: disarm it.
            deadline.cancel()
            self._end_request(message.delta, timed_out=False)
        else:
            self._handle_async(message)
            self._await_reply()

    def _on_deadline(self) -> None:
        # Wake one fresh-sequence step later: a reply delivered in
        # between still counts as the grant.
        self.engine.call_later(0.0, self._on_wake, self._request, name="slurm.client.wake")

    def _on_wake(self, request: PowerRequest) -> None:
        if request is not self._request:
            return  # stopped since the deadline fired
        message = self._reply
        if message is not None:
            # Handed over since the deadline fired, or queued and not
            # surfaced yet (it surfaces as a no-op).
            if isinstance(message, PowerGrant) and message.reply_to == request.msg_id:
                self._end_request(message.delta, timed_out=False)
                return
            # Any other message is handled; the request has timed out.
            self._handle_async(message)
        else:
            self.inbox.cancel_wait(request)
        self.recorder.bump("slurm.client.request_timeouts")
        self._end_request(0.0, timed_out=True)

    def _end_request(self, granted: float, timed_out: bool) -> None:
        """Record the request's turnaround, apply its grant, go on ticking."""
        engine = self.engine
        self._request = self._reply = self._deadline = None
        self.recorder.turnaround(
            engine.now, self.node_id, engine.now - self._sent_at, granted, timed_out
        )
        self._on_request_outcome(timed_out)
        if granted > 0:
            self._apply_grant(granted)
        self._schedule_tick()

    def _on_request_outcome(self, timed_out: bool) -> None:
        """Hook for subclasses (e.g. failover logic in the HA variant)."""

    # -- asynchronous messages -------------------------------------------------------

    def _drain_inbox(self) -> None:
        while len(self.inbox) > 0:
            self._handle_async(self.inbox.get_nowait())

    def _handle_async(self, message: Any) -> None:
        if isinstance(message, ReleaseDirective):
            self._release_pending = True
        elif isinstance(message, PowerGrant):
            # A grant whose request already timed out: apply it anyway, the
            # power is ours (the server decremented its pool).
            if message.delta > 0:
                self._apply_grant(message.delta)
                self.recorder.bump("slurm.client.stale_grants_applied")
        else:
            self.recorder.bump("slurm.client.unexpected_messages")


class SlurmManager(PowerManager):
    """Centralized manager: one server node plus per-client deciders.

    ``install`` requires the cluster to have one more node than there are
    clients; by convention the highest non-client node id hosts the server
    (the paper withholds 1 of its 21 nodes for exactly this).
    """

    name = "slurm"

    def __init__(
        self,
        config: Optional[SlurmConfig] = None,
        recorder: Optional[MetricsRecorder] = None,
        server_node_id: Optional[int] = None,
    ) -> None:
        super().__init__(config=config or SlurmConfig(), recorder=recorder)
        self.config: SlurmConfig
        self._requested_server_node = server_node_id
        self.server: Optional[SlurmServer] = None
        self.clients: Dict[int, SlurmClient] = {}

    @property
    def server_node_id(self) -> int:
        if self.server is None:
            raise RuntimeError("manager not installed")
        return self.server.node_id

    def _pick_server_node(self) -> int:
        assert self.cluster is not None
        if self._requested_server_node is not None:
            if self._requested_server_node in self.client_ids:
                raise ValueError("server node cannot also be a client")
            return self._requested_server_node
        candidates = [
            node_id
            for node_id in self.cluster.node_ids
            if node_id not in self.client_ids
        ]
        if not candidates:
            raise ValueError(
                "SLURM needs a dedicated server node: add one node beyond the clients"
            )
        return candidates[-1]

    # -- agent wiring -----------------------------------------------------------

    def _install_agents(self) -> None:
        assert self.cluster is not None
        cluster = self.cluster
        server_node = self._pick_server_node()
        cluster.rngs.prepare(
            ["slurm.server", *(f"slurm.client.{node_id}" for node_id in self.client_ids)]
        )
        self.server = SlurmServer(
            cluster.engine,
            cluster.network,
            server_node,
            self.config,
            cluster.rngs.stream("slurm.server"),
            self.recorder,
        )
        cluster.node(server_node).on_kill.append(self.server.stop)
        for node_id in self.client_ids:
            node = cluster.node(node_id)
            client = SlurmClient(
                cluster.engine,
                cluster.network,
                node_id,
                node.rapl,
                self.server.addr,
                self.initial_caps[node_id],
                self.config,
                cluster.rngs.stream(f"slurm.client.{node_id}"),
                self.recorder,
            )
            self.clients[node_id] = client
            node.on_kill.append(client.stop)

    def _start_agents(self) -> None:
        assert self.server is not None
        self.server.start()
        for client in self.clients.values():
            client.start()

    def _stop_agents(self) -> None:
        for client in self.clients.values():
            client.stop()
        if self.server is not None:
            self.server.stop()

    # -- accounting ------------------------------------------------------------------

    def pooled_power_w(self) -> float:
        return self.server.pool_w if self.server is not None else 0.0

    def in_flight_power_w(self) -> float:
        """Power in unapplied grants plus unreceived excess reports.

        Messages dropped in flight stay here forever: with a dead server
        every later excess report is lost power, which is precisely the
        §4.4 failure mode.
        """
        if self.server is None:
            return 0.0
        granted = self.server.granted_out_w
        applied = sum(c.applied_grants_w for c in self.clients.values())
        reported = sum(c.excess_reported_w for c in self.clients.values())
        received = self.server.excess_received_w
        return max(0.0, granted - applied) + max(0.0, reported - received)
