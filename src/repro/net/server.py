"""Serial request-service loop shared by SLURM's server and Penelope pools.

The paper measures SLURM's central server taking 80-100 microseconds to
process one request, strictly serially; queueing behind that single service
point is what produces the turnaround-time growth in Figs. 7/8 and the
packet drops behind Fig. 5.  Penelope's power pools are the same kind of
server -- one per node -- with a smaller handler cost, which is why their
load stays bounded (§1, benefit 2).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.net.messages import Addr, Message
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.events import PRIORITY_URGENT
from repro.sim.resources import Store

#: A handler consumes a request and returns zero or more reply messages.
Handler = Callable[[Message], Tuple[Message, ...]]


class RequestServer:
    """A node-resident server that processes inbox messages one at a time.

    Parameters
    ----------
    engine, network:
        Simulation kernel and message fabric.
    addr:
        The endpoint this server listens on; its inbox is attached there.
    handler:
        Called once per message; returns reply messages to send.
    service_time:
        ``(min_s, max_s)`` uniform service time per request.  The SLURM
        server uses the paper's measured 80-100 microseconds; Penelope
        pools use a smaller cost since they do a single pool update.
    inbox_capacity:
        Bound on queued requests; overflow drops packets.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        addr: "Addr",
        handler: Handler,
        rng: np.random.Generator,
        service_time: Tuple[float, float] = (80e-6, 100e-6),
        inbox_capacity: float = float("inf"),
        name: Optional[str] = None,
    ) -> None:
        lo, hi = service_time
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid service_time {service_time!r}")
        self.engine = engine
        self.network = network
        self.addr = addr
        self.handler = handler
        self.name = name or f"server@{addr!s}"
        self._rng = rng
        self._service_lo = lo
        self._service_hi = hi
        self.inbox = Store(engine, capacity=inbox_capacity, name=f"{self.name}.inbox")
        network.attach(addr, self.inbox)
        #: Observability counters.
        self.requests_served = 0
        self.busy_time = 0.0
        #: The running loop's number (0 while stopped).  Each start
        #: takes a fresh one, and every entry the loop queues -- the
        #: start hop, an inbox hand-off, a service -- carries it, so
        #: entries a stopped loop left queued do nothing when they
        #: surface, even after a restart.
        self._run = 0
        self._runs = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Launch the service loop.

        Its first inbox wait runs one urgent zero-delay hop later, as a
        generator process's first step would.
        """
        if self._run:
            raise RuntimeError(f"{self.name} already running")
        # A stopped server detached its endpoint; re-attach on restart.
        if self.network.inbox_of(self.addr) is not self.inbox:
            self.network.attach(self.addr, self.inbox)
        self._runs += 1
        self._run = self._runs
        self.engine.call_later(
            0.0, self._begin, self._run, name="server.start", priority=PRIORITY_URGENT
        )

    def stop(self) -> None:
        """Kill the service loop (e.g. node failure).  Queued and future
        messages are lost, matching a crashed daemon; a request in
        service is never handled.  The endpoint is detached so a
        restarted replacement server can re-attach at the same address
        (crash-restart)."""
        run, self._run = self._run, 0
        if run:
            # Withdraw a pending wait: left registered, it would take the
            # first request delivered after a restart, for a dead loop.
            self.inbox.cancel_wait(run)
        self.inbox.drain()
        self.network.detach(self.addr)

    @property
    def is_running(self) -> bool:
        return self._run != 0

    @property
    def queue_depth(self) -> int:
        return len(self.inbox)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time spent servicing requests since ``since``."""
        elapsed = self.engine.now - since
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    # -- the loop ----------------------------------------------------------------

    def _sample_service_time(self) -> float:
        """One service time, uniform in ``[lo, hi)``.

        ``lo + (hi - lo) * u`` is how numpy's ``uniform(lo, hi)`` maps
        the same ``next_double`` draw, so values and stream position are
        ``uniform``'s at a third of its cost (every served request draws
        one).
        """
        lo = self._service_lo
        hi = self._service_hi
        if hi == lo:
            return lo
        return lo + (hi - lo) * self._rng.random()

    # The loop is a state machine on queue callbacks rather than a
    # generator process: it resumes once per message cluster-wide, and a
    # callback costs no generator frame switch.  It queues exactly what
    # the generator loop did -- the urgent start hop, a queued hand-off
    # for a request already waiting in the inbox, one entry per service
    # -- so every simulated byte is the same.

    def _begin(self, run: int) -> None:
        if run == self._run:
            self._wait()

    def _wait(self) -> None:
        """Take the next request: in place on its delivery, or queued."""
        self.inbox.wait(self._on_request, self._run)

    def _on_request(self, run: int, request: Message) -> None:
        if run != self._run:
            return  # handed over after a stop
        cost = self._sample_service_time()
        if cost > 0.0:
            self.engine.call_later(
                cost, self._served, run, request, cost, name="server.serve"
            )
        else:
            self._served(run, request, cost)

    def _served(self, run: int, request: Message, cost: float) -> None:
        if run != self._run:
            return  # the server stopped mid-service
        self.busy_time += cost
        self.requests_served += 1
        send = self.network.send
        for reply in self.handler(request):
            send(reply)
        if run == self._run:  # the handler may stop its server
            self._wait()
