"""SLURM with a standby fallback server -- the paper's noted mitigation.

§4.4: "While centralized systems can use fallback servers to improve
their fault-tolerance, our goal is to evaluate a peer-to-peer design in
contrast to a centralized design ... We leave a comprehensive study of
fault tolerance in centralized systems for future work."

This module implements that future-work point so the comparison can be
made: a **primary** and a **standby** central server, each on its own
dedicated node.  Clients talk to the primary; after
``failover_after_timeouts`` consecutive unanswered requests a client
fails over to the standby (and its excess reports follow it).

Two structural costs remain even with the fallback, and the ``ext.ha.*``
rows of ``repro claims`` measure both:

* the **failover gap** -- no power shifts while clients are timing out,
* **pool loss** -- excess cached on the dead primary is gone; the standby
  starts empty, and nodes left below their initial caps must recover
  through the urgency mechanism.

And of course the design now *withholds two nodes* from the computation
instead of one (§1, benefit 3 of the peer-to-peer design).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.instrumentation import MetricsRecorder
from repro.managers.slurm import (
    SlurmClient,
    SlurmConfig,
    SlurmManager,
    SlurmServer,
)
from repro.net.messages import Addr


@dataclass(frozen=True)
class HaSlurmConfig(SlurmConfig):
    """HA parameters on top of the centralized manager's."""

    #: Consecutive request timeouts before a client fails over.
    failover_after_timeouts: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.failover_after_timeouts < 1:
            raise ValueError("failover threshold must be at least 1")


class HaSlurmClient(SlurmClient):
    """A client that fails over to the standby after repeated timeouts."""

    def __init__(
        self, *args: Any, server_addrs: Sequence[Addr], **kwargs: Any
    ) -> None:
        if len(server_addrs) < 2:
            raise ValueError("HA client needs a primary and a standby address")
        super().__init__(*args, server_addr=server_addrs[0], **kwargs)
        self._server_addrs = list(server_addrs)
        self._active_server = 0
        self._consecutive_timeouts = 0
        self.failovers = 0

    def _on_request_outcome(self, timed_out: bool) -> None:
        config: HaSlurmConfig = self.config  # type: ignore[assignment]
        if not timed_out:
            self._consecutive_timeouts = 0
            return
        self._consecutive_timeouts += 1
        if (
            self._consecutive_timeouts >= config.failover_after_timeouts
            and self._active_server + 1 < len(self._server_addrs)
        ):
            self._active_server += 1
            self.server_addr = self._server_addrs[self._active_server]
            self._consecutive_timeouts = 0
            self.failovers += 1
            self.recorder.bump("slurm-ha.client.failovers")


class HaSlurmManager(SlurmManager):
    """Centralized manager with one standby server (two withheld nodes)."""

    name = "slurm-ha"

    def __init__(
        self,
        config: Optional[HaSlurmConfig] = None,
        recorder: Optional[MetricsRecorder] = None,
        server_node_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(config=config or HaSlurmConfig(), recorder=recorder)
        self.config: HaSlurmConfig
        self._requested_server_nodes = (
            list(server_node_ids) if server_node_ids is not None else None
        )
        self.servers: List[SlurmServer] = []

    # -- wiring ------------------------------------------------------------

    @property
    def primary(self) -> SlurmServer:
        if not self.servers:
            raise RuntimeError("manager not installed")
        return self.servers[0]

    @property
    def standby(self) -> SlurmServer:
        if len(self.servers) < 2:
            raise RuntimeError("manager not installed")
        return self.servers[1]

    def _pick_server_nodes(self) -> List[int]:
        assert self.cluster is not None
        if self._requested_server_nodes is not None:
            ids = self._requested_server_nodes
            if len(ids) != 2:
                raise ValueError("HA needs exactly two server nodes")
            if any(node_id in self.client_ids for node_id in ids):
                raise ValueError("server nodes cannot also be clients")
            return list(ids)
        spare = [
            node_id
            for node_id in self.cluster.node_ids
            if node_id not in self.client_ids
        ]
        if len(spare) < 2:
            raise ValueError(
                "HA SLURM withholds two nodes: add two beyond the clients"
            )
        return spare[-2:]

    def _install_agents(self) -> None:
        assert self.cluster is not None
        cluster = self.cluster
        primary_node, standby_node = self._pick_server_nodes()
        for index, node_id in enumerate((primary_node, standby_node)):
            server = SlurmServer(
                cluster.engine,
                cluster.network,
                node_id,
                self.config,
                cluster.rngs.stream(f"slurm-ha.server.{index}"),
                self.recorder,
            )
            cluster.node(node_id).on_kill.append(server.stop)
            self.servers.append(server)
        self.server = self.servers[0]  # base-class accounting hooks
        addrs = [server.addr for server in self.servers]
        for node_id in self.client_ids:
            node = cluster.node(node_id)
            client = HaSlurmClient(
                cluster.engine,
                cluster.network,
                node_id,
                node.rapl,
                server_addrs=addrs,
                initial_cap_w=self.initial_caps[node_id],
                config=self.config,
                rng=cluster.rngs.stream(f"slurm.client.{node_id}"),
                recorder=self.recorder,
            )
            self.clients[node_id] = client
            node.on_kill.append(client.stop)

    def _start_agents(self) -> None:
        for server in self.servers:
            server.start()
        for client in self.clients.values():
            client.start()

    def _stop_agents(self) -> None:
        for client in self.clients.values():
            client.stop()
        for server in self.servers:
            server.stop()

    # -- accounting ----------------------------------------------------------

    def pooled_power_w(self) -> float:
        return sum(server.pool_w for server in self.servers)

    def in_flight_power_w(self) -> float:
        if not self.servers:
            return 0.0
        granted = sum(server.granted_out_w for server in self.servers)
        applied = sum(c.applied_grants_w for c in self.clients.values())
        reported = sum(c.excess_reported_w for c in self.clients.values())
        received = sum(server.excess_received_w for server in self.servers)
        return max(0.0, granted - applied) + max(0.0, reported - received)

    # -- diagnostics -----------------------------------------------------------

    def failover_counts(self) -> Dict[int, int]:
        return {
            node_id: client.failovers  # type: ignore[union-attr]
            for node_id, client in self.clients.items()
        }
