"""Node power-domain description (safe ranges, idle floor, sockets)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PowerDomainSpec:
    """The capping-relevant electrical properties of one node.

    The paper's testbed nodes are dual-socket Intel Skylake Xeon Gold 6126
    machines; caps in the evaluation are quoted per socket (60-100 W) with
    two sockets per node, and all management happens at node level.  This
    spec aggregates the sockets into a node-level domain while keeping the
    socket count for per-socket reporting.

    Attributes
    ----------
    sockets:
        Number of CPU sockets.
    min_cap_w_per_socket / max_cap_w_per_socket:
        Safe powercap window per socket.  Caps outside this window would
        risk damage (above) or livelock the machine (below), §2.1.
    idle_w_per_socket:
        Power drawn per socket with no load; consumption cannot be capped
        below this floor.
    """

    sockets: int = 2
    min_cap_w_per_socket: float = 30.0
    max_cap_w_per_socket: float = 125.0
    idle_w_per_socket: float = 15.0

    def __post_init__(self) -> None:
        if self.sockets <= 0:
            raise ValueError("sockets must be positive")
        if not (0 <= self.idle_w_per_socket <= self.min_cap_w_per_socket):
            raise ValueError(
                "need 0 <= idle <= min cap: "
                f"idle={self.idle_w_per_socket}, min={self.min_cap_w_per_socket}"
            )
        if self.min_cap_w_per_socket > self.max_cap_w_per_socket:
            raise ValueError("min cap exceeds max cap")

    # -- node-level aggregates ------------------------------------------

    @property
    def min_cap_w(self) -> float:
        """Lowest safe node-level cap."""
        return self.min_cap_w_per_socket * self.sockets

    @property
    def max_cap_w(self) -> float:
        """Highest safe node-level cap."""
        return self.max_cap_w_per_socket * self.sockets

    @property
    def idle_w(self) -> float:
        """Node-level idle power floor."""
        return self.idle_w_per_socket * self.sockets

    def clamp_cap(self, cap_w: float) -> float:
        """Clamp a requested node-level cap into the safe window."""
        # min(max(cap_w, min_cap_w), max_cap_w) with the two properties
        # and builtins inlined: every cap write clamps, twice per node at
        # build.  The comparisons are the ones min/max make, so ties and
        # NaN come out the same.
        sockets = self.sockets
        low = self.min_cap_w_per_socket * sockets
        if low > cap_w:
            cap_w = low
        high = self.max_cap_w_per_socket * sockets
        if high < cap_w:
            return high
        return cap_w

    def is_safe_cap(self, cap_w: float, tolerance: float = 1e-9) -> bool:
        """Whether ``cap_w`` lies within the safe node-level window."""
        return self.min_cap_w - tolerance <= cap_w <= self.max_cap_w + tolerance


#: The paper's testbed node: dual-socket Skylake Xeon Gold 6126.
SKYLAKE_6126_NODE = PowerDomainSpec(
    sockets=2,
    min_cap_w_per_socket=30.0,
    max_cap_w_per_socket=125.0,
    idle_w_per_socket=15.0,
)
