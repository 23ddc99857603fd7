"""Phase-structured workload description."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.power.domain import PowerDomainSpec


@dataclass(frozen=True, slots=True)
class Phase:
    """One execution phase of an application.

    Slotted: a 10 000-node universe holds ~95 000 phases, and an instance
    ``__dict__`` would add ~100 bytes to each.

    Attributes
    ----------
    name:
        Label ("compute", "transpose", "io", ...), for diagnostics.
    work_s:
        Amount of work expressed as seconds of execution at full speed
        (i.e. with no power throttling).
    demand_w_per_socket:
        Power the phase draws per socket when unthrottled.
    beta:
        Concavity of the speed-vs-power response in this phase, see
        :func:`repro.workloads.performance.speed_under_cap`.  Memory- and
        I/O-bound phases have small beta (insensitive to capping);
        compute-bound phases approach 1 (speed ~ available power).
    imbalance:
        NUMA imbalance in [0, 1): how unevenly the phase's demand spreads
        across sockets (0 = balanced, the default).  See
        :func:`repro.power.sockets.socket_demands_w`.
    """

    name: str
    work_s: float
    demand_w_per_socket: float
    beta: float = 0.7
    imbalance: float = 0.0

    def __post_init__(self) -> None:
        if self.work_s <= 0:
            raise ValueError(f"phase work must be positive, got {self.work_s!r}")
        if self.demand_w_per_socket <= 0:
            raise ValueError("phase demand must be positive")
        if not (0.0 < self.beta <= 2.0):
            raise ValueError(f"beta out of range (0, 2]: {self.beta!r}")
        if not (0.0 <= self.imbalance < 1.0):
            raise ValueError(f"imbalance out of [0, 1): {self.imbalance!r}")

    def demand_w(self, spec: PowerDomainSpec) -> float:
        """Node-level unthrottled demand, clipped into physical limits."""
        raw = self.demand_w_per_socket * spec.sockets
        return min(max(raw, spec.idle_w), spec.max_cap_w)


@dataclass(frozen=True)
class Workload:
    """A full application run: an ordered sequence of phases."""

    app: str
    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a workload needs at least one phase")

    @property
    def total_work_s(self) -> float:
        """Full-speed runtime of the workload in seconds."""
        return sum(phase.work_s for phase in self.phases)

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def peak_demand_w(self, spec: PowerDomainSpec) -> float:
        """Highest node-level demand over all phases."""
        return max(phase.demand_w(spec) for phase in self.phases)

    def mean_demand_w(self, spec: PowerDomainSpec) -> float:
        """Work-weighted mean node-level demand."""
        total = self.total_work_s
        return sum(p.demand_w(spec) * p.work_s for p in self.phases) / total

    def iter_timeline(self) -> Iterator[Tuple[float, Phase]]:
        """Yield ``(start_time_at_full_speed, phase)`` pairs."""
        t = 0.0
        for phase in self.phases:
            yield t, phase
            t += phase.work_s

    def phase_at_full_speed_time(self, t: float) -> Phase:
        """The phase active at full-speed time ``t`` (clamped to the end)."""
        if t < 0:
            raise ValueError(f"negative time {t!r}")
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.work_s
            if t < elapsed:
                return phase
        return self.phases[-1]


def concatenate(app: str, parts: Sequence[Workload]) -> Workload:
    """Run several workloads back to back as one (multi-job node)."""
    if not parts:
        raise ValueError("nothing to concatenate")
    phases: Tuple[Phase, ...] = tuple(
        phase for workload in parts for phase in workload.phases
    )
    return Workload(app=app, phases=phases)
