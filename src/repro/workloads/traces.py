"""Recorded power profiles and their playback.

§4.5 of the paper: at simulated scale the "local deciders no longer
interact with hardware, and instead use curated profiles of power
consumption over time for each application"; profiles are windowed "around
when one application completes, allowing us to observe how our systems
behave when a large amount of power enters the system".

:class:`PowerTrace` is such a profile -- a step function of node-level
power demand over time.  :func:`trace_from_workload` records one by
evaluating an app model at full power, and :func:`step_release_trace`
builds the canonical release-event window used by the scaling study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.power.domain import PowerDomainSpec
from repro.workloads.phases import Workload


@dataclass(frozen=True)
class PowerTrace:
    """A step function of node-level power demand.

    ``times[i]`` is the start of segment ``i`` which demands ``watts[i]``
    until ``times[i+1]`` (the last segment extends forever).  ``times``
    must start at 0 and be strictly increasing.
    """

    times: np.ndarray
    watts: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        watts = np.asarray(self.watts, dtype=float)
        if times.ndim != 1 or watts.ndim != 1 or times.shape != watts.shape:
            raise ValueError("times and watts must be equal-length 1-D arrays")
        if times.size == 0:
            raise ValueError("empty trace")
        if times[0] != 0.0:
            raise ValueError("trace must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(watts < 0):
            raise ValueError("negative power in trace")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "watts", watts)

    @property
    def duration_s(self) -> float:
        """Time of the final breakpoint (the last level persists beyond it)."""
        return float(self.times[-1])

    def demand_at(self, t: float) -> float:
        """Node-level demand at time ``t`` (clamped into the trace)."""
        if t < 0:
            raise ValueError(f"negative time {t!r}")
        index = int(np.searchsorted(self.times, t, side="right") - 1)
        return float(self.watts[index])

    def next_change_after(self, t: float) -> float:
        """Time of the next demand change strictly after ``t`` (inf if none)."""
        index = int(np.searchsorted(self.times, t, side="right"))
        if index >= self.times.size:
            return float("inf")
        return float(self.times[index])

    def shifted(self, offset_s: float) -> "PowerTrace":
        """The same trace delayed by ``offset_s`` (front-filled)."""
        if offset_s < 0:
            raise ValueError("offset must be non-negative")
        if offset_s == 0:
            return self
        times = np.concatenate(([0.0], self.times + offset_s))
        watts = np.concatenate(([self.watts[0]], self.watts))
        return PowerTrace(times=times, watts=watts)

    def window(self, start_s: float, duration_s: float) -> "PowerTrace":
        """A sub-trace covering ``[start_s, start_s + duration_s)``, re-based
        to t=0 (the paper's 'shorter continuous set of power readings')."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        end_s = start_s + duration_s
        inside = (self.times > start_s) & (self.times < end_s)
        times = np.concatenate(([start_s], self.times[inside])) - start_s
        first = self.demand_at(start_s)
        watts = np.concatenate(([first], self.watts[inside]))
        return PowerTrace(times=times, watts=watts)

    def mean_power_w(self, duration_s: float) -> float:
        """Time-average demand over ``[0, duration_s]``."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        breakpoints = np.concatenate(
            (self.times[self.times < duration_s], [duration_s])
        )
        levels = self.watts[: breakpoints.size - 1]
        segments = np.diff(breakpoints)
        return float(np.dot(levels, segments) / duration_s)


def trace_from_workload(workload: Workload, spec: PowerDomainSpec) -> PowerTrace:
    """Record ``workload``'s node-level demand profile at full power.

    At full power each phase lasts exactly its ``work_s``, so the profile
    is available in closed form -- this mirrors the paper's offline
    recording of per-application power profiles.
    """
    starts = []
    levels = []
    for start, phase in workload.iter_timeline():
        starts.append(start)
        levels.append(phase.demand_w(spec))
    # Terminal idle segment: "finished" is part of the trace, so playback
    # naturally produces the paper's power-release event.
    starts.append(workload.total_work_s)
    levels.append(spec.idle_w)
    return PowerTrace(times=np.array(starts), watts=np.array(levels))


def step_release_trace(
    busy_w: float,
    finish_at_s: float,
    idle_w: float,
    total_s: float | None = None,
) -> PowerTrace:
    """The canonical scaling-study profile: busy, then idle after finish.

    Models a node whose application completes at ``finish_at_s``, releasing
    ``busy_w - idle_w`` watts into the system.
    """
    if finish_at_s <= 0:
        raise ValueError("finish time must be positive")
    if busy_w < idle_w:
        raise ValueError("busy power below idle power")
    del total_s  # the final level persists; kept for call-site clarity
    return PowerTrace(
        times=np.array([0.0, finish_at_s]),
        watts=np.array([busy_w, idle_w]),
    )


def constant_trace(watts: float) -> PowerTrace:
    """A flat demand profile (power-hungry node in the scaling study)."""
    return PowerTrace(times=np.array([0.0]), watts=np.array([float(watts)]))


Pair = Tuple[PowerTrace, PowerTrace]
