"""Trace-backed power source for the large-scale simulations (§4.5).

At simulated scale the paper's deciders "no longer interact with hardware,
and instead use curated profiles of power consumption over time".
:class:`TracePowerSource` is the drop-in
:class:`~repro.power.rapl.PowerCapInterface` for that mode: the node's
*demand* comes from a recorded :class:`~repro.workloads.traces.PowerTrace`
and the *consumption* is ``min(demand(t), cap)`` integrated exactly over
the read window.  Cap enforcement is immediate -- profile playback has no
RAPL convergence to model, matching the paper's simulation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Tuple

from repro.power.domain import PowerDomainSpec
from repro.power.rapl import PowerCapInterface
from repro.sim.engine import Engine
from repro.workloads.traces import PowerTrace


class TracePowerSource(PowerCapInterface):
    """Plays back a power-demand profile under the current cap."""

    def __init__(
        self,
        engine: Engine,
        spec: PowerDomainSpec,
        trace: PowerTrace,
        initial_cap_w: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.trace = trace
        # The trace's breakpoints and levels as Python floats: one
        # ``bisect_right`` per segment beats two scalar ``np.searchsorted``
        # calls, and finds the same index.
        self._times = trace.times.tolist()
        self._watts = trace.watts.tolist()
        self._cap_w = spec.clamp_cap(
            initial_cap_w if initial_cap_w is not None else spec.max_cap_w
        )
        # Exact integration state: consumption is piecewise constant with
        # breakpoints at trace changes and cap writes.
        self._acc_time = engine.now
        self._acc_energy_j = 0.0
        self._last_read_time = engine.now
        self._last_read_energy = 0.0
        self.cap_writes = 0
        self.power_reads = 0

    # -- integration ------------------------------------------------------

    def _consumption_at(self, demand_w: float) -> float:
        return max(self.spec.idle_w, min(demand_w, self._cap_w))

    def _segment(self, t: float) -> Tuple[float, float]:
        """The demand at ``t >= 0`` and the time of its next change (inf if
        none): :meth:`PowerTrace.demand_at` and
        :meth:`PowerTrace.next_change_after`, from one lookup."""
        index = bisect_right(self._times, t)
        end = self._times[index] if index < len(self._times) else float("inf")
        return self._watts[index - 1], end

    def _advance(self, to_time: float) -> None:
        """Integrate consumption from the accumulator time to ``to_time``."""
        t = self._acc_time
        if to_time < t:  # pragma: no cover - engine time is monotone
            raise RuntimeError("clock went backwards")
        while t < to_time:
            level, next_change = self._segment(t)
            segment_end = min(next_change, to_time)
            self._acc_energy_j += self._consumption_at(level) * (segment_end - t)
            t = segment_end
        self._acc_time = to_time

    # -- PowerCapInterface -------------------------------------------------

    @property
    def cap_w(self) -> float:
        return self._cap_w

    @property
    def effective_cap_w(self) -> float:
        """Playback enforces immediately; effective == requested."""
        return self._cap_w

    def set_cap(self, cap_w: float) -> float:
        self._advance(self.engine.now)
        self._cap_w = self.spec.clamp_cap(cap_w)
        self.cap_writes += 1
        return self._cap_w

    def read_power(self) -> float:
        self.power_reads += 1
        now = self.engine.now
        self._advance(now)
        window = now - self._last_read_time
        if window <= 0:
            average = self._consumption_at(self.trace.demand_at(now))
        else:
            average = (self._acc_energy_j - self._last_read_energy) / window
        self._last_read_time = now
        self._last_read_energy = self._acc_energy_j
        return max(average, 0.0)

    # -- introspection --------------------------------------------------------

    @property
    def demand_now_w(self) -> float:
        return self.trace.demand_at(self.engine.now)

    @property
    def instantaneous_power_w(self) -> float:
        return self._consumption_at(self.demand_now_w)
