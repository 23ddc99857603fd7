"""The simulated RAPL powercap interface.

:class:`SimulatedRapl` exposes the two operations Penelope requires
(§3.3): read average power since the last read, and set the node-level
powercap.  Enforcement is not instantaneous -- a newly set cap takes
effect after a convergence delay (RAPL converges on average in under
0.5 s), during which the old effective cap still governs consumption.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.power.domain import PowerDomainSpec
from repro.power.meter import EnergyMeter
from repro.sim.engine import Engine


class PowerCapInterface(abc.ABC):
    """The minimal interface a power manager needs from the platform.

    Penelope "easily [can] be adapted to work with any power capping
    interface" (§3.3); this ABC is that seam.  The reproduction provides
    :class:`SimulatedRapl`; a port to real hardware would implement the
    same three methods against ``/sys/class/powercap``.
    """

    #: The node's electrical limits (safe cap range, idle floor).  Deciders
    #: need it to honour the safe-range constraint of §2.1.
    spec: "PowerDomainSpec"

    @abc.abstractmethod
    def read_power(self) -> float:
        """Average power (W) dissipated since the previous call."""

    @abc.abstractmethod
    def set_cap(self, cap_w: float) -> float:
        """Request a node-level cap; returns the clamped value actually set."""

    @property
    @abc.abstractmethod
    def cap_w(self) -> float:
        """The most recently requested (clamped) cap."""


class SimulatedRapl(PowerCapInterface):
    """Simulated node power telemetry and cap enforcement.

    Parameters
    ----------
    engine:
        Simulation kernel.
    spec:
        Electrical limits of the node.
    rng:
        Random stream for sensor noise and enforcement-delay jitter.
    enforcement_delay_s:
        ``(min, max)`` uniform window for a cap change to take effect.
    reading_noise:
        Multiplicative standard deviation of power readings (0 disables).
    """

    def __init__(
        self,
        engine: Engine,
        spec: PowerDomainSpec,
        rng: np.random.Generator,
        initial_cap_w: Optional[float] = None,
        enforcement_delay_s: Tuple[float, float] = (0.2, 0.5),
        reading_noise: float = 0.01,
    ) -> None:
        lo, hi = enforcement_delay_s
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid enforcement delay window {enforcement_delay_s!r}")
        if reading_noise < 0:
            raise ValueError("reading_noise must be non-negative")
        self.engine = engine
        self.spec = spec
        self._rng = rng
        self._delay_lo = lo
        self._delay_hi = hi
        self._noise = reading_noise

        cap = spec.clamp_cap(initial_cap_w if initial_cap_w is not None else spec.max_cap_w)
        self._requested_cap_w = cap
        self._effective_cap_w = cap
        self._set_version = 0
        #: How the node cap is budgeted across sockets ("even" or
        #: "proportional"); consulted by the executor for phases that
        #: declare NUMA imbalance.  See :mod:`repro.power.sockets`.
        self.socket_split_policy = "even"

        self.meter = EnergyMeter(engine, initial_power_w=spec.idle_w)
        self._last_read_time = engine.now
        self._last_read_energy = 0.0

        #: Called with the new effective cap once enforcement completes.
        #: The node executor hooks this to recompute throttling.
        self.on_cap_enforced: List[Callable[[float], None]] = []
        #: Counters for the overhead analysis.
        self.cap_writes = 0
        self.power_reads = 0

    # -- caps -------------------------------------------------------------

    @property
    def cap_w(self) -> float:
        """The latest requested cap (clamped to the safe window)."""
        return self._requested_cap_w

    @property
    def effective_cap_w(self) -> float:
        """The cap the hardware is currently enforcing."""
        return self._effective_cap_w

    def set_cap(self, cap_w: float) -> float:
        """Request a new node-level cap.

        The cap is clamped to the safe window and becomes *effective* after
        the enforcement delay.  Overlapping requests are resolved
        last-write-wins, like repeatedly writing the MSR.
        """
        clamped = self.spec.clamp_cap(cap_w)
        self._requested_cap_w = clamped
        self._set_version += 1
        self.cap_writes += 1
        # lo + (hi - lo) * u is how numpy's uniform(lo, hi) maps the
        # same next_double draw, so values and stream position are
        # uniform's, without its argument conversion.
        lo = self._delay_lo
        hi = self._delay_hi
        delay = lo if hi == lo else lo + (hi - lo) * self._rng.random()
        if delay == 0.0:
            self._enforce(clamped, self._set_version)
        else:
            # A bare queue entry: cap writes happen on nearly every
            # decider iteration, making enforcement one of the kernel's
            # hottest paths.
            self.engine.call_later(
                delay, self._enforce, clamped, self._set_version, name="rapl.enforce"
            )
        return clamped

    def _enforce(self, cap: float, version: int) -> None:
        if version != self._set_version:
            return  # superseded by a later write
        self._effective_cap_w = cap
        for callback in self.on_cap_enforced:
            callback(cap)

    # -- telemetry ---------------------------------------------------------

    def set_consumption(self, power_w: float) -> None:
        """Platform hook: the executor reports the node's current draw."""
        self.meter.set_power(power_w)

    @property
    def instantaneous_power_w(self) -> float:
        return self.meter.power_w

    def read_power(self) -> float:
        """Average power since the previous ``read_power`` call.

        Applies multiplicative sensor noise, never returning a negative
        value.  The very first call (or a zero-width window) returns the
        instantaneous draw.
        """
        self.power_reads += 1
        average, self._last_read_energy = self.meter.read_since(
            self._last_read_time, self._last_read_energy
        )
        self._last_read_time = self.engine.now
        if self._noise > 0.0:
            # numpy's ``normal(0.0, s)`` is ``0.0 + s * z`` for the same
            # ziggurat draw ``z``; the sum only turns ``-0.0`` into
            # ``0.0``, which ``1.0 +`` cannot tell apart.  So this is the
            # same factor and stream position, without the argument
            # handling of ``normal`` (every power read draws one).
            average *= 1.0 + self._noise * self._rng.standard_normal()
        return max(average, 0.0)
