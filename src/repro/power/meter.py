"""Energy integration over piecewise-constant power draw."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.engine import Engine


class EnergyMeter:
    """Integrates a piecewise-constant power signal over simulated time.

    The node executor calls :meth:`set_power` whenever the draw changes
    (phase change, cap enforcement); readers ask for the average power over
    a window via :meth:`average_since`.  This mirrors how RAPL's energy
    counters are used in practice: two counter reads and a division.
    """

    def __init__(self, engine: Engine, initial_power_w: float = 0.0) -> None:
        if initial_power_w < 0:
            raise ValueError("power cannot be negative")
        self.engine = engine
        self._power_w = initial_power_w
        self._energy_j = 0.0
        self._last_update = engine.now
        #: Optional recording of (time, power) breakpoints for analysis.
        self._trace: Optional[List[Tuple[float, float]]] = None

    # -- recording ---------------------------------------------------------

    def enable_trace(self) -> None:
        """Record every power breakpoint (time, watts) for later analysis."""
        if self._trace is None:
            self._trace = [(self._last_update, self._power_w)]

    @property
    def trace(self) -> List[Tuple[float, float]]:
        if self._trace is None:
            raise RuntimeError("trace not enabled; call enable_trace() first")
        return list(self._trace)

    # -- the signal ------------------------------------------------------------

    @property
    def power_w(self) -> float:
        """Instantaneous power draw."""
        return self._power_w

    def set_power(self, power_w: float) -> None:
        """Change the instantaneous draw (integrating the elapsed segment)."""
        if power_w < 0:
            raise ValueError(f"power cannot be negative, got {power_w!r}")
        # Inlined _integrate_to_now: the executor calls this on every phase
        # change and cap enforcement.
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            self._energy_j += self._power_w * dt
            self._last_update = now
        self._power_w = power_w
        if self._trace is not None:
            self._trace.append((now, power_w))

    def _integrate_to_now(self) -> None:
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            self._energy_j += self._power_w * dt
            self._last_update = now
        elif dt < 0:  # pragma: no cover - engine guarantees monotone time
            raise RuntimeError("clock went backwards")

    # -- reading -----------------------------------------------------------------

    def energy_j(self) -> float:
        """Total energy consumed since meter creation (joules)."""
        self._integrate_to_now()
        return self._energy_j

    def read_since(self, t0: float, energy_at_t0: float) -> Tuple[float, float]:
        """The average power between ``t0`` (with its energy reading) and
        now, and the energy consumed by now, integrating once.

        The average is the instantaneous power when the window is empty.
        Every RAPL power read makes one call.
        """
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            self._energy_j += self._power_w * dt
            self._last_update = now
        energy = self._energy_j
        window = now - t0
        if window <= 0:
            return self._power_w, energy
        return (energy - energy_at_t0) / window, energy

    def average_since(self, t0: float, energy_at_t0: float) -> float:
        """Average power between ``t0`` (with its energy reading) and now."""
        return self.read_since(t0, energy_at_t0)[0]
