"""Host-speed-normalised stopwatch and nearest-rank percentiles.

The box this benchmark was defined on switches between CPU speed
regimes for seconds at a time: a fixed pure-Python loop reads ~19-20 ms
in one and 26-32 ms in the other (bench/README.md, "Host noise and
speed normalisation").  Raw wall-clock medians of two 10-second runs of
the same code therefore differ by 10-15%, more than any bound worth
enforcing.

Every timing here is paired with a short reference loop run right next
to it (:func:`probe_s`).  A measured interval is scaled by
``REFERENCE_PROBE_S / probe``, the probe being the mean of the probes
that bracket the interval, so the reported value reads "seconds at the
reference speed".  The regimes last far longer than one op, so the
bracketing probes see the same regime as the op.  The raw wall-clock
values are kept beside the normalised ones and printed too.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the reference loop; ~1.5 ms on the reference box.
PROBE_LOOPS = 40_000

#: The reference loop's median duration on the 2-vCPU box the
#: benchmark was defined on.  Normalised times are "seconds at this
#: probe speed"; the constant only sets the scale, never the ranking.
REFERENCE_PROBE_S = 0.0015

#: Ops shorter than this share the probes of their neighbours.
PROBE_EVERY_S = 0.1


def probe_s() -> float:
    """Time one fixed pure-Python reference loop (seconds)."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``fn`` between two probes: ``(result, raw_s, normalised_s)``."""
    before = probe_s()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = probe_s()
    return result, raw, raw * 2.0 * REFERENCE_PROBE_S / (before + after)


class Stopwatch:
    """Accumulates ops and section wall time, raw and normalised.

    A measured section runs from :meth:`begin` to :meth:`end`; inside
    it, callers report each op's raw duration with :meth:`op` and call
    :meth:`maybe_probe` between ops.  Ops are held until the next probe
    and then scaled by the mean of the probes on either side.  Probe
    time itself is excluded from both ops and section wall time.
    """

    def __init__(self) -> None:
        self.ops_raw: List[float] = []
        self.ops_norm: List[float] = []
        self.wall_raw = 0.0
        self.wall_norm = 0.0
        self._pending: List[float] = []
        self._last_probe = 0.0
        self._segment_start = 0.0
        self._open = False

    def begin(self) -> None:
        if self._open:
            raise RuntimeError("measured section already open")
        self._last_probe = probe_s()
        self._segment_start = time.perf_counter()
        self._open = True

    def op(self, raw_s: float) -> None:
        self._pending.append(raw_s)

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._segment_start >= PROBE_EVERY_S:
            self._close_segment()
            self._segment_start = time.perf_counter()

    def end(self) -> None:
        if not self._open:
            raise RuntimeError("no measured section open")
        self._close_segment()
        self._open = False

    def _close_segment(self) -> None:
        segment = time.perf_counter() - self._segment_start
        probe = probe_s()
        factor = 2.0 * REFERENCE_PROBE_S / (self._last_probe + probe)
        self._last_probe = probe
        self.wall_raw += segment
        self.wall_norm += segment * factor
        self.ops_raw.extend(self._pending)
        self.ops_norm.extend(raw * factor for raw in self._pending)
        self._pending.clear()


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank method.

    The smallest value with at least ``pct`` percent of the sample at or
    below it: ``sorted(values)[ceil(pct / 100 * n) - 1]``.  Always an
    observed value, never an interpolation.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile out of (0, 100]: {pct!r}")
    ordered = sorted(values)
    # pct * n before the division keeps integer percentiles exact.
    rank = math.ceil(pct * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]
