"""Simulation-kernel configuration.

:class:`SimConfig` selects *how* a scenario is executed (whether
same-period decider ticks are batched), as opposed to the protocol
configs under :mod:`repro.core.config` which select *what* is
simulated.  Any two ``SimConfig`` values must replay a given scenario
outcome-identically (transactions, cap trajectories, ledger balances;
see ``tests/test_sim_batched_equivalence.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

#: Environment fallback for :attr:`SimConfig.batched_ticks`: any of
#: ``1/true/on/yes`` enables batching when the config leaves the knob at
#: ``None``.
BATCHED_TICKS_ENV = "REPRO_BATCHED_TICKS"

#: Default number of stagger slots for batched ticks.  Per-node start
#: offsets are quantized onto this many batch events per period, so a
#: staggered cluster still spreads its request bursts across the period
#: instead of collapsing into lockstep.
DEFAULT_TICK_SLOTS = 16


def default_batched_ticks() -> bool:
    """The ambient batched-ticks default (``REPRO_BATCHED_TICKS``)."""
    return os.environ.get(BATCHED_TICKS_ENV, "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


@dataclass(frozen=True)
class SimConfig:
    """Kernel knobs for one simulation run.

    ``batched_ticks`` drives all same-period decider ticks from a single
    batch event per period instead of one timeout + generator resume per
    node (:mod:`repro.core.batcher`).  ``None`` defers to
    ``REPRO_BATCHED_TICKS`` and finally to off -- the default stays off
    so the pinned fixtures replay byte-identically.  ``tick_slots``
    bounds how many batch events per period a staggered cluster uses.
    """

    batched_ticks: Optional[bool] = None
    tick_slots: int = DEFAULT_TICK_SLOTS

    def __post_init__(self) -> None:
        if self.tick_slots < 1:
            raise ValueError("tick_slots must be at least 1")

    def effective_batched_ticks(self) -> bool:
        """The batched-ticks setting actually used (env-resolved)."""
        if self.batched_ticks is not None:
            return self.batched_ticks
        return default_batched_ticks()
