"""Power managers: the baselines the paper compares Penelope against.

* :class:`~repro.managers.fair.FairManager` -- static even split (§2.3.1),
  the normalization baseline of every figure.
* :class:`~repro.managers.slurm.SlurmManager` -- the centralized
  state-of-the-art: per-node deciders reporting to one server that is a
  global cache of excess power (§2.3.2), extended with the centralized
  urgency mechanism the authors implement for the comparison (§4.1) and a
  scale-aware rate limit (§4.5).
* :class:`~repro.managers.slurm_ha.HaSlurmManager` -- SLURM with a
  fallback server, the high-availability extension of the §4.4 fault.

Penelope itself lives in :mod:`repro.core` -- it is the paper's
contribution, not a baseline -- but implements the same
:class:`~repro.managers.base.PowerManager` interface.
"""

from repro.managers.base import BudgetAudit, ManagerConfig, PowerManager
from repro.managers.fair import FairManager
from repro.managers.slurm import SlurmConfig, SlurmManager
from repro.managers.slurm_ha import HaSlurmConfig, HaSlurmManager

__all__ = [
    "BudgetAudit",
    "FairManager",
    "HaSlurmConfig",
    "HaSlurmManager",
    "ManagerConfig",
    "PowerManager",
    "SlurmConfig",
    "SlurmManager",
]
