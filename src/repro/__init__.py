"""Reproduction of *Penelope: Peer-to-peer Power Management* (ICPP 2022).

Penelope is a fully distributed power manager for power-constrained
clusters: instead of a central server redistributing excess power, every
node runs a local decider and a local power pool, and power moves through
peer-to-peer transactions with a distributed *urgency* mechanism.

This package contains a complete, simulator-backed implementation:

* :mod:`repro.core` -- Penelope itself (Algorithms 1 and 2, urgency);
* :mod:`repro.managers` -- the baselines: Fair and the SLURM-style
  centralized manager (with centralized urgency, and a high-availability
  variant with a fallback server);
* :mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.power`,
  :mod:`repro.workloads`, :mod:`repro.cluster` -- the substrates: a
  deterministic discrete-event kernel, a latency/queueing network, a
  simulated RAPL interface, NPB-like workload models, and the cluster
  model tying them together;
* :mod:`repro.experiments` -- the harness regenerating every figure of
  the paper's evaluation (see EXPERIMENTS.md).

Quick start::

    from repro.experiments import RunSpec, run_single

    fair = run_single(RunSpec("fair", ("EP", "DC"), cap_w_per_socket=70,
                              n_clients=8, workload_scale=0.25))
    pen = run_single(RunSpec("penelope", ("EP", "DC"), cap_w_per_socket=70,
                             n_clients=8, workload_scale=0.25))
    print(f"speedup over Fair: {fair.runtime_s / pen.runtime_s:.3f}x")
"""

__version__ = "1.0.0"

from repro.core import LocalDecider, PenelopeConfig, PenelopeManager, PowerPool
from repro.experiments.harness import RunResult, RunSpec, run_single
from repro.managers import (
    FairManager,
    ManagerConfig,
    PowerManager,
    SlurmConfig,
    SlurmManager,
)

__all__ = [
    "FairManager",
    "LocalDecider",
    "ManagerConfig",
    "PenelopeConfig",
    "PenelopeManager",
    "PowerManager",
    "PowerPool",
    "RunResult",
    "RunSpec",
    "SlurmConfig",
    "SlurmManager",
    "run_single",
    "__version__",
]
