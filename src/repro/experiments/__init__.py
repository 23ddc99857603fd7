"""Experiment harness: one module per section of the paper's evaluation.

* :mod:`repro.experiments.harness` -- the one universe builder and the
  single-run driver (build cluster, install manager, run, audit).
* :mod:`repro.experiments.overhead` -- §4.2 (Penelope's per-node overhead).
* :mod:`repro.experiments.nominal` -- §4.3 / Figure 2.
* :mod:`repro.experiments.faulty` -- §4.4 / Figure 3.
* :mod:`repro.experiments.scaling` -- §4.5 / Figures 4-8.
* :mod:`repro.experiments.metrics` -- redistribution and turnaround metrics.
* :mod:`repro.experiments.multijob` -- §4.4's back-to-back jobs extension.
* :mod:`repro.experiments.allocation` -- distance to the offline-oracle split.
* :mod:`repro.experiments.hardware_efficiency` -- throughput when no node
  is withheld for a server (benefit 3).
* :mod:`repro.experiments.chaos` -- randomized fault storms under a
  continuous budget-conservation auditor.
* :mod:`repro.experiments.invariants` -- the auditor's invariant monitor.
* :mod:`repro.experiments.fuzz` -- shrinking chaos fuzzer.
* :mod:`repro.experiments.runner` -- parallel sweep executor + result cache.
* :mod:`repro.experiments.journal` -- write-ahead campaign journal.
* :mod:`repro.experiments.serialize` -- the JSON codec for specs and results.
* :mod:`repro.experiments.report` -- text tables in the paper's format.
* :mod:`repro.experiments.claims` -- the paper-claims table (``repro claims``).
"""

from repro.experiments.harness import (
    MANAGER_FACTORIES,
    RunResult,
    RunSpec,
    run_single,
)
from repro.experiments.metrics import (
    redistribution_events,
    redistribution_time_s,
    turnaround_summary,
)
from repro.experiments.journal import CampaignJournal, TaskFailure, replay_journal
from repro.experiments.runner import (
    ProgressEvent,
    RetryPolicy,
    SweepFailure,
    TaskKind,
    add_progress_listener,
    raise_on_failures,
    remove_progress_listener,
    run_sweep,
    spec_fingerprint,
    split_failures,
)

__all__ = [
    "MANAGER_FACTORIES",
    "CampaignJournal",
    "ProgressEvent",
    "RetryPolicy",
    "RunResult",
    "RunSpec",
    "SweepFailure",
    "TaskFailure",
    "TaskKind",
    "add_progress_listener",
    "raise_on_failures",
    "redistribution_events",
    "redistribution_time_s",
    "remove_progress_listener",
    "replay_journal",
    "run_single",
    "run_sweep",
    "spec_fingerprint",
    "split_failures",
    "turnaround_summary",
]
