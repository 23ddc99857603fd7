"""The RNG stream-name manifest: every named stream the system draws.

:class:`~repro.sim.rng.RngRegistry` creates streams on first use, which
makes accidental name reuse silent: two modules that spell the same
stream name share one generator, so draws in one perturb the other --
exactly the cross-component coupling named streams exist to prevent.
This manifest turns the namespace into a checked contract.  Each
:class:`StreamSpec` declares one stream-name *template* (f-string
placeholders normalized to ``{}``) together with the module paths
allowed to draw it; lint rule R10 (``repro lint --project``) parses the
table statically and flags

* draws whose template is not declared here ("unregistered stream"),
* draws from modules outside the template's owner list ("foreign
  stream"), and
* manifest entries that collide (duplicate or overlapping templates).

Keep the table literal -- plain ``StreamSpec(...)`` calls with constant
arguments -- so the analyzer can read it without importing the package.

Owners are ``repro/...`` path prefixes.  Listing more than one owner is
how a *deliberate* shared-stream contract is declared; the comment on
the entry should say why sharing is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class StreamSpec:
    """One declared stream-name template and its draw contract."""

    #: Stream-name template; each f-string interpolation is ``{}``.
    template: str
    #: ``repro/...`` path prefixes of the modules allowed to draw it.
    owners: Tuple[str, ...]
    #: What the stream randomizes (documentation only).
    purpose: str


STREAM_TABLE: Tuple[StreamSpec, ...] = (
    StreamSpec(
        template="net.latency",
        owners=("repro/cluster/cluster.py",),
        purpose="per-message network latency factors (and loss draws)",
    ),
    StreamSpec(
        template="net.faults.duplicate",
        owners=("repro/cluster/faults.py",),
        purpose="message-duplication burst coin flips and echo delays",
    ),
    StreamSpec(
        template="net.faults.reorder",
        owners=("repro/cluster/faults.py",),
        purpose="reordering-burst extra-delay draws",
    ),
    StreamSpec(
        template="node.{}.rapl",
        owners=("repro/cluster/cluster.py",),
        purpose="per-node RAPL sensor noise",
    ),
    StreamSpec(
        template="penelope.membership.{}{}",
        owners=("repro/core/manager.py",),
        purpose="per-node SWIM probe target shuffles and relay picks",
    ),
    StreamSpec(
        template="penelope.pool.{}{}",
        owners=("repro/core/manager.py",),
        purpose="per-node pool service times",
    ),
    StreamSpec(
        template="penelope.decider.{}{}",
        owners=("repro/core/manager.py",),
        purpose="per-node decider peer sampling, stagger and backoff jitter",
    ),
    StreamSpec(
        template="slurm.server",
        owners=("repro/managers/slurm.py",),
        purpose="central server service times",
    ),
    StreamSpec(
        template="slurm.client.{}",
        # Deliberate shared contract: the HA manager reuses the plain
        # SLURM client stream so client behavior is draw-for-draw
        # comparable between the single-server and failover variants
        # (the two managers never run inside one simulation).
        owners=("repro/managers/slurm.py", "repro/managers/slurm_ha.py"),
        purpose="per-client service times and backoff jitter",
    ),
    StreamSpec(
        template="slurm-ha.server.{}",
        owners=("repro/managers/slurm_ha.py",),
        purpose="per-server (primary/standby) service times",
    ),
    StreamSpec(
        template="workload.jitter",
        # Only the universe builder draws it: a hand-built universe fails R10.
        owners=("repro/experiments/harness.py",),
        purpose="workload phase-duration jitter in every built universe",
    ),
    StreamSpec(
        template="multijob.jitter",
        owners=("repro/experiments/multijob.py",),
        purpose="multi-tenant job arrival and duration jitter",
    ),
    StreamSpec(
        template="chaos.schedule",
        owners=("repro/experiments/chaos.py",),
        purpose="fault-schedule sampling (kills, flaps, bursts, partitions)",
    ),
    StreamSpec(
        template="fuzz.sample",
        owners=("repro/experiments/fuzz.py",),
        purpose="chaos-spec sampling in fuzz campaigns",
    ),
    StreamSpec(
        # Harness-side only: the delay before retrying one failed sweep
        # task.  Seeded from (fingerprint, attempt) in a throwaway
        # registry, so retry scheduling can never perturb a simulation
        # stream -- results stay byte-identical with and without retries.
        template="runner.retry.{}",
        owners=("repro/experiments/runner.py",),
        purpose="per-task retry backoff jitter in the resilient sweep executor",
    ),
)


def lookup(template: str) -> Optional[StreamSpec]:
    """The manifest entry for ``template``, or ``None``."""
    for spec in STREAM_TABLE:
        if spec.template == template:
            return spec
    return None


__all__ = ["STREAM_TABLE", "StreamSpec", "lookup"]
