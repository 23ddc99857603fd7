"""Deterministic event budgets for the per-node path, batched ticks and
membership.

Wall-clock guards are noisy on a shared host; the number of events the
engine dispatches for a fixed scenario is not.  These budgets bound
``engine.processed_events`` for each path on its own, so a path that
gets cheaper cannot hide another that gets dearer (a ratio against the
per-node count would).

Scenario: Penelope at EP:DC under an 80 W/socket cap (the configuration
with the liveliest request/grant traffic), seed 2022, full-size
workload, 256 nodes run to 10 sim-s.

Measured counts (they are deterministic).  "Queued hand-offs" is the
kernel before a put into an idle inbox, a reply handed to the waiting
decider's inbox getter and an interrupt resumed their waiter in place
on the per-node path.  "now" is the current kernel, whose decider is a
callback state machine taking the reply through its inbox wait, a
plain ``(fn, token)`` getter called in place (``Store.wait``: a wait
builds no event, but the entries it queues are the ones the getter
event queued, so the count is unchanged).  It reads the same as with
the generator decider, because no decider stops in this scenario, so
no stopped loop's completion entry is saved:

===========  ================  =======  ======
path         queued hand-offs  now      bound
===========  ================  =======  ======
per-node     14 287            8 956    9 900
batched      6 439             6 439    7 100
membership   22 223            16 892   18 700
===========  ================  =======  ======

Each bound leaves about 10% of headroom.  The batched path already
resumed in place, so its count did not move.
"""

from __future__ import annotations

from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunSpec, build_run
from repro.sim.config import SimConfig

N_CLIENTS = 256
HORIZON_S = 10.0

PER_NODE_BUDGET = 9_900
BATCHED_BUDGET = 7_100
MEMBERSHIP_BUDGET = 18_700


def _processed_events(batched: bool = False, membership: bool = False) -> int:
    spec = RunSpec(
        "penelope",
        ("EP", "DC"),
        80.0,
        n_clients=N_CLIENTS,
        seed=2022,
        workload_scale=1.0,
        manager_config=PenelopeConfig(enable_membership=True) if membership else None,
    )
    engine, cluster, manager = build_run(spec, sim=SimConfig(batched_ticks=batched))
    manager.start()
    for node in cluster.compute_nodes():
        node.start_workload()
    engine.run(until=HORIZON_S)
    engine.release_gc_hold()
    return engine.processed_events


def test_per_node_event_count_within_budget() -> None:
    events = _processed_events()
    assert events <= PER_NODE_BUDGET, f"per-node: {events} events"


def test_batched_event_count_within_budget() -> None:
    events = _processed_events(batched=True)
    assert events <= BATCHED_BUDGET, f"batched: {events} events"


def test_membership_event_overhead_within_budget() -> None:
    events = _processed_events(membership=True)
    assert events <= MEMBERSHIP_BUDGET, f"membership: {events} events"
