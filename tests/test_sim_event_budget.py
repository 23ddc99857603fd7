"""Deterministic event budgets for the batched tick driver and membership.

Wall-clock guards are noisy on a shared host; the number of events the
engine dispatches for a fixed scenario is not.  These budgets bound the
queue work two kernel features cost, as ratios of
``engine.processed_events`` against the plain run:

* the batched tick driver must dispatch at most half the events of the
  per-node decider loops -- it replaces N timeouts and generator
  resumes per period with one batch event per stagger slot;
* the SWIM failure detector may add at most 60% to the event count.

Scenario: Penelope at EP:DC under an 80 W/socket cap (the configuration
with the liveliest request/grant traffic), seed 2022, full-size
workload, 256 nodes run to 10 sim-s.

Measured ratios (they are deterministic):

======================  =========================  =====  ======
ratio                   events                     value  bound
======================  =========================  =====  ======
batched / per-node      6 439 / 14 287             0.451  <= 0.5
membership / plain      22 223 / 14 287            1.555  <= 1.6
======================  =========================  =====  ======

At 64 and 1024 nodes the batched ratio is 0.501 and 0.435, and the
membership ratio 1.554 and 1.557.
"""

from __future__ import annotations

import pytest

from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunSpec, build_run
from repro.sim.config import SimConfig

N_CLIENTS = 256
HORIZON_S = 10.0

#: Batched events / per-node events; measured 0.451 (11% headroom).
BATCHED_BUDGET = 0.5
#: Membership-on events / membership-off events; measured 1.555 (3%
#: headroom).
MEMBERSHIP_BUDGET = 1.6


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
    return engine.processed_events


@pytest.fixture(scope="module")
def per_node_events() -> int:
    return _processed_events()


def test_batched_ticks_halve_the_event_count(per_node_events: int) -> None:
    ratio = _processed_events(batched=True) / per_node_events
    assert ratio <= BATCHED_BUDGET, f"batched / per-node = {ratio:.3f}"


def test_membership_event_overhead_within_budget(per_node_events: int) -> None:
    ratio = _processed_events(membership=True) / per_node_events
    assert ratio <= MEMBERSHIP_BUDGET, f"membership / plain = {ratio:.3f}"
