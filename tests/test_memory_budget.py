"""Per-node memory budget: what one node of a large universe may cost.

The scaling runs (10 000 nodes on one small machine) are bounded by bytes
per node, so these tests pin the fixed costs a node brings: an upper bound
on the traced bytes of a built and started Penelope universe, and on the
emptiest per-node container, an inbox :class:`Store` with nothing in it.
The SWIM membership plane is the one O(N^2) structure (every node's view
holds every peer), so it is held to a budget per observer-peer pair, and
its transition log, which grows with nodes x faults, to a budget per
recorded change.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.config import PenelopeConfig
from repro.experiments import harness
from repro.experiments.chaos import ChaosSpec, run_chaos_single
from repro.membership.view import ALIVE, SUSPECT, MemberView, MembershipTransition
from repro.net.messages import MembershipUpdate
from repro.sim.engine import Engine
from repro.sim.events import Event, EventBase
from repro.sim.resources import Store

#: Traced bytes per node of a 1 000-node universe, built and started.
#: Measured at 11 658 B on CPython 3.11 (identical at seeds 1, 7 and 2022;
#: the build before inboxes dropped their deques and phases their
#: ``__dict__`` traced 15 490 B).  The budget leaves ~29% headroom for
#: interpreter layouts: 3.10 keeps generator frames and instance dicts as
#: separate objects, and a node holds 3 generators and ~19 instances.
NODE_BUDGET_B = 15_000

#: An empty Store traces ~196 B on CPython 3.11 (slots and two empty
#: lists; ~262 B while each kept a prebuilt ``"<name>.get"`` label); a
#: ``deque`` alone would be 760 B.
EMPTY_STORE_BUDGET_B = 300

#: Traced ``membership/view.py`` bytes per observer-peer pair of a
#: 256-node membership universe, built and started.  Measured at 31.0 B on
#: CPython 3.11 (seeds 7 and 2022): 19 B of status, incarnation and
#: gossip-buffer columns, 8 B of sorted alive list, the rest per-view
#: fixed cost.  The build that kept one ``MemberState`` and one dict slot
#: per peer traced 103.0 B.
MEMBER_PAIR_BUDGET_B = 40

#: Traced bytes per transition a view records.  The log's four columns
#: (time, subject, status code, incarnation) take 25 B per change plus
#: the arrays' over-allocation: 26.4 B measured on CPython 3.11.  One
#: slotted ``MembershipTransition`` (72 B) and list slot per change
#: measured 104 B.
TRANSITION_BUDGET_B = 32


def _universe(n_clients: int, **config):
    spec = harness.RunSpec(
        "penelope",
        ("EP", "DC"),
        80.0,
        n_clients=n_clients,
        seed=2022,
        manager_config=PenelopeConfig(**config) if config else None,
    )
    engine, cluster, manager = harness.build_run(spec)
    manager.start()
    cluster.start_workloads()
    return engine, cluster, manager


def test_node_footprint_within_budget():
    n = 1000
    _universe(4)  # first-use imports and caches are not per-node cost
    gc.collect()
    tracemalloc.start()
    try:
        universe = _universe(n)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(universe[1].compute_nodes()) == n
    per_node = traced / n
    assert per_node <= NODE_BUDGET_B, f"{per_node:.0f} B per node"


def test_empty_store_within_budget():
    engine = Engine()
    count = 1000
    stores = [None] * count
    Store(engine)
    tracemalloc.start()
    try:
        for index in range(count):
            stores[index] = Store(engine, capacity=128)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_store = traced / count
    assert per_store <= EMPTY_STORE_BUDGET_B, f"{per_store:.0f} B per Store"


def test_membership_view_bytes_per_pair_within_budget():
    n = 256
    _universe(4, enable_membership=True)
    gc.collect()
    tracemalloc.start()
    try:
        universe = _universe(n, enable_membership=True)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    detectors = universe[2].detectors
    assert len(detectors) == n
    views = snapshot.filter_traces([tracemalloc.Filter(True, "*/membership/view.py")])
    traced = sum(stat.size for stat in views.statistics("filename"))
    per_pair = traced / (n * (n - 1))
    assert per_pair <= MEMBER_PAIR_BUDGET_B, f"{per_pair:.1f} B per observer-peer pair"


def test_membership_log_bytes_per_transition_within_budget():
    peers = range(1, 65)
    view = MemberView(0, list(peers))
    # Each round suspects every peer, then revives it one incarnation up:
    # two accepted changes per peer per round.
    updates = [
        MembershipUpdate(peer, status, incarnation + (status == ALIVE))
        for incarnation in range(32)
        for status in (SUSPECT, ALIVE)
        for peer in peers
    ]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for now, update in enumerate(updates):
            view.apply(update, float(now))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(view.log) == len(updates) == 4096
    per_transition = (traced - before) / len(updates)
    assert per_transition <= TRANSITION_BUDGET_B, f"{per_transition:.1f} B per transition"


def test_detector_report_builds_no_transition_records(monkeypatch):
    built = []
    init = MembershipTransition.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(MembershipTransition, "__init__", counted)
    spec = ChaosSpec(
        n_clients=8, seed=7, duration_s=10.0, workload_scale=0.1, kills=1,
        flaps=1, bursts=0, partitions=1, enable_membership=True,
        membership_probe_period_s=0.5,
    )
    result = run_chaos_single(spec)  # the storm, then its detector report
    assert result.detector is not None and result.detector["n_transitions"] > 0
    assert built == []
    MembershipTransition(1.0, 0, 1, ALIVE, 0)
    assert len(built) == 1  # the wrapper does count constructions


@pytest.mark.parametrize("manager", ["penelope", "slurm"])
def test_inbox_waits_build_no_events(manager, monkeypatch):
    # Every inbox wait of the decider, the SLURM client and the request
    # servers is a plain (fn, token) getter, and nothing else in a run
    # waits on an event: the only events a run builds are the
    # executors' ``done``/``settled`` and the completion event.
    names = []
    init = EventBase.__init__

    def counted(self, engine, name=None):
        names.append(name)
        init(self, engine, name)

    monkeypatch.setattr(Event, "__init__", counted)
    result = harness.run_single(
        harness.RunSpec(
            manager, ("EP", "DC"), 70.0, n_clients=4, seed=7, workload_scale=0.05
        )
    )
    # The actors did wait on their inboxes ...
    assert result.recorder.turnarounds
    # ... and none of those waits built an event.
    assert names
    assert [
        name
        for name in names
        if not name.endswith((".done", ".settled")) and name != "cluster.completion"
    ] == []
