"""Per-node memory budget: what one node of a large universe may cost.

The scaling runs (10 000 nodes on one small machine) are bounded by bytes
per node, so these tests pin the fixed costs a node brings: an upper bound
on the traced bytes of a built and started Penelope universe, and on the
emptiest per-node container, an inbox :class:`Store` with nothing in it.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.experiments import harness
from repro.sim.engine import Engine
from repro.sim.resources import Store

#: Traced bytes per node of a 1 000-node universe, built and started.
#: Measured at 11 658 B on CPython 3.11 (identical at seeds 1, 7 and 2022;
#: the build before inboxes dropped their deques and phases their
#: ``__dict__`` traced 15 490 B).  The budget leaves ~29% headroom for
#: interpreter layouts: 3.10 keeps generator frames and instance dicts as
#: separate objects, and a node holds 3 generators and ~19 instances.
NODE_BUDGET_B = 15_000

#: An empty Store traces ~274 B on CPython 3.11 (slots, two empty lists,
#: its ``"<name>.get"`` label); a ``deque`` alone would be 760 B.
EMPTY_STORE_BUDGET_B = 300


def _universe(n_clients: int):
    spec = harness.RunSpec(
        "penelope", ("EP", "DC"), 80.0, n_clients=n_clients, seed=2022
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
