"""Pinned queue order: the transcript of every processed entry.

The kernel's determinism contract is a total order over ``(time,
priority, sequence)`` keys.  These tests record, for five small runs,
the ``(time, priority, site)`` of every queue entry the engine
processes, in order, and pin a digest of that transcript.  The first
four digests were recorded on commit a95db89, whose kernel queued an
event object per entry and whose decider was a generator process; the
same transcript from today's bare entries and handles proves the queue
surfaces the same entries in the same order.  The fifth,
``storm8-every-fault``, was recorded on commit ad58182, whose fault
injectors, SWIM probe loops, chaos auditor, ``run_callable_at`` and
``Cluster.run_to_completion`` still ran on generator processes and
composite events.

The site of an entry is the qualified name of the method it calls
(``Network._deliver``, ``RequestServer._served``, ...), or the class
name of an event.  A queued inbox hand-off (an actor's getter called
with the item an inbox wait popped) reads ``Event``, the getter event
the recorded kernel queued for it.  The decider's entries all read ``decider``: the
generator loop queued timeouts, process starts and condition wake-ups
where the state machine queues its own calls.  Entries that act on
nothing are left out on both sides: an event nobody waits on any more
(the recorded kernel queued a completion for every stopped process)
and a decider entry queued for a loop or request that has since
stopped.

Because every decider entry carries the one label, these pins do not
check the order among one decider's own same-instant entries (a tick,
the wake-up after a fired deadline, a retry, a stagger); the
``TestSameInstantOrder`` cases in ``tests/test_core_decider.py`` do.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import cluster as cluster_module
from repro.cluster import faults
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.experiments.chaos import BudgetAuditor, ChaosSpec, run_chaos_single
from repro.experiments.harness import RunSpec, run_single
from repro.membership.detector import FailureDetector
from repro.sim.config import SimConfig
from repro.sim.engine import _call_at
from repro.sim.events import EventBase, Handle
from repro.sim.schedulers import HeapScheduler

SCENARIOS = {
    # Per-node ticks with retries, a kill, a restart and a partition.
    "penelope6": lambda: run_single(
        RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=6, seed=4,
            workload_scale=0.3,
            manager_config=PenelopeConfig(response_timeout_s=0.3, request_retries=2),
            fault_plan=FaultPlan().kill(2, 2.0).restart(2, 4.0)
            .partition([3], 1.0, heal_after_s=3.0),
        ),
        sim=SimConfig(batched_ticks=False),
    ),
    "penelope6-batched": lambda: run_single(
        RunSpec(
            "penelope", ("CG", "LU"), 65.0, n_clients=6, seed=5,
            workload_scale=0.3,
            manager_config=PenelopeConfig(
                stagger_start=False, response_timeout_s=0.3, request_retries=2
            ),
            fault_plan=FaultPlan().kill(1, 2.0).restart(1, 4.0),
        ),
        sim=SimConfig(batched_ticks=True),
    ),
    # SLURM whose server (node 6) dies mid-run.
    "slurm-kill": lambda: run_single(
        RunSpec(
            "slurm", ("EP", "DC"), 70.0, n_clients=6, seed=2,
            workload_scale=0.3, fault_plan=FaultPlan().kill(6, 3.0),
        ),
        sim=SimConfig(batched_ticks=False),
    ),
    # A 4-node fault storm with SWIM membership.
    "storm4": lambda: run_chaos_single(
        ChaosSpec(seed=1, n_clients=4, duration_s=30.0, enable_membership=True),
        sim=SimConfig(batched_ticks=False),
    ),
    # An audited 8-node SWIM storm arming every fault kind: kills with
    # restarts, a partition, a flap, loss, duplication and reorder
    # bursts, a clock drift and a slow node.
    "storm8-every-fault": lambda: run_chaos_single(
        ChaosSpec(
            seed=3, n_clients=8, duration_s=20.0, enable_membership=True,
            kills=2, flaps=1, bursts=1, partitions=1, duplicate_bursts=1,
            reorder_bursts=1, clock_drifts=1, slow_nodes=1,
        ),
        sim=SimConfig(batched_ticks=False),
    ),
}

#: (processed entries, sha256 of the transcript) per scenario.
PINNED = {
    "penelope6": (1372, "f1987effd481ee72ef54f6f14d000b52af09db7a796fe1c09adc575cee48055a"),
    "penelope6-batched": (
        2338,
        "476ab1b2d669cf527cfd678f6eaed4d393952d43ace97a4e6ec5d8f83e4e642f",
    ),
    "slurm-kill": (1354, "4f417134260fff2bbdff14a54ed7676b63e99e1fe670ffc7ee2e48c69ba7a1b0"),
    "storm4": (1345, "bc601a7ee4038adfd893d454d7662f75250b9b31995cc08187f9eb52785e5634"),
    "storm8-every-fault": (
        1982,
        "9021efbff6e467365fd459929fa6bb7285bfd7104b8bd2326c5da167416d0490",
    ),
}

#: Decider entries whose first argument is their loop's run number, and
#: those whose first argument is their request.
_RUN_TOKEN = frozenset({"_begin", "_staggered", "_on_tick"})
_REQUEST_TOKEN = frozenset({"_on_wake", "_on_retry"})
#: The actors' inbox getters: an entry calling one is a queued inbox
#: hand-off (``Store.wait`` on a non-empty inbox), which the recorded
#: kernel queued as the getter's ``Event``.
_HAND_OFFS = frozenset({"_on_reply", "_on_request"})
#: Actors that were generator processes when ``storm8-every-fault`` was
#: recorded, now state machines on queued calls whose first argument is
#: their loop's run number: each method's label is what the process
#: queued for it, its start hop (``_Initialize``) or a wait
#: (``Timeout``).
_PROCESS_LOOPS = {
    FailureDetector: {
        "_begin": "_Initialize",
        "_round": "Timeout",
        "_round_end": "Timeout",
        "_indirect_end": "Timeout",
    },
    BudgetAuditor: {"_begin": "_Initialize", "_probe_due": "Timeout"},
}


def _site(item):
    """The entry's site label, or ``None`` for an entry that acts on nothing."""
    fn, args = item[3], item[4]
    if isinstance(fn, EventBase):
        if fn.callbacks is not None and not fn.callbacks:
            return None
        if fn.name == "cluster.completion":
            return "AnyOf"  # run_to_completion's second hop
        return type(fn).__name__
    if isinstance(fn, Handle) and fn.name == "cluster.time-limit":
        return "Timeout"  # run_to_completion's livelock guard
    target = fn._fn if isinstance(fn, Handle) else fn
    if target.__name__ in _HAND_OFFS:
        return "Event"
    owner = getattr(target, "__self__", None)
    if isinstance(owner, LocalDecider):
        name = target.__name__
        if name in _RUN_TOKEN and args[0] != owner._run:
            return None
        if name in _REQUEST_TOKEN and args[0] is not owner._request:
            return None
        return "decider"
    loop = _PROCESS_LOOPS.get(type(owner))
    if loop is not None and target.__name__ in loop:
        return loop[target.__name__] if args[0] == owner._run else None
    if target is _call_at or target is faults._begin:
        return "_Initialize"  # run_callable_at's or an injector's start hop
    if target.__module__ == faults.__name__:
        return "Timeout"  # a fault's step, queued where the process waited
    if target is cluster_module._complete:
        return "AllOf"  # run_to_completion's first hop
    if target.__qualname__ == "SharedDeadline._fire":
        return "decider"
    return target.__qualname__


def _transcript(run, monkeypatch):
    log = []
    pop, pop_due = HeapScheduler.pop, HeapScheduler.pop_due

    def record(item):
        if item is not None:
            site = _site(item)
            if site is not None:
                log.append((repr(item[0]), item[1], site))
        return item

    monkeypatch.setattr(HeapScheduler, "pop", lambda self: record(pop(self)))
    monkeypatch.setattr(
        HeapScheduler, "pop_due", lambda self, horizon: record(pop_due(self, horizon))
    )
    run()
    return log


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_processed_entries_match_the_pinned_transcript(scenario, monkeypatch):
    log = _transcript(SCENARIOS[scenario], monkeypatch)
    digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()
    assert (len(log), digest) == PINNED[scenario]
