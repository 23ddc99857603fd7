"""Discrete-event simulation kernel.

This subpackage is a small, self-contained, simpy-like discrete-event
simulation core.  It provides:

* :class:`~repro.sim.engine.Engine` -- the event loop and simulated clock,
  whose one way to wait is a queued call (cancellable through a
  :class:`~repro.sim.events.Handle`),
* waitable events, the target of ``run(until=...)`` and of a workload's
  completion (:mod:`repro.sim.events`),
* the bounded message queue every inbox is built on
  (:mod:`repro.sim.resources`),
* named, reproducibly-seeded random streams (:mod:`repro.sim.rng`).

Everything in the reproduction -- the Penelope protocol, the centralized
SLURM-style manager, the network and the RAPL stand-in -- runs on top of
this kernel, which makes every experiment deterministic given a seed.

This module is also the *substrate seam*: protocol layers (``core``,
``membership``, ``managers``) import the kernel exclusively through this
facade, never from ``repro.sim.engine`` or private ``repro.sim._*``
modules directly.  The whole-program lint rule
R8 (``repro lint --project``) enforces that boundary so the kernel can
be swapped (sharded engine, real-substrate clock) without touching the
protocol code.
"""

from repro.sim.config import SimConfig
from repro.sim.engine import Engine, SimulationError, StopSimulation
from repro.sim.schedulers import HeapScheduler
from repro.sim.events import PRIORITY_URGENT, Event, EventBase, Handle
from repro.sim.resources import Store, StoreFull
from repro.sim.rng import RngRegistry, stable_name_hash
from repro.sim.streams import STREAM_TABLE, StreamSpec, lookup as lookup_stream

__all__ = [
    "PRIORITY_URGENT",
    "Engine",
    "Event",
    "EventBase",
    "Handle",
    "HeapScheduler",
    "RngRegistry",
    "STREAM_TABLE",
    "SimConfig",
    "SimulationError",
    "StopSimulation",
    "Store",
    "StoreFull",
    "StreamSpec",
    "lookup_stream",
    "stable_name_hash",
]
