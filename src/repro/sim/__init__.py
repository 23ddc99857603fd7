"""Discrete-event simulation kernel.

This subpackage is a small, self-contained, simpy-like discrete-event
simulation core.  It provides:

* :class:`~repro.sim.engine.Engine` -- the event loop and simulated clock,
* generator-based processes (:class:`~repro.sim.process.Process`) with
  interrupt support,
* waitable events and composite conditions
  (:mod:`repro.sim.events`),
* synchronization / queueing primitives used to model locks and bounded
  message queues (:mod:`repro.sim.resources`),
* named, reproducibly-seeded random streams (:mod:`repro.sim.rng`).

Everything in the reproduction -- the Penelope protocol, the centralized
SLURM-style manager, the network and the RAPL stand-in -- runs on top of
this kernel, which makes every experiment deterministic given a seed.

This module is also the *substrate seam*: protocol layers (``core``,
``membership``, ``managers``) import the kernel exclusively through this
facade, never from ``repro.sim.engine`` / ``repro.sim.process`` /
private ``repro.sim._*`` modules directly.  The whole-program lint rule
R8 (``repro lint --project``) enforces that boundary so the kernel can
be swapped (sharded engine, real-substrate clock) without touching the
protocol code.
"""

from repro.sim.config import SimConfig
from repro.sim.engine import Engine, SimulationError, StopSimulation
from repro.sim.schedulers import HeapScheduler
from repro.sim.events import (
    AllOf,
    AnyOf,
    Callback,
    Event,
    EventBase,
    FirstOf,
    InlineFirstOf,
    Timeout,
)
from repro.sim.process import InlineProcess, Interrupt, Process
from repro.sim.resources import Gate, Lock, Store, StoreFull
from repro.sim.rng import RngRegistry, stable_name_hash
from repro.sim._stop import stop_process
from repro.sim.streams import STREAM_TABLE, StreamSpec, lookup as lookup_stream

__all__ = [
    "AllOf",
    "AnyOf",
    "Callback",
    "Engine",
    "Event",
    "EventBase",
    "FirstOf",
    "Gate",
    "HeapScheduler",
    "InlineFirstOf",
    "InlineProcess",
    "Interrupt",
    "Lock",
    "Process",
    "RngRegistry",
    "STREAM_TABLE",
    "SimConfig",
    "SimulationError",
    "StopSimulation",
    "Store",
    "StoreFull",
    "StreamSpec",
    "Timeout",
    "lookup_stream",
    "stable_name_hash",
    "stop_process",
]
