"""Waitable events and cancellable calls for the simulation kernel.

An *event* moves through three states -- untriggered, triggered
(scheduled on the engine queue with a value or an exception), and
processed (its callbacks have run).  The kernel waits on events in two
places only: :meth:`Engine.run(until=event) <repro.sim.engine.Engine.run>`
and the workload executors' ``done``/``settled`` events.  Everything
else waits through a queued call.

Queue entries
-------------
Every engine queue entry is one 5-tuple ``(time, priority, sequence, fn,
args)``, and processing it is the call ``fn(*args)``:

* a *bare entry* (:meth:`~repro.sim.engine.Engine.call_later`) queues a
  plain callable -- a bound method and its arguments -- with no event
  object at all: a call nobody waits on or cancels, which is most of
  what a run queues (message deliveries, service ends, cap enforcement,
  decider and SLURM ticks);
* a :class:`Handle` (:meth:`~repro.sim.engine.Engine.call_cancellable`)
  is the ``fn`` of an entry its owner may still cancel (request
  deadlines, workload segments, escrow and confirm timers);
* a triggered :class:`EventBase` is its own ``fn`` with ``args == ()``:
  calling an event processes it.

Cancelling drops an entry by its sequence number (see
:mod:`repro.sim.schedulers`), so no entry carries a cancellation flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Engine

#: Scheduling priorities.  Lower sorts earlier at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Sentinel distinguishing "no value yet" from ``None``.
_PENDING = object()


class SimulationError(RuntimeError):
    """An unhandled event failure surfaced at the top of the event loop."""


class EventBase:
    """A one-shot waitable occurrence on the simulation timeline.

    Parameters
    ----------
    engine:
        The :class:`~repro.sim.engine.Engine` this event belongs to.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = ("engine", "name", "callbacks", "_value", "_ok")

    def __init__(self, engine: "Engine", name: Optional[str] = None) -> None:
        self.engine = engine
        self.name = name
        #: Callbacks invoked (with this event) when the event is processed.
        #: ``None`` once processed.
        self.callbacks: Optional[List[Callable[["EventBase"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "EventBase":
        """Trigger the event successfully with ``value``.

        ``delay`` defers *processing* (callback execution) by that much
        simulated time; the default processes the event at the current
        instant (after already-queued events).
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._ok = True
        self._value = value
        # ``_push`` is the scheduler's pre-bound enqueue (see
        # repro.sim.schedulers).
        engine = self.engine
        engine._push(
            (engine.now + delay, PRIORITY_NORMAL, next(engine._sequence), self, ())
        )
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "EventBase":
        """Trigger the event as failed with ``exception``.

        Processing it raises: ``run(until=event)`` re-raises the
        exception, and any other processing wraps it in a
        :class:`SimulationError`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._ok = False
        self._value = exception
        engine = self.engine
        engine._push(
            (engine.now + delay, PRIORITY_NORMAL, next(engine._sequence), self, ())
        )
        return self

    # -- engine interface ------------------------------------------------

    def __call__(self) -> None:
        """Process the event: invoke its callbacks, exactly once.

        The engine calls a queued event like any other queue entry's
        ``fn``.  A failure surfaces here as a :class:`SimulationError`.
        """
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)
        if not self._ok:
            exc = self._value
            raise SimulationError(f"unhandled failure of {self!r}: {exc!r}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{label} {state} at {hex(id(self))}>"


class Event(EventBase):
    """A plain, manually-triggered event (rendezvous point)."""

    __slots__ = ()


class Handle:
    """A queued call its owner may still cancel.

    :meth:`Engine.call_cancellable <repro.sim.engine.Engine.call_cancellable>`
    queues ``(time, priority, sequence, handle, args)``; the engine's
    call ``handle(*args)`` runs ``fn(*args)``.  Nobody can wait on a
    handle: it has no callbacks, value or failure state, only
    :attr:`pending` and :meth:`cancel`.  ``name`` is the call site's
    constant label (lint R6).
    """

    __slots__ = ("engine", "name", "_fn", "_seq")

    def __init__(
        self, engine: "Engine", fn: Callable[..., Any], seq: int, name: Optional[str]
    ) -> None:
        self.engine = engine
        self.name = name
        self._fn: Optional[Callable[..., Any]] = fn
        self._seq = seq

    @property
    def pending(self) -> bool:
        """True until the call runs or is cancelled."""
        return self._fn is not None

    def cancel(self) -> None:
        """Drop the queued call unrun.

        The queue entry stays in the scheduler but is never processed:
        the scheduler drops it when it surfaces or sweeps it in bulk, so
        cancelling is O(1) instead of an O(n) heap removal.  The
        cancellation is *counted eagerly* -- ``engine.cancelled_events``
        increments here, and the scheduler is told so its live ``len()``
        stays exact.  A no-op once the call ran or was cancelled.
        """
        if self._fn is not None:
            self._fn = None
            self.engine._note_cancelled(self._seq)

    def __call__(self, *args: Any) -> None:
        fn = self._fn
        assert fn is not None, "cancelled call dispatched"
        self._fn = None
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._fn is not None else "done"
        return f"<Handle {self.name or '?'} {state} at {hex(id(self))}>"
