"""Waitable events and cancellable calls for the simulation kernel.

The design follows the classic simpy model: an *event* moves through three
states -- untriggered, triggered (scheduled on the engine queue with a value
or an exception), and processed (its callbacks have run).  Processes wait on
events by ``yield``-ing them; the engine resumes the process when the event
is processed.

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

    __slots__ = (
        "engine",
        "name",
        "callbacks",
        "_value",
        "_ok",
        "_defused",
    )

    def __init__(self, engine: "Engine", name: Optional[str] = None) -> None:
        self.engine = engine
        self.name = name
        #: Callbacks invoked (with this event) when the event is processed.
        #: ``None`` once processed.
        self.callbacks: Optional[List[Callable[["EventBase"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # When an event fails and nobody is waiting on it, the engine raises
        # the exception at the top level unless the failure was "defused" by
        # being delivered into a process.
        self._defused = False

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
        # Inlined Engine._schedule: triggering is one of the kernel's
        # hottest operations (every inbox hand-off from a non-empty
        # store and every process completion lands here).  ``_push`` is
        # the scheduler's pre-bound enqueue (see repro.sim.schedulers).
        engine = self.engine
        engine._push(
            (engine.now + delay, PRIORITY_NORMAL, next(engine._sequence), self, ())
        )
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "EventBase":
        """Trigger the event as failed with ``exception``.

        A failed event delivered to a waiting process re-raises the
        exception inside that process.
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
        ``fn``.  A failure nobody defused surfaces here as a
        :class:`SimulationError`.
        """
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            exc = self._value
            raise SimulationError(f"unhandled failure of {self!r}: {exc!r}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{label} {state} at {hex(id(self))}>"

    # -- composition -----------------------------------------------------

    def __or__(self, other: "EventBase") -> "AnyOf":
        return AnyOf(self.engine, [self, other])

    def __and__(self, other: "EventBase") -> "AllOf":
        return AllOf(self.engine, [self, other])


class Event(EventBase):
    """A plain, manually-triggered event (rendezvous point)."""

    __slots__ = ()


class Timeout(EventBase):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("_seq",)

    def __init__(
        self,
        engine: "Engine",
        delay: float,
        value: Any = None,
        name: Optional[str] = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined EventBase.__init__ + Engine._schedule (process waits
        # and guards allocate one per wait).
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        #: The queue entry's sequence number; ``None`` once cancelled.
        self._seq: Optional[int] = next(engine._sequence)
        engine._push((engine.now + delay, PRIORITY_NORMAL, self._seq, self, ()))

    def cancel(self) -> None:
        """Abandon the timeout before it fires (lazy deletion).

        The queue entry stays in the scheduler but is never processed:
        the scheduler drops it when it surfaces or sweeps it in bulk, so
        cancelling is O(1) instead of an O(n) heap removal.  The
        cancellation is *counted eagerly* -- ``engine.cancelled_events``
        increments here, and the scheduler is told so its live ``len()``
        stays exact.

        Only the owner of a timeout may cancel it: any callbacks already
        registered (by conditions or waiting processes) will never run.
        Cancelling twice is a no-op; cancelling an already-processed
        timeout is an error.
        """
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        seq = self._seq
        if seq is not None:
            self._seq = None
            self.engine._note_cancelled(seq)


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
        """Drop the queued call unrun: lazily deleted, counted eagerly
        (same contract as :meth:`Timeout.cancel`).  A no-op once the
        call ran or was cancelled."""
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


class ConditionValue:
    """Mapping-like container with the values of a condition's sub-events.

    The contents are a *snapshot* taken at the instant the condition
    triggered: sub-events that fire later do not appear.  Declaration
    order is preserved.
    """

    __slots__ = ("_events", "_triggered")

    def __init__(self, events: List["EventBase"]) -> None:
        self._events = events
        # Snapshot of the sub-events already *processed* when the condition
        # fired.  ("Triggered" is not enough: a Timeout carries its value
        # from construction but has not occurred until processed.)
        self._triggered = [e for e in events if e.processed and e.ok]

    def __getitem__(self, event: "EventBase") -> Any:
        if event not in self._triggered:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: "EventBase") -> bool:
        return event in self._triggered

    def __len__(self) -> int:
        return len(self._triggered)

    def events(self) -> List["EventBase"]:
        """The sub-events that had triggered, in declaration order."""
        return list(self._triggered)

    def values(self) -> List[Any]:
        return [e.value for e in self._triggered]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.values()!r}>"


class _Condition(EventBase):
    """Common machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_needed")

    def __init__(self, engine: "Engine", events: List[EventBase], needed: int) -> None:
        super().__init__(engine)
        self._events = list(events)
        for event in self._events:
            if event.engine is not engine:
                raise ValueError("all condition sub-events must share one engine")
        self._needed = needed
        if needed <= 0:
            # Trivially satisfied (e.g. AllOf([])).
            self.succeed(ConditionValue(self._events))
            return
        pending = 0
        for event in self._events:
            if event.processed:
                self._check(event, count=False)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)
                pending += 1
        # Account for already-processed successes.
        done = sum(1 for e in self._events if e.processed and e.ok)
        if not self.triggered and done >= self._needed:
            self.succeed(ConditionValue(self._events))
        if not self.triggered and pending == 0 and done < self._needed:
            raise RuntimeError("condition can never be satisfied")

    def _check(self, event: EventBase, count: bool = True) -> None:
        if self.triggered:
            # Late failures of sub-events must not be silently lost.
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        done = sum(1 for e in self._events if e.processed and e.ok)
        if done >= self._needed:
            self.succeed(ConditionValue(self._events))


class AnyOf(_Condition):
    """Fires when any one of ``events`` succeeds (or any fails)."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: List[EventBase]) -> None:
        events = list(events)
        super().__init__(engine, events, needed=min(1, len(events)))


class AllOf(_Condition):
    """Fires when every one of ``events`` has succeeded (or any fails)."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: List[EventBase]) -> None:
        events = list(events)
        super().__init__(engine, events, needed=len(events))
