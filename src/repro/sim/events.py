"""Waitable events for the simulation kernel.

The design follows the classic simpy model: an *event* moves through three
states -- untriggered, triggered (scheduled on the engine queue with a value
or an exception), and processed (its callbacks have run).  Processes wait on
events by ``yield``-ing them; the engine resumes the process when the event
is processed.
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
        "_cancelled",
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
        # Lazily-deleted queue entries (see Timeout.cancel): the
        # scheduler drops cancelled events -- at the queue head or in a
        # bulk sweep -- instead of ever surfacing them for processing.
        self._cancelled = False

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
        # hottest operations (every grant, inbox hand-off and process
        # completion lands here).  ``_push`` is the scheduler's pre-bound
        # enqueue (see repro.sim.schedulers).
        engine = self.engine
        engine._push(
            (engine._now + delay, PRIORITY_NORMAL, next(engine._sequence), self)
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
            (engine._now + delay, PRIORITY_NORMAL, next(engine._sequence), self)
        )
        return self

    # -- engine interface ------------------------------------------------

    def _process(self) -> None:
        """Invoke callbacks.  Called exactly once by the engine."""
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)

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

    __slots__ = ("delay",)

    def __init__(
        self,
        engine: "Engine",
        delay: float,
        value: Any = None,
        name: Optional[str] = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined EventBase.__init__ + Engine._schedule: timeouts are the
        # single most-allocated event type (every tick, wait and deadline),
        # so the constructor avoids the two extra calls.
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        engine._push(
            (engine._now + delay, PRIORITY_NORMAL, next(engine._sequence), self)
        )

    def cancel(self) -> None:
        """Abandon the timeout before it fires (lazy deletion).

        The queue entry stays in the scheduler but never runs callbacks:
        the scheduler drops it when it surfaces or sweeps it in bulk
        during routing/resize passes, so cancelling is O(1) instead of
        an O(n) heap removal.  The cancellation is *counted eagerly* --
        ``engine.cancelled_events`` increments here, and the scheduler
        is told so its live ``len()`` stays exact.  Hot paths that arm a
        deadline per request (e.g. the decider's bounded wait for a
        grant) use this to stop abandoned deadlines from churning the
        event loop at scale.

        Only the owner of a timeout may cancel it: any callbacks already
        registered (by conditions or waiting processes) will never run.
        Cancelling twice is a no-op; cancelling an already-processed
        timeout is an error.
        """
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        if self._cancelled:
            return
        self._cancelled = True
        self.engine._note_cancelled()


class Callback(EventBase):
    """A pre-succeeded event that runs ``fn(*args)`` when processed.

    The cheap alternative to spawning a generator :class:`Process` for
    one-shot deferred work: a full process costs three queue events
    (initialize, timeout, completion) plus a generator frame, while a
    ``Callback`` is a single queue entry whose processing is one direct
    call.  Message delivery and RAPL cap enforcement -- the simulation's
    hottest paths -- run on these.  So do the long-lived actors every
    SLURM or pool request passes through (the request server, the SLURM
    client, the workload executor): each is a state machine whose steps
    are callbacks, queuing one entry where its generator version waited
    on one event -- a start hop at ``PRIORITY_URGENT``, a service, tick,
    segment or deadline -- without a generator resume per step.

    The event triggers successfully with ``None``; waiters registered via
    ``callbacks`` are notified after ``fn`` returns, so a ``Callback`` can
    still be yielded on like any other event.
    """

    __slots__ = ("_fn", "_args")

    def __init__(
        self,
        engine: "Engine",
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay!r}")
        # Inlined EventBase.__init__ + Engine._schedule (hot path, see
        # class docstring).
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._fn = fn
        self._args = args
        engine._push(
            (engine._now + delay, priority, next(engine._sequence), self)
        )

    def cancel(self) -> None:
        """Abandon the callback before it fires (lazy deletion).

        Same contract as :meth:`Timeout.cancel`: the entry is dropped
        unprocessed (at surfacing or by a bulk sweep), ``fn`` never
        runs, any waiters registered on the event are never notified,
        and the cancellation is counted eagerly.  Used by the pool's
        escrow bookkeeping, where almost every refund deadline is
        cancelled by the ack that beats it.
        """
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        if self._cancelled:
            return
        self._cancelled = True
        self.engine._note_cancelled()

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        self._fn(*self._args)
        for callback in callbacks:
            callback(self)


class FirstOf(EventBase):
    """Lean two-event ``AnyOf`` for hot wait loops.

    Triggers with ``None`` as soon as either sub-event is processed
    (failing instead when that first sub-event failed, exactly like
    :class:`AnyOf`).  Unlike a full condition there is no
    :class:`ConditionValue` snapshot: callers that only need the wake-up
    and inspect the sub-events themselves (e.g. the decider's
    grant-or-deadline wait, once per request cluster-wide) save the
    condition bookkeeping on every wait.

    When the *first* sub-event succeeds first -- a reply's hand-off --
    the waiter resumes in place instead of via a queued completion
    event, saving one queue round-trip per answered request.  Processing
    order is a function of sequence numbers assigned at creation, so the
    early resume cannot move any already-queued event, and the waiter's
    continuation is its own.  The *second* sub-event (the deadline)
    keeps the queued path: its re-enqueue with a fresh sequence number
    is what makes a timeout resolving exactly at a tick instant resume
    *after* that instant's batch (see :mod:`repro.core.batcher`), so
    catch-up ticks stay ordered behind batch ticks exactly like the
    per-node loop.  Sub-event failures also stay queued (rare, and
    failure surfacing relies on the engine's processing pass).

    Both sub-events must be unprocessed at construction.
    """

    __slots__ = ("_first",)

    def __init__(
        self, engine: "Engine", first: EventBase, second: EventBase
    ) -> None:
        if first.callbacks is None or second.callbacks is None:
            raise RuntimeError("FirstOf sub-events must be unprocessed")
        # Inlined EventBase.__init__ (hot path).
        self.engine = engine
        self.name = None
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._first = first
        first.callbacks.append(self._on_sub)
        second.callbacks.append(self._on_sub)

    def _on_sub(self, event: EventBase) -> None:
        if self._value is not _PENDING:
            # Late failures of sub-events must not be silently lost.
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif event is self._first:
            self._value = None
            callbacks, self.callbacks = self.callbacks, None
            assert callbacks is not None, "event processed twice"
            for callback in callbacks:
                callback(self)
        else:
            self.succeed(None)


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
