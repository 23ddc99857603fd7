"""Generator-based simulation processes with interrupt support.

A process wraps a Python generator that ``yield``-s events.  Each time a
yielded event is processed, the engine resumes the generator, sending the
event's value in (or throwing its exception).  A process is itself an event
that triggers when the generator finishes, so processes can wait on each
other.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PRIORITY_URGENT, _PENDING, EventBase

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The cause object passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class _Initialize(EventBase):
    """Internal event that starts a freshly created process.

    :class:`Process` builds it in place (no ``__init__`` call): a
    10 000-node universe starts 30 000 processes, and request/response
    protocols spawn them freely.
    """

    __slots__ = ()


_new_initialize = object.__new__


class _Interruption(EventBase):
    """Internal event carrying an :class:`Interrupt` into a process.

    It is delivered in place, at construction: a queued delivery would
    be a same-instant urgent hop whose only effect is deferring the
    resume behind other urgent events created in the same processing
    step, and every interrupted body (a stopped daemon's teardown) is
    node-local, so the earlier resume changes no cross-node ordering.
    """

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any) -> None:
        if process.processed:
            raise RuntimeError(f"{process!r} has already terminated")
        if process.is_initializing:
            raise RuntimeError(f"{process!r} has not started yet")
        if process._generator.gi_running:
            raise RuntimeError(f"{process!r} cannot interrupt itself")
        # Inlined EventBase.__init__ (every stop of a daemon process
        # interrupts it).
        self.engine = process.engine
        self.name = None
        self.callbacks = None
        self._value = Interrupt(cause)
        self._ok = False
        self._defused = True
        # Detach the process from whatever it was waiting on ...
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        process._target = None
        # ... and resume it with the failure.
        process._resume(self)


class Process(EventBase):
    """A running simulation activity driven by a generator.

    Triggers (as an event) with the generator's return value when it
    completes, or fails with the escaping exception.
    """

    __slots__ = ("_generator", "_target")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[EventBase, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"{generator!r} is not a generator")
        # Inlined EventBase.__init__, and the _Initialize event built and
        # scheduled in place (see _Initialize).
        self.engine = engine
        self.name = name or getattr(generator, "__name__", None)
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        initialize = _new_initialize(_Initialize)
        initialize.engine = engine
        initialize.name = None
        initialize.callbacks = [self._resume]
        initialize._value = None
        initialize._ok = True
        initialize._defused = False
        engine._push((engine.now, PRIORITY_URGENT, next(engine._sequence), initialize, ()))
        #: The event this process is currently waiting on (None while
        #: executing).  Before the first resume it is the initialize event.
        self._target: Optional[EventBase] = initialize

    # -- inspection --------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True until the generator has finished."""
        return not self.triggered

    @property
    def is_initializing(self) -> bool:
        """True before the generator's first resume."""
        if self.triggered:
            return False
        # Structural check instead of inspect.getgeneratorstate(): the
        # target is the _Initialize event exactly until the first resume
        # (interrupt() consults this on a hot path).
        return type(self._target) is _Initialize

    @property
    def target(self) -> Optional[EventBase]:
        """The event the process is currently waiting on, if any."""
        return self._target

    # -- control ------------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process runs up to its next ``yield`` (or its end) before this
        call returns.  It is detached from whatever event it was waiting
        on; that event remains valid and may still fire later (its value
        is then simply not delivered to this process).  A process cannot
        interrupt itself.
        """
        _Interruption(self, cause)

    def cancel(self) -> None:
        """Abort a process that has not executed its first step yet.

        Complements :meth:`interrupt`, which cannot target an
        uninitialized process (there is no frame to throw into).  The
        generator is closed unexecuted and the process succeeds with
        ``None``.
        """
        if not self.is_initializing:
            raise RuntimeError(f"{self!r} already started; use interrupt()")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self._generator.close()
        self.succeed(None)

    # -- engine interface -----------------------------------------------------

    def _resume(self, event: EventBase) -> None:
        """Advance the generator with ``event``'s outcome."""
        self._target = None
        engine = self.engine
        generator = self._generator
        engine._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The failure is being delivered: it will surface inside
                    # the process, so it no longer needs top-level handling.
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                engine._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                engine._active_process = None
                self.fail(exc)
                return

            if not isinstance(next_event, EventBase):
                engine._active_process = None
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.fail(error)
                return
            if next_event.engine is not engine:
                engine._active_process = None
                self.fail(RuntimeError("yielded event belongs to a different engine"))
                return

            if next_event.callbacks is not None:
                # Still pending (or triggered but unprocessed): wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: loop and deliver its value immediately.
            event = next_event
        engine._active_process = None
