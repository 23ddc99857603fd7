"""R6 fixture: anonymous callback registrations."""

from repro.sim.events import Handle


def bad_direct(engine, deliver, message) -> Handle:
    return engine.call_cancellable(0.1, deliver, message)  # line 7: R6


def bad_call_later(engine, enforce) -> None:
    engine.call_later(0.5, enforce)  # line 11: R6
