"""R6 fixture: registrations carrying a deterministic tiebreak key."""

from repro.sim.events import EventBase, Handle


def good_constant_key(engine, deliver, message) -> None:
    # Hot paths pass a cheap constant, not a per-event f-string.
    engine.call_later(0.1, deliver, message, name="net.deliver")


def good_cancellable(engine, expire, grant_id: int) -> Handle:
    return engine.call_cancellable(5.0, expire, grant_id, name="pool.escrow")


def good_call_later(engine, enforce) -> None:
    engine.call_later(0.5, enforce, name="rapl.enforce")


def events_exempt(engine) -> EventBase:
    return engine.event().succeed(delay=1.0)  # events are values, not registrations
