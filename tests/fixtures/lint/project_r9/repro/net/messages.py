"""Fixture protocol surface: live, orphaned and dead types."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Message:
    src: int = 0
    dst: int = 0

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Ping(Message):
    """Sent and isinstance-handled: fully live."""


@dataclass(frozen=True)
class Pong(Message):
    """Sent and kind-literal-handled: fully live."""


@dataclass(frozen=True)
class Orphan(Message):
    """Sent but never dispatched anywhere."""


@dataclass(frozen=True)
class Ghost(Message):
    """Dispatched but never constructed."""


@dataclass(frozen=True)
class Raw(Message):
    """Sent and isinstance-handled: fully live."""
