"""Typed messages exchanged by deciders, pools and the central server.

All power-management traffic in both Penelope and the SLURM-style manager
is expressed with these four message types:

* :class:`PowerRequest` -- a power-hungry decider asking a pool/server for
  power; carries the urgency flag and, when urgent, the amount ``alpha``
  needed to return to the initial cap (Algorithm 1).
* :class:`PowerGrant` -- the response carrying the granted amount ``delta``
  (Algorithm 2).
* :class:`GrantAck` -- the requester's receipt for a :class:`PowerGrant`;
  settles the donor pool's escrow entry so unacknowledged grants can be
  refunded instead of leaking (fault-tolerant transfer).
* :class:`ExcessReport` -- a decider depositing freed power (SLURM clients
  report excess to the server; in Penelope deposits are local and need no
  message).
* :class:`ReleaseDirective` -- the centralized-urgency signal with which
  SLURM's server induces non-urgent clients to release power down to their
  initial cap (§4.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Type, TypeVar

_MESSAGE_COUNTER = itertools.count(1)

_MessageT = TypeVar("_MessageT", bound="Message")


def next_message_id() -> int:
    """A process-unique, monotonically increasing message id."""
    return next(_MESSAGE_COUNTER)


class Addr(NamedTuple):
    """A network endpoint: a (node, port) pair.

    A node hosts several logical endpoints -- e.g. a Penelope node runs a
    local decider and a power pool, each with its own inbox -- so messages
    are addressed to ``Addr(node_id, port_name)``.
    """

    node: int
    port: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.node}:{self.port}"


#: Conventional port names.
PORT_DECIDER = "decider"
PORT_POOL = "pool"
PORT_SERVER = "server"
PORT_MEMBERSHIP = "membership"

#: Membership status values carried by :class:`MembershipUpdate` (defined
#: here, next to the payload type, so the pool/decider integrations never
#: need a runtime import of :mod:`repro.membership`).
MEMBER_ALIVE = "alive"
MEMBER_SUSPECT = "suspect"
MEMBER_DEAD = "dead"


@dataclass(frozen=True, slots=True)
class MembershipUpdate:
    """One gossiped membership fact: ``node`` is ``status`` at ``incarnation``.

    The payload unit of the SWIM-style failure detector
    (:mod:`repro.membership`).  Updates ride as piggyback on any message
    (the ``gossip`` field of :class:`Message`) and inside dedicated
    gossip messages; receivers merge them into their local view under
    the incarnation-precedence rules documented in
    ``docs/ARCHITECTURE.md``.  ``status`` is one of ``"alive"``,
    ``"suspect"`` or ``"dead"``; ``incarnation`` is the subject's
    self-owned epoch counter (only the subject itself ever bumps it, by
    refuting a suspicion or rejoining).
    """

    node: int
    status: str
    incarnation: int


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all network messages.

    Messages are immutable value objects (``frozen=True``, enforced
    statically by lint rule R4): once constructed, the sender's copy can
    never change under the feet of whoever holds a reference.  That is
    what lets :meth:`repro.net.network.Network.send` deliver the
    sender's instance itself, with no in-flight copy.

    Attributes
    ----------
    src, dst:
        Endpoint addresses (:class:`Addr`).
    msg_id:
        Unique id, used to correlate requests and replies.
    gossip:
        Optional piggybacked membership updates (empty unless the
        sender's failure detector has pending dissemination).  Senders
        stamp the payload onto an already-built message with
        :meth:`with_gossip`, a fresh copy with the same ``msg_id``, so
        request/reply correlation is unaffected and lint R4's
        immutability contract holds.
    """

    src: Addr
    dst: Addr
    msg_id: int = field(default_factory=next_message_id)
    gossip: Tuple[MembershipUpdate, ...] = ()

    @property
    def kind(self) -> str:
        return type(self).__name__

    def with_gossip(
        self: _MessageT, gossip: Tuple[MembershipUpdate, ...]
    ) -> _MessageT:
        """This message carrying ``gossip`` as its piggyback payload.

        Semantically ``dataclasses.replace(self, gossip=...)`` (same
        ``msg_id``, all other fields shared), minus the per-call field
        introspection and re-validation: the failure detector stamps
        gossip onto a large share of all outgoing traffic in membership
        runs.  The copy is fully built before anyone holds a reference,
        so R4's sharing invariant (no observable post-construction
        mutation) holds.
        """
        cls = type(self)
        names = _STAMP_FIELDS.get(cls)
        if names is None:
            names = tuple(f.name for f in fields(cls))
            _STAMP_FIELDS[cls] = names
        twin = cls.__new__(cls)
        for name in names:
            object.__setattr__(twin, name, getattr(self, name))
        object.__setattr__(twin, "gossip", gossip)
        return twin


#: Per-class field-name cache backing :meth:`Message.with_gossip`.
_STAMP_FIELDS: Dict[Type["Message"], Tuple[str, ...]] = {}


@dataclass(frozen=True, slots=True)
class PowerRequest(Message):
    """Ask ``dst`` for power.

    ``urgent`` requests bypass the pool's transaction-size limit and carry
    ``alpha`` -- the wattage needed for the requester to return to its
    initial cap.
    """

    urgent: bool = False
    alpha: float = 0.0
    #: The requester's decider-iteration index, for diagnostics.
    iteration: int = -1

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha!r}")
        if not self.urgent and self.alpha != 0.0:
            raise ValueError("alpha is only meaningful on urgent requests")


@dataclass(frozen=True, slots=True)
class PowerGrant(Message):
    """Reply to a :class:`PowerRequest` carrying ``delta`` watts."""

    delta: float = 0.0
    reply_to: Optional[int] = None
    #: True if the grant answers an urgent request (diagnostics only).
    urgent: bool = False

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta!r}")


@dataclass(frozen=True, slots=True)
class GrantAck(Message):
    """Acknowledge receipt of a :class:`PowerGrant`.

    ``reply_to`` is the grant's ``msg_id``; ``delta`` echoes the granted
    watts (diagnostics -- the pool's escrow entry is keyed by id alone).
    The donor pool holds every positive grant in escrow until this ack
    arrives; an escrow whose deadline passes unacked is refunded into the
    donor pool, so a grant dropped in flight never destroys budget.
    """

    reply_to: Optional[int] = None
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta!r}")


@dataclass(frozen=True, slots=True)
class ExcessReport(Message):
    """Deposit ``delta`` watts of freed power with ``dst`` (SLURM server)."""

    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError(f"excess must be positive, got {self.delta!r}")


@dataclass(frozen=True, slots=True)
class ReleaseDirective(Message):
    """Centralized urgency: server tells ``dst`` to fall back to its
    initial cap and surrender the excess."""

    #: Id of the urgent node on whose behalf the directive was issued
    #: (diagnostics only).
    on_behalf_of: int = -1


# -- positional builders ---------------------------------------------------------
#
# Every request, grant, ack and excess report of a run is built on a hot
# path.  The dataclass ``__init__`` binds keyword arguments, calls the
# ``msg_id`` default factory and stores each field through
# ``object.__setattr__`` (the frozen path), ~3 us per message; these
# builders store the slots through their descriptors instead, at about a
# third of that.  The result is the same frozen instance: ``msg_id`` is
# drawn from the same counter at the same point, ``gossip`` is empty and
# the class's ``__post_init__`` checks still run.

_new_message = object.__new__


def _slot_setters(cls: type, names: str) -> Tuple[Callable[[Any, Any], None], ...]:
    return tuple(getattr(cls, name).__set__ for name in names.split())


_SET_SRC, _SET_DST, _SET_MSG_ID, _SET_GOSSIP = _slot_setters(
    Message, "src dst msg_id gossip"
)
_REQUEST_URGENT, _REQUEST_ALPHA, _REQUEST_ITERATION = _slot_setters(
    PowerRequest, "urgent alpha iteration"
)
_GRANT_DELTA, _GRANT_REPLY_TO, _GRANT_URGENT = _slot_setters(
    PowerGrant, "delta reply_to urgent"
)
_ACK_REPLY_TO, _ACK_DELTA = _slot_setters(GrantAck, "reply_to delta")
(_EXCESS_DELTA,) = _slot_setters(ExcessReport, "delta")
_UPDATE_NODE, _UPDATE_STATUS, _UPDATE_INCARNATION = _slot_setters(
    MembershipUpdate, "node status incarnation"
)


def power_request(
    src: Addr, dst: Addr, urgent: bool, alpha: float, iteration: int
) -> PowerRequest:
    """``PowerRequest(src=src, dst=dst, urgent=urgent, alpha=alpha,
    iteration=iteration)``, built positionally."""
    message: PowerRequest = _new_message(PowerRequest)
    _SET_SRC(message, src)
    _SET_DST(message, dst)
    _SET_MSG_ID(message, next(_MESSAGE_COUNTER))
    _SET_GOSSIP(message, ())
    _REQUEST_URGENT(message, urgent)
    _REQUEST_ALPHA(message, alpha)
    _REQUEST_ITERATION(message, iteration)
    message.__post_init__()
    return message


def power_grant(
    src: Addr, dst: Addr, delta: float, reply_to: Optional[int], urgent: bool
) -> PowerGrant:
    """``PowerGrant(src=src, dst=dst, delta=delta, reply_to=reply_to,
    urgent=urgent)``, built positionally."""
    message: PowerGrant = _new_message(PowerGrant)
    _SET_SRC(message, src)
    _SET_DST(message, dst)
    _SET_MSG_ID(message, next(_MESSAGE_COUNTER))
    _SET_GOSSIP(message, ())
    _GRANT_DELTA(message, delta)
    _GRANT_REPLY_TO(message, reply_to)
    _GRANT_URGENT(message, urgent)
    message.__post_init__()
    return message


def grant_ack(src: Addr, dst: Addr, reply_to: Optional[int], delta: float) -> GrantAck:
    """``GrantAck(src=src, dst=dst, reply_to=reply_to, delta=delta)``,
    built positionally."""
    message: GrantAck = _new_message(GrantAck)
    _SET_SRC(message, src)
    _SET_DST(message, dst)
    _SET_MSG_ID(message, next(_MESSAGE_COUNTER))
    _SET_GOSSIP(message, ())
    _ACK_REPLY_TO(message, reply_to)
    _ACK_DELTA(message, delta)
    message.__post_init__()
    return message


def excess_report(src: Addr, dst: Addr, delta: float) -> ExcessReport:
    """``ExcessReport(src=src, dst=dst, delta=delta)``, built positionally."""
    message: ExcessReport = _new_message(ExcessReport)
    _SET_SRC(message, src)
    _SET_DST(message, dst)
    _SET_MSG_ID(message, next(_MESSAGE_COUNTER))
    _SET_GOSSIP(message, ())
    _EXCESS_DELTA(message, delta)
    message.__post_init__()
    return message


def membership_update(node: int, status: str, incarnation: int) -> MembershipUpdate:
    """``MembershipUpdate(node, status, incarnation)``, built positionally
    (every gossip selection builds a few)."""
    update: MembershipUpdate = _new_message(MembershipUpdate)
    _UPDATE_NODE(update, node)
    _UPDATE_STATUS(update, status)
    _UPDATE_INCARNATION(update, incarnation)
    return update


__all__ = [
    "Addr",
    "ExcessReport",
    "GrantAck",
    "MEMBER_ALIVE",
    "MEMBER_DEAD",
    "MEMBER_SUSPECT",
    "MembershipUpdate",
    "Message",
    "PORT_DECIDER",
    "PORT_MEMBERSHIP",
    "PORT_POOL",
    "PORT_SERVER",
    "PowerGrant",
    "PowerRequest",
    "ReleaseDirective",
    "excess_report",
    "grant_ack",
    "membership_update",
    "next_message_id",
    "power_grant",
    "power_request",
]
