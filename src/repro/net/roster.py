"""The cluster roster, shared by every node's agents.

Penelope's decider picks a peer uniformly at random from "the other
nodes" (§3.1), and the failure detector probes them all in rotation.  A
real daemon keeps its own peer list; a simulator running every node in
one process must not, or N nodes hold N copies of an N-entry list.

:class:`Roster` is the member list built once per universe: an immutable
tuple plus a position index.  :meth:`Roster.without` hands each node a
constant-size :class:`RosterView` -- "the roster minus me" -- that
behaves like ``[p for p in roster if p != me]`` (same order, same
length, same indices) without copying anything.
"""

from __future__ import annotations

import operator
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union, overload

__all__ = ["Roster", "RosterView", "roster_of"]


class Roster(Sequence[int]):
    """An ordered, duplicate-free member list, built once and shared.

    Raises ``ValueError`` on duplicate ids: a roster names each node
    once, which is what lets a view skip exactly one position.
    """

    __slots__ = ("members", "_positions", "_ascending")

    def __init__(self, members: Iterable[int]) -> None:
        self.members: Tuple[int, ...] = tuple(members)
        self._positions: Dict[object, int] = {m: i for i, m in enumerate(self.members)}
        if len(self._positions) != len(self.members):
            raise ValueError("roster members must be unique")
        self._ascending: Optional[Roster] = None

    def __len__(self) -> int:
        return len(self.members)

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[int, ...]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, Tuple[int, ...]]:
        return self.members[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, value: object) -> bool:
        return value in self._positions

    def __repr__(self) -> str:
        return f"Roster({list(self.members)!r})"

    @property
    def positions(self) -> Mapping[object, int]:
        """Member id -> position, built once and shared by every view of
        this roster (read-only)."""
        return self._positions

    def without(self, member: int) -> "RosterView":
        """Every member except ``member`` (all of them if it is absent)."""
        return RosterView(self, self._positions.get(member, len(self.members)))

    def ascending(self) -> "Roster":
        """This roster in ascending id order (``self`` if already sorted).

        Built on first use and cached, so every node's failure detector
        shares one sorted roster.
        """
        cached = self._ascending
        if cached is None:
            ordered = tuple(sorted(self.members))
            cached = self if ordered == self.members else Roster(ordered)
            self._ascending = cached
        return cached


def roster_of(members: Sequence[int]) -> Roster:
    """``members`` itself when it already is a :class:`Roster`, else a new one."""
    return members if isinstance(members, Roster) else Roster(members)


class RosterView(Sequence[int]):
    """A roster with one position skipped, in O(1) memory.

    Equal, element for element, to ``[p for p in roster if p !=
    member]``: indexing (negative indices included), iteration,
    ``len``, ``in`` and truthiness all match, so a seeded draw of
    ``view[rng.integers(0, len(view))]`` picks the peer the copied list
    did.
    """

    __slots__ = ("roster", "_members", "_positions", "_skip", "_len")

    def __init__(self, roster: Roster, skip: int) -> None:
        self.roster = roster
        self._members = roster.members
        self._positions = roster._positions
        #: Position of the excluded member; ``len(roster)`` when it is
        #: absent, which no valid index reaches.
        self._skip = skip
        self._len = len(self._members) - (skip < len(self._members))

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[int, ...]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, Tuple[int, ...]]:
        if isinstance(index, slice):
            return tuple(self)[index]
        i = operator.index(index)
        if i < 0:
            i += self._len
            if i < 0:
                raise IndexError("roster view index out of range")
        elif i >= self._len:
            raise IndexError("roster view index out of range")
        if i >= self._skip:
            i += 1
        return self._members[i]

    def __iter__(self) -> Iterator[int]:
        members = self._members
        skip = self._skip
        return chain(islice(members, skip), islice(members, skip + 1, None))

    def __contains__(self, value: object) -> bool:
        position = self._positions.get(value)
        return position is not None and position != self._skip

    def __repr__(self) -> str:
        return f"RosterView({list(self)!r})"
