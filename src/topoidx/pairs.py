"""A read-only sequence of pairs held as two columns.

A graph's edges and a polynomial's canonical terms are both long runs of
pairs.  Held as two tuples, one for each side, they cost two pointers per
pair instead of a 2-tuple object each (56 bytes on CPython).
"""

from __future__ import annotations

from collections.abc import Sequence


class Pairs(Sequence):
    """Pairs (``firsts[i]``, ``seconds[i]``), held as two equal-length tuples.

    It reads as the tuple of its pairs would: iteration and indexing make
    each pair tuple on demand, and it equals that tuple.  It is not hashable;
    its owner hashes the columns.
    """

    __slots__ = ("firsts", "seconds")

    def __init__(self, firsts: tuple, seconds: tuple):
        object.__setattr__(self, "firsts", firsts)
        object.__setattr__(self, "seconds", seconds)

    def __setattr__(self, name, value):
        raise AttributeError("Pairs is immutable")

    def __reduce__(self):
        return Pairs, (self.firsts, self.seconds)

    def __len__(self) -> int:
        return len(self.firsts)

    def __iter__(self):
        return zip(self.firsts, self.seconds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Pairs(self.firsts[index], self.seconds[index])
        return self.firsts[index], self.seconds[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Pairs):
            return self.firsts == other.firsts and self.seconds == other.seconds
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Pairs({tuple(self)!r})"
