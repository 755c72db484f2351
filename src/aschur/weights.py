"""Weights: compositions of r into n nonnegative parts.

A Weight is the validated tuple of its parts: it equals and hashes as the
plain tuple, so a lookup by weight needs no conversion.  A weight indexes
both a Young subgroup of S_r and a weight space of tensor space.  Weights
extend periodically: entry(i) for any integer i reads the part with index
congruent to i mod n.  residue() is that reduction of an index into
{1, ..., n}, shared by every module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations


class Weight(tuple):
    """A weight, validated on construction: the tuple of its parts, so it
    equals and hashes as that plain tuple.  parts is a read-only view.

    >>> Weight((2, 0, 0)) == (2, 0, 0), Weight((2, 0, 0))
    (True, Weight(2, 0, 0))
    """

    __slots__ = ()

    def __new__(cls, parts) -> Weight:
        self = tuple.__new__(cls, parts)
        if not self:
            raise ValueError("weight needs at least one part")
        if min(self) < 0:
            raise ValueError("weight parts must be nonnegative")
        return self

    parts = property(tuple)
    n = property(len)
    r = property(sum)

    def entry(self, i: int) -> int:
        """Periodic entry: lambda_i for any integer i (1-based)."""
        return self[(i - 1) % len(self)]

    def plus_alpha(self, i: int, c: int = 1) -> Weight | None:
        """lambda + c*alpha_i, or None if a part would go negative."""
        parts = plus_alpha_parts(self, i, c)
        return None if min(parts) < 0 else Weight(parts)

    def rotated(self) -> Weight:
        """lambda_+ = (lambda_n, lambda_1, ..., lambda_{n-1})."""
        return Weight(self[-1:] + self[:-1])

    def render(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"

    def __repr__(self) -> str:
        return f"Weight{tuple(self)}"


def residue(t: int, m: int) -> int:
    """Residue of t mod m, in {1, ..., m}.

    >>> residue(0, 3), residue(4, 3)
    (3, 1)
    """
    return (t - 1) % m + 1


def plus_alpha_parts(parts: tuple[int, ...], i: int, c: int = 1) -> tuple[int, ...]:
    """parts + c*alpha_i on raw parts, which may go negative: c added to
    entry i and taken from entry i + 1, both read periodically.

    >>> plus_alpha_parts((1, 0, 1), 3, 2)
    (-1, 0, 3)
    """
    n = len(parts)
    out = list(parts)
    out[(i - 1) % n] += c
    out[i % n] -= c
    return tuple(out)


def omega(n: int, r: int) -> Weight:
    """(1, ..., 1, 0, ..., 0) with r ones; needs n >= r."""
    if n < r:
        raise ValueError("omega requires n >= r")
    return Weight((1,) * r + (0,) * (n - r))


@lru_cache(maxsize=None)
def all_weights(n: int, r: int) -> tuple[Weight, ...]:
    """All compositions of r into n nonnegative parts, lexicographic.

    >>> len(all_weights(3, 2))
    6
    """
    out = []
    for cuts in combinations(range(r + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(r + n - 2 - prev)
        out.append(Weight(parts))
    return tuple(sorted(out, reverse=True))


def parse_weight(text: str) -> Weight:
    text = text.strip().strip("()")
    return Weight(int(x) for x in text.split(","))
