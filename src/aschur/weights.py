"""Weights: compositions of r into n nonnegative parts.

A weight indexes both a Young subgroup of S_r and a weight space of
tensor space.  Weights extend periodically: entry(i) for any integer i
reads the part with index congruent to i mod n.  residue() is that
reduction of an index into {1, ..., n}, shared by every module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations


@dataclass(frozen=True)
class Weight:
    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("weight needs at least one part")
        if any(p < 0 for p in self.parts):
            raise ValueError("weight parts must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def r(self) -> int:
        return sum(self.parts)

    def entry(self, i: int) -> int:
        """Periodic entry: lambda_i for any integer i (1-based)."""
        return self.parts[(i - 1) % self.n]

    def plus_alpha(self, i: int, c: int = 1) -> Weight | None:
        """lambda + c*alpha_i, or None if a part would go negative."""
        parts = plus_alpha_parts(self.parts, i, c)
        return None if min(parts) < 0 else Weight(parts)

    def rotated(self) -> Weight:
        """lambda_+ = (lambda_n, lambda_1, ..., lambda_{n-1})."""
        return Weight((self.parts[-1],) + self.parts[:-1])

    def render(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"Weight{self.parts}"


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
        out.append(Weight(tuple(parts)))
    return tuple(sorted(out, key=lambda w: w.parts, reverse=True))


def parse_weight(text: str) -> Weight:
    text = text.strip().strip("()")
    return Weight(tuple(int(x) for x in text.split(",")))
