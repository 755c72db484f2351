"""The extended affine Weyl group of type A as periodic permutations of ZZ.

Elements act on the *right* of integers: (t)w, and products compose left to
right, (t)(uv) = ((t)u)v.  The affine Weyl group W on generators
s_1, ..., s_r consists of the bijections w of ZZ with

    (t + r)w = (t)w + r      and      sum_{t=1..r} (t)w = r(r+1)/2,

and the extended group adds the rotation rho: t -> t + 1.  Every element
is uniquely rho^z * w with w in W; we store that pair, with w recorded by
its window ((1)w, ..., (r)w).

Length ignores the rho part.  It is computed by the inversion formula

    l(w) = sum_{1 <= i < j <= r} |floor(((j)w - (i)w) / r)|

which the test suite validates exhaustively against a breadth-first
word-length oracle before anything downstream relies on it.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal

from .weights import residue

DEFAULT_LENGTH_BOUND = 8
_LENGTH_BOUND_ENV = "ASCHUR_MAX_LENGTH"


def enumeration_length_bound() -> int:
    return int(os.environ.get(_LENGTH_BOUND_ENV, DEFAULT_LENGTH_BOUND))


@dataclass(frozen=True)
class ParabolicIndex:
    """A proper subset of the generator indices {1, ..., r}."""

    r: int
    gens: frozenset[int]

    def __post_init__(self):
        if not all(1 <= i <= self.r for i in self.gens):
            raise ValueError("generator indices must lie in 1..r")
        if len(self.gens) >= self.r:
            raise ValueError("parabolic index must be a proper subset")

    @classmethod
    def make(cls, r: int, gens: Iterable[int]) -> ParabolicIndex:
        return cls(r, frozenset(gens))

    def shifted(self, t: int) -> ParabolicIndex:
        """Indices shifted by t, reduced mod r into {1..r}."""
        return ParabolicIndex(self.r, frozenset(residue(i + t, self.r) for i in self.gens))


@dataclass(frozen=True)
class AffinePerm:
    """rho^z * w with w in W given by its window ((1)w, ..., (r)w).

    >>> AffinePerm.s(3, 1).window
    (2, 1, 3)
    >>> AffinePerm.rho(3).apply(5)
    6
    """

    r: int
    z: int
    window: tuple[int, ...]

    def __post_init__(self):
        r = self.r
        if len(self.window) != r:
            raise ValueError("window must have r entries")
        if len({w % r for w in self.window}) != r:
            raise ValueError("window entries must be distinct mod r")
        if sum(self.window) != r * (r + 1) // 2:
            raise ValueError("window must sum to r(r+1)/2")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, r: int) -> AffinePerm:
        return cls(r, 0, tuple(range(1, r + 1)))

    @classmethod
    def s(cls, r: int, i: int) -> AffinePerm:
        """The Coxeter generator s_i, 1 <= i <= r."""
        if not 1 <= i <= r:
            raise ValueError("generator index out of range")
        win = []
        for t in range(1, r + 1):
            b = residue(t, r)
            if b == residue(i, r):
                win.append(t + 1)
            elif b == residue(i + 1, r):
                win.append(t - 1)
            else:
                win.append(t)
        return cls(r, 0, tuple(win))

    @classmethod
    def rho(cls, r: int, power: int = 1) -> AffinePerm:
        return cls(r, power, tuple(range(1, r + 1)))

    @classmethod
    def from_images(cls, r: int, images: Iterable[int]) -> AffinePerm:
        """Build from the images (1)u, ..., (r)u of the full permutation.

        >>> AffinePerm.from_images(3, [2, 3, 4]) == AffinePerm.rho(3)
        True
        """
        images = tuple(images)
        if len(images) != r:
            raise ValueError("need exactly r images")
        if len({x % r for x in images}) != r:
            raise ValueError("images must be distinct mod r")
        base = r * (r + 1) // 2
        total = sum(images)
        if (total - base) % r:
            raise ValueError("image sum must be congruent to r(r+1)/2 mod r")
        z = (total - base) // r
        # (i)w = (i - z)u, extended periodically from the given window.
        win = []
        for i in range(1, r + 1):
            t = i - z
            t0 = residue(t, r)
            win.append(images[t0 - 1] + (t - t0))
        return cls(r, z, tuple(win))

    # -- the permutation -----------------------------------------------------

    def apply(self, t: int) -> int:
        """(t)u for u = rho^z w: shift by z, then apply w periodically."""
        s = t + self.z
        s0 = residue(s, self.r)
        return self.window[s0 - 1] + (s - s0)

    def images(self) -> tuple[int, ...]:
        return tuple(self.apply(t) for t in range(1, self.r + 1))

    def __mul__(self, other: AffinePerm) -> AffinePerm:
        if self.r != other.r:
            raise ValueError("period mismatch")
        return AffinePerm.from_images(
            self.r, (other.apply(self.apply(t)) for t in range(1, self.r + 1))
        )

    def inverse(self) -> AffinePerm:
        imgs = [0] * self.r
        for j in range(1, self.r + 1):
            m = self.apply(j)
            m0 = residue(m, self.r)
            imgs[m0 - 1] = j + (m0 - m)
        return AffinePerm.from_images(self.r, imgs)

    def is_identity(self) -> bool:
        return self.z == 0 and self.window == tuple(range(1, self.r + 1))

    def is_finite(self) -> bool:
        """Membership in the finite symmetric group <s_1, ..., s_{r-1}>."""
        return self.z == 0 and all(1 <= x <= self.r for x in self.window)

    # -- cheap one-sided multiplications ---------------------------------------

    def mul_gen_right(self, i: int) -> AffinePerm:
        """u * s_i without renormalization (acts on window values)."""
        r = self.r
        bi, bi1 = residue(i, r), residue(i + 1, r)
        win = []
        for x in self.window:
            b = residue(x, r)
            if b == bi:
                win.append(x + 1)
            elif b == bi1:
                win.append(x - 1)
            else:
                win.append(x)
        return AffinePerm(r, self.z, tuple(win))

    def mul_gen_left(self, i: int) -> AffinePerm:
        """s_i * u; shifts the index across the rho part."""
        r = self.r
        j = residue(i + self.z, r)
        win = list(self.window)
        # s_j w swaps the arguments in residue classes j and j+1.
        j1 = residue(j + 1, r)
        if j1 == j + 1:
            win[j - 1], win[j1 - 1] = win[j1 - 1], win[j - 1]
        else:
            # wrap: arguments r and r+1; (r+1)w = (1)w + r.
            win[j - 1], win[j1 - 1] = win[j1 - 1] + r, win[j - 1] - r
        return AffinePerm(r, self.z, tuple(win))

    def mul_rho_right(self, k: int = 1) -> AffinePerm:
        """u * rho^k = rho^(z+k) * (rho^-k w rho^k)."""
        r = self.r
        win = []
        for t in range(1, r + 1):
            s = t - k
            s0 = residue(s, r)
            win.append(self.window[s0 - 1] + (s - s0) + k)
        return AffinePerm(r, self.z + k, tuple(win))

    def mul_rho_left(self, k: int = 1) -> AffinePerm:
        return AffinePerm(self.r, self.z + k, self.window)

    # -- length and words -----------------------------------------------------

    def length(self) -> int:
        """Coxeter length of the W part (the rho power is free)."""
        return _window_length(self.window)

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word for the W part, by greedy left descent stripping.

        The letters multiply left-to-right to the W part:
        s_{i_1} * ... * s_{i_m} = w.  Ties break to the smallest index.
        """
        return _window_reduced(self.window)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        return f"rho^{self.z} * [{','.join(str(x) for x in self.window)}]"

    def structured(self) -> dict:
        return {"r": self.r, "z": self.z, "window": list(self.window)}

    @classmethod
    def parse(cls, text: str) -> AffinePerm:
        """Parse 'rho^z * [w1,...,wr]' or a bare '[w1,...,wr]' window.

        >>> AffinePerm.parse("rho^1 * [1,2,3]") == AffinePerm.rho(3)
        True
        """
        text = text.strip()
        m = re.fullmatch(r"(?:rho\^(-?\d+)\s*\*\s*)?\[([-\d,\s]+)\]", text)
        if not m:
            raise ValueError(f"cannot parse affine permutation: {text!r}")
        z = int(m.group(1)) if m.group(1) else 0
        window = tuple(int(x) for x in m.group(2).split(","))
        return cls(len(window), z, window)

    def __repr__(self) -> str:
        return f"AffinePerm({self.render()!r})"


@lru_cache(maxsize=None)
def _window_length(window: tuple[int, ...]) -> int:
    r = len(window)
    total = 0
    for i in range(r):
        for j in range(i + 1, r):
            total += abs((window[j] - window[i]) // r)
    return total


@lru_cache(maxsize=None)
def _window_reduced(window: tuple[int, ...]) -> tuple[int, ...]:
    r = len(window)
    u = AffinePerm(r, 0, window)
    word: list[int] = []
    cur = u.length()
    while cur > 0:
        for i in range(1, r + 1):
            cand = u.mul_gen_left(i)
            lc = cand.length()
            if lc < cur:
                word.append(i)
                u, cur = cand, lc
                break
        else:
            raise AssertionError("no descent found on a non-identity element")
    return tuple(word)


# -- descents and distinguished representatives --------------------------------


def has_left_descent(u: AffinePerm, i: int) -> bool:
    return u.mul_gen_left(i).length() < u.length()


def has_right_descent(u: AffinePerm, i: int) -> bool:
    return u.mul_gen_right(i).length() < u.length()


def is_distinguished_right(d: AffinePerm, pi: ParabolicIndex) -> bool:
    """d minimal in its right coset W_pi d: no s in pi descends on the left."""
    return not any(has_left_descent(d, i) for i in pi.gens)


def is_distinguished_left(d: AffinePerm, pi: ParabolicIndex) -> bool:
    """d minimal in its left coset d W_pi: no s in pi descends on the right."""
    return not any(has_right_descent(d, i) for i in pi.gens)


def is_double_coset_min(d: AffinePerm, pi1: ParabolicIndex, pi2: ParabolicIndex) -> bool:
    return is_distinguished_right(d, pi1) and is_distinguished_left(d, pi2)


def coset_decompose(
    w: AffinePerm, pi: ParabolicIndex, side: Literal["left", "right"] = "left"
) -> tuple[AffinePerm, AffinePerm]:
    """Split w into a parabolic part and a distinguished part.

    side='left' returns (a, d) with w = a*d, a in W_pi, d minimal in W_pi d.
    side='right' returns (a, d) with w = d*a, a in W_pi, d minimal in d W_pi.
    Lengths are additive in both cases.
    """
    par = AffinePerm.identity(w.r)
    d = w
    changed = True
    while changed:
        changed = False
        for i in pi.gens:
            if side == "left":
                if has_left_descent(d, i):
                    par = par.mul_gen_right(i)
                    d = d.mul_gen_left(i)
                    changed = True
                    break
            else:
                if has_right_descent(d, i):
                    par = par.mul_gen_left(i)
                    d = d.mul_gen_right(i)
                    changed = True
                    break
    return par, d


def double_coset_min(w: AffinePerm, pi1: ParabolicIndex, pi2: ParabolicIndex) -> AffinePerm:
    """The minimal-length element of W_pi1 w W_pi2."""
    d = w
    changed = True
    while changed:
        changed = False
        for i in pi1.gens:
            if has_left_descent(d, i):
                d = d.mul_gen_left(i)
                changed = True
                break
        else:
            for i in pi2.gens:
                if has_right_descent(d, i):
                    d = d.mul_gen_right(i)
                    changed = True
                    break
    return d


# -- enumeration ----------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_parabolic(pi: ParabolicIndex) -> frozenset[AffinePerm]:
    """All elements of the (finite) parabolic subgroup W_pi (cached).

    >>> len(enumerate_parabolic(ParabolicIndex.make(3, [1])))
    2
    """
    seen = {AffinePerm.identity(pi.r)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for i in pi.gens:
                v = u.mul_gen_right(i)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


@lru_cache(maxsize=None)
def enumerate_double_coset(
    pi1: ParabolicIndex, d: AffinePerm, pi2: ParabolicIndex
) -> frozenset[AffinePerm]:
    """The finite set W_pi1 * d * W_pi2 (cached)."""
    left = enumerate_parabolic(pi1)
    right = enumerate_parabolic(pi2)
    out: set[AffinePerm] = set()
    for a in left:
        ad = a * d
        for b in right:
            out.add(ad * b)
    return frozenset(map(_shared, out))


@lru_cache(maxsize=None)
def _shared(w: AffinePerm) -> AffinePerm:
    """The first element equal to w passed here.  The cached cosets share
    their members through it: over some 1,200 cosets at r = 4, the φ
    products held 8,400 members but only 860 distinct elements."""
    return w


def enumerate_up_to_length(r: int, max_length: int, bound: int | None = None) -> dict[AffinePerm, int]:
    """All w in W (z = 0) with l(w) <= max_length, mapped to their length.

    Breadth-first over right multiplication by the generators; refuses
    max_length above the configured bound (ASCHUR_MAX_LENGTH, default 8).
    """
    cap = bound if bound is not None else enumeration_length_bound()
    if max_length > cap:
        raise ValueError(f"max_length {max_length} exceeds the configured bound {cap}")
    out = {AffinePerm.identity(r): 0}
    frontier = list(out)
    for ell in range(1, max_length + 1):
        nxt = []
        for u in frontier:
            for i in range(1, r + 1):
                v = u.mul_gen_right(i)
                if v not in out:
                    out[v] = ell
                    nxt.append(v)
        frontier = nxt
    return out


def semidirect_decompose(w: AffinePerm) -> tuple[AffinePerm, AffinePerm]:
    """w = s * t with s in S_r (finite part) and t a translation.

    The translation part satisfies (x)t = x mod r for every x.

    >>> s, t = semidirect_decompose(AffinePerm.rho(3, 3))
    >>> s.is_identity(), [t.apply(x) - x for x in range(1, 4)]
    (True, [3, 3, 3])
    """
    r = w.r
    s = AffinePerm.from_images(r, (residue(w.apply(i), r) for i in range(1, r + 1)))
    t = s.inverse() * w
    if any(t.apply(x) % r != x % r for x in range(1, r + 1)):
        raise RuntimeError(f"{t.render()} is not a translation")
    return s, t
