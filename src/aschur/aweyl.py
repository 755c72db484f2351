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

The one-sided steps run on bare windows: `right_step` gives the window
of w s_i and the direction of the length in one pass, `left_step` the
window of s_j w, whose direction `descends_left` reads off two entries,
and `rho_conjugate` the window of rho^-k w rho^k.  Reduced words, coset
decompositions and minimal double-coset members all come from one loop
over these steps, `_strip`, which strips left and right descents off a
window, with no length computed on the way.

A double coset W_pi1 * d * W_pi2 of finite parabolic subgroups is the
disjoint union of the right cosets W_pi1 * b of its distinguished
members b, those minimal in W_pi1 * b.  With d minimal they are the
d y, y in W_pi2, with lengths adding, and they form a tree from d under
length-raising steps b -> b s_i (`distinguished_tree`), which the phi
products of `schur` fold along.  The tree is held as bare windows at the
rho power of d and cached on plain values: the generator sets of pi1 and
pi2, that rho power and the window of d.  `distinguished_members` builds
the elements from it, for the whole-coset enumeration and the tests.

At r = 1 the group W is trivial and the extended group is generated by
rho alone: there is no generator s_i.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal

from .weights import residue

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
        if r != 1 and not 1 <= i <= r:
            raise ValueError("generator index out of range")
        return cls(r, 0, right_step(tuple(range(1, r + 1)), i)[0])

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

    # -- cheap one-sided multiplications ---------------------------------------
    #
    # These four map a valid element to a valid one, so they build their
    # result through _trusted, without the checks of __post_init__.

    def mul_gen_right(self, i: int) -> AffinePerm:
        """u * s_i without renormalization (acts on window values)."""
        return _trusted(self.r, self.z, right_step(self.window, i)[0])

    def mul_gen_left(self, i: int) -> AffinePerm:
        """s_i * u; shifts the index across the rho part."""
        return _trusted(self.r, self.z, left_step(self.window, residue(i + self.z, self.r)))

    def mul_rho_right(self, k: int = 1) -> AffinePerm:
        """u * rho^k = rho^(z+k) * (rho^-k w rho^k)."""
        if not k:
            return self
        return _trusted(self.r, self.z + k, rho_conjugate(self.window, k))

    def mul_rho_left(self, k: int = 1) -> AffinePerm:
        return _trusted(self.r, self.z + k, self.window)

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


def _trusted(r: int, z: int, window: tuple[int, ...]) -> AffinePerm:
    """AffinePerm(r, z, window) for a window known to be valid: the frozen
    fields are set directly and __post_init__ is not run."""
    u = object.__new__(AffinePerm)
    fields = u.__dict__
    fields["r"] = r
    fields["z"] = z
    fields["window"] = window
    return u


# -- bare windows ------------------------------------------------------------
#
# The Hecke fold runs on windows alone: none of its steps moves the rho
# power, so once z is fixed a window names the element.

Window = tuple[int, ...]


def rho_conjugate(window: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The window of rho^-k w rho^k, for w with this window: u * rho^k is
    rho^(z+k) times that element.  Slot t + 1 reads (t + 1 - k)w + k,
    which is the entry in slot j + 1, j = (t - k) mod r, plus t - j.

    >>> rho_conjugate((2, 1, 3), 1)
    (1, 3, 2)
    """
    r = len(window)
    return tuple([window[(t - k) % r] + t - (t - k) % r for t in range(r)])


def left_step(window: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The window of s_j w: s_j w swaps the arguments j and j + 1 of w,
    with (r+1)w = (1)w + r.  j is a window slot: on rho^z w the generator
    s_i acts through the slot j = i + z mod r (`left_slots`), and the
    length goes down exactly when `descends_left` says so.

    >>> left_step((1, 2, 3), 3)
    (0, 2, 4)
    """
    r = len(window)
    win = list(window)
    if j < r:
        win[j - 1], win[j] = win[j], win[j - 1]
    else:
        win[r - 1], win[0] = win[0] + r, win[r - 1] - r
    return tuple(win)


def right_step(window: tuple[int, ...], i: int) -> tuple[tuple[int, ...], bool]:
    """(window of w s_i, whether l(w s_i) > l(w)), in one pass over the window.

    s_i adds 1 to the values of residue i and takes 1 from those of residue
    i + 1.  The argument that w sends to a value x is pos(x) = t - (w_t - x),
    where w_t is the window value in slot t congruent to x mod r; the
    length goes up exactly when pos(i) < pos(i + 1).  The tests referee
    both halves with the general product and ``length()``.

    >>> right_step((2, 1, 3), 1)
    ((1, 2, 3), False)
    """
    r = len(window)
    if r == 1:
        raise ValueError("at r = 1 there is no generator s_i: W is trivial")
    bi, bi1 = i % r, (i + 1) % r
    win = list(window)
    for t, x in enumerate(window, 1):
        b = x % r
        if b == bi:
            win[t - 1] = x + 1
            pos_i = t - (x - i)
        elif b == bi1:
            win[t - 1] = x - 1
            pos_i1 = t - (x - i - 1)
    return tuple(win), pos_i < pos_i1


def ascends_right(window: tuple[int, ...], i: int) -> bool:
    """Whether l(w s_i) > l(w): right_step's bit, without the stepped window."""
    r = len(window)
    if r == 1:
        raise ValueError("at r = 1 there is no generator s_i: W is trivial")
    bi, bi1 = i % r, (i + 1) % r
    for t, x in enumerate(window, 1):
        if x % r == bi:
            pos_i = t - (x - i)
        elif x % r == bi1:
            pos_i1 = t - (x - i - 1)
    return pos_i < pos_i1


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
    # left descents of the bare w, whose slot j is s_j, until the identity,
    # the one window with none
    return tuple(_strip(window, range(1, len(window) + 1), ())[1])


def _strip(
    window: tuple[int, ...], slots: Iterable[int], gens: Iterable[int]
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Strip descents until none is left: s_j on the left for the window
    slots j in slots, else s_i on the right for i in gens, the first that
    descends each time.  Returns (window, slots stripped on the left,
    generators stripped on the right), each in the order stripped, so the
    window is s_jk ... s_j1 w s_i1 ... s_im with lengths adding."""
    lefts: list[int] = []
    rights: list[int] = []
    while True:
        for j in slots:
            if descends_left(window, (j,)):
                window = left_step(window, j)
                lefts.append(j)
                break
        else:
            for i in gens:
                nxt, up = right_step(window, i)
                if not up:
                    window = nxt
                    rights.append(i)
                    break
            else:
                return window, lefts, rights


# -- descents and distinguished representatives --------------------------------


@lru_cache(maxsize=None)
def left_slots(gens: frozenset[int], z: int, r: int) -> tuple[int, ...]:
    """The window slots j = i + z mod r that the generators s_i (i in gens)
    test on an element rho^z w: s_i rho^z w = rho^z s_j w (cached)."""
    return tuple(sorted(residue(i + z, r) for i in gens))


def descends_left(window: tuple[int, ...], slots: tuple[int, ...]) -> bool:
    """Whether some s_j, j in slots, is a left descent of the w with this
    window.  s_j w swaps the arguments j and j + 1 of w, so the length goes
    down exactly when (j)w > (j+1)w (with (r+1)w = (1)w + r)."""
    r = len(window)
    for j in slots:
        if window[j - 1] > (window[j] if j < r else window[0] + r):
            return True
    return False


def is_distinguished_right(d: AffinePerm, pi: ParabolicIndex) -> bool:
    """d minimal in its right coset W_pi d: no s in pi descends on the left."""
    return not descends_left(d.window, left_slots(pi.gens, d.z, d.r))


def is_double_coset_min(d: AffinePerm, pi1: ParabolicIndex, pi2: ParabolicIndex) -> bool:
    """d minimal in W_pi1 d W_pi2: no s in pi1 descends on the left and
    no s in pi2 on the right."""
    return is_distinguished_right(d, pi1) and all(ascends_right(d.window, i) for i in pi2.gens)


def coset_decompose(
    w: AffinePerm, pi: ParabolicIndex, side: Literal["left", "right"] = "left"
) -> tuple[AffinePerm, AffinePerm]:
    """Split w into a parabolic part and a distinguished part.

    side='left' returns (a, d) with w = a*d, a in W_pi, d minimal in W_pi d.
    side='right' returns (a, d) with w = d*a, a in W_pi, d minimal in d W_pi.
    Lengths are additive in both cases.  On the left, a stripped slot j of
    the window is the generator s_i with i = j - z mod r.

    >>> w = AffinePerm.rho(3).mul_gen_left(1)  # s_1 rho: slot 2 descends
    >>> a, d = coset_decompose(w, ParabolicIndex.make(3, [1]))
    >>> a.render(), d.render()
    ('rho^0 * [2,1,3]', 'rho^1 * [1,2,3]')
    """
    r, z = w.r, w.z
    if side == "left":
        win, slots, _ = _strip(w.window, left_slots(pi.gens, z, r), ())
        letters = [residue(j - z, r) for j in slots]
    else:
        win, _, gens = _strip(w.window, (), pi.gens)
        letters = reversed(gens)
    par = AffinePerm.identity(r)
    for i in letters:
        par = par.mul_gen_right(i)
    return par, _trusted(r, z, win)


def double_coset_min(w: AffinePerm, pi1: ParabolicIndex, pi2: ParabolicIndex) -> AffinePerm:
    """The minimal-length element of W_pi1 w W_pi2: strip left descents in
    pi1, then right descents in pi2, until there is none."""
    win = _strip(w.window, left_slots(pi1.gens, w.z, w.r), pi2.gens)[0]
    return _trusted(w.r, w.z, win)


# -- enumeration ----------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_parabolic(pi: ParabolicIndex) -> frozenset[AffinePerm]:
    """All elements of the (finite) parabolic subgroup W_pi (cached): the
    double coset W_() * 1 * W_pi, each of whose members is distinguished.

    >>> len(enumerate_parabolic(ParabolicIndex.make(3, [1])))
    2
    """
    r = pi.r
    trivial = ParabolicIndex(r, frozenset())
    return frozenset(distinguished_members(trivial, AffinePerm.identity(r), pi))


@lru_cache(maxsize=None)
def enumerate_double_coset(
    pi1: ParabolicIndex, d: AffinePerm, pi2: ParabolicIndex
) -> frozenset[AffinePerm]:
    """The finite set W_pi1 * d * W_pi2 (cached): the disjoint union of
    the right cosets W_pi1 * b over its distinguished members b
    (`distinguished_members`), as each right coset has exactly one member
    minimal in it.  No product builds it; it serves `phi_value`, the CLI
    and the tests' whole-coset oracle.
    """
    return frozenset(
        _shared(a * b)
        for b in distinguished_members(pi1, d, pi2)
        for a in enumerate_parabolic(pi1)
    )


def distinguished_members(
    pi1: ParabolicIndex, d: AffinePerm, pi2: ParabolicIndex
) -> tuple[AffinePerm, ...]:
    """The members b of W_pi1 * d * W_pi2 that are minimal in W_pi1 * b, in
    order of length: the windows of `distinguished_tree` at the rho power
    of d, looked up from the minimal member whatever member d is.

    >>> pi1, pi2 = ParabolicIndex.make(3, [1]), ParabolicIndex.make(3, [1, 2])
    >>> [b.window for b in distinguished_members(pi1, AffinePerm.identity(3), pi2)]
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    d = double_coset_min(d, pi1, pi2)
    r, z = d.r, d.z
    wins = distinguished_tree(pi1.gens, z, d.window, pi2.gens)[0]
    return tuple(_trusted(r, z, w) for w in wins)


Tree = tuple[tuple[Window, ...], tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def distinguished_tree(
    gens1: frozenset[int], z: int, window: Window, gens2: frozenset[int]
) -> Tree:
    """(windows, parents, letters) for the distinguished members of
    W_pi1 * d * W_pi2, where pi1 and pi2 have the generators gens1 and
    gens2 and d = rho^z w is the minimal member, w with this window
    (cached on these plain values; a window that is not minimal raises
    ValueError).  Member m is rho^z times windows[m], and it is member
    parents[m] times s_i with i = letters[m], one longer, except the root
    d (parent -1, letter 0).

    The members are the b = d y with y in W_pi2 minimal in
    (W_pi2 meet d^-1 W_pi1 d) y, and l(b) = l(d) + l(y) (Deodhar).  Those
    y are closed under prefixes: if y = y' s with l(y) = l(y') + 1, a left
    descent t of y' in that parabolic would be one of y too, as
    t y = (t y') s.  So the members form a tree from d, each b reaching
    b s_i (i in pi2) when the length goes up and b s_i stays minimal in
    its right coset, and the tree reaches every member.  It is walked
    breadth first, so the lengths never go down and the parents never
    decrease along the members.
    """
    left = left_slots(gens1, z, len(window))
    right = sorted(gens2)
    if descends_left(window, left) or not all(ascends_right(window, i) for i in right):
        raise ValueError("the window is not minimal in its double coset")
    seen = {window}
    wins, parents, letters = [window], [-1], [0]
    for m, win in enumerate(wins):  # grows as it is read
        for i in right:
            nxt, up = right_step(win, i)
            # A shorter neighbour that is minimal is a prefix member, seen
            # already at the level below: the length test only saves work.
            if up and nxt not in seen and not descends_left(nxt, left):
                seen.add(nxt)
                wins.append(nxt)
                parents.append(m)
                letters.append(i)
    return tuple(wins), tuple(parents), tuple(letters)


@lru_cache(maxsize=None)
def _shared(w: AffinePerm) -> AffinePerm:
    """The first element equal to w passed here: the cached double cosets
    share their members through it."""
    return w


def enumerate_up_to_length(r: int, max_length: int) -> dict[AffinePerm, int]:
    """All w in W (z = 0) with l(w) <= max_length, mapped to their length,
    breadth-first over right multiplication by the generators."""
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
