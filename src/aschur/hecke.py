"""The extended affine Hecke algebra on the T_w basis.

Elements are finite Z[q, q^-1]-combinations of basis symbols T_w indexed
by extended affine permutations (q = v^2 in the scalar ring).  The
product is the textbook fold: rho powers move through basis symbols by
rotating generator indices, T_u * T_rho^k = T_{u rho^k}, and the left
factor is folded through a reduced word of each right term, letter by
letter,

    T_u * T_{s_i} = T_{u s_i}                       if length goes up,
    T_u * T_{s_i} = q T_{u s_i} + (q - 1) T_u       if length goes down,

then scaled by that term's coefficient.  No step of the fold moves the
rho power, so a state is a plain {window: coefficient} dict at one rho
power, and one pass over the window of w (`aweyl.right_step`) gives both
the window of w s_i and the direction of the length.  c q is an exponent
shift of c, and c (q - 1) is c q - c.  This product is the independent
route that the tests hold the phi products of `schur` to.

Those run the same letter rule in the right module x_pi H of a finite
parabolic W_pi, x_pi the sum of its T_w.  Its basis is x_pi T_b over the
b in D_pi, those minimal in their right coset W_pi b, and T_{s_i} acts
on it in three cases (Deodhar):

    x_pi T_b T_{s_i} = x_pi T_{b s_i}                    if l(b s_i) > l(b), b s_i in D_pi,
                     = q x_pi T_{b s_i} + (q - 1) x_pi T_b  if l(b s_i) < l(b),
                     = q x_pi T_b                         if l(b s_i) > l(b), b s_i not in D_pi.

In the third case b s_i = s b for a generator s of W_pi, and
x_pi T_s = q x_pi.  In the second, b s_i stays in D_pi, because D_pi is
closed under prefixes: a left descent t in W_pi of b s_i would be one of
b, as l(t b) <= l(t b s_i) + 1 < l(b).  Membership is the left-descent
test of `aweyl.descends_left`, on the generators of pi shifted by the
rho power (`aweyl.left_slots`).  A right factor there is the sum of T_b
over the distinguished members of a double coset, and `fold_tree` folds
it along the tree that enumerates them (`aweyl.distinguished_tree`):
T_b = T_{b'} T_{s_i} for its parent b', so every member but the root
costs one letter.
"""
from __future__ import annotations

from functools import lru_cache

from .aweyl import (
    AffinePerm,
    ParabolicIndex,
    Tree,
    Window,
    _trusted,
    _window_reduced,
    descends_left,
    enumerate_parabolic,
    rho_conjugate,
    right_step,
)
from .ring import Combination, LaurentPoly, add_term
from .weights import Weight


class HeckeElement(Combination):
    """A finite map from AffinePerm to LaurentPoly (span of the T_w):
    ``HeckeElement(r, terms)``, in the space r."""

    __slots__ = ()

    @property
    def r(self) -> int:
        return self.space

    def support(self) -> list[AffinePerm]:
        return sorted(self.terms, key=_perm_key)

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        self._check_space(other)
        left: dict[int, dict[Window, LaurentPoly]] = {}
        for u, cu in self.terms.items():
            left.setdefault(u.z, {})[u.window] = cu
        out: dict[AffinePerm, LaurentPoly] = {}
        for v, cv in other.terms.items():
            word, k = v.reduced_word(), v.z
            for z, group in left.items():
                start = {rho_conjugate(w, k): c for w, c in group.items()}
                for w, c in _fold(start, word, ()).items():
                    add_term(out, _trusted(self.r, z + k, w), c * cv)
        return self._like(out)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in self.support():
            c = self.terms[w]
            parts.append(f"({c.render()})*T[{w.render()}]")
        return " + ".join(parts)

    def structured(self) -> list[dict]:
        return [
            {"perm": w.structured(), "coeff": self.terms[w].structured()}
            for w in self.support()
        ]


def _perm_key(w: AffinePerm):
    return (w.length(), w.z, w.window)


def t_element(w: AffinePerm) -> HeckeElement:
    """The basis element T_w."""
    return HeckeElement(w.r, {w: LaurentPoly.one()})


def _fold(
    acc: dict[Window, LaurentPoly], word: tuple[int, ...], left: tuple[int, ...]
) -> dict[Window, LaurentPoly]:
    """(sum of c T_x over acc) * T_{s_{i_1}} * ... * T_{s_{i_m}}, as
    {window: coefficient}, all at one rho power; acc itself is not
    changed (with an empty word it is returned as it is).

    With left not empty, the slots that the generators of a parabolic
    W_pi test at this rho power (`aweyl.left_slots`), acc holds the
    coefficients of x_pi T_x over x in D_pi instead, and a step to an
    x s_i outside D_pi gives q x_pi T_x (Deodhar's third case).
    """
    for i in word:
        nxt: dict[Window, LaurentPoly] = {}
        for x, c in acc.items():
            xs, up = right_step(x, i)
            if not up:
                cq = c.shifted(2)
                add_term(nxt, xs, cq)
                add_term(nxt, x, cq - c)
            elif left and descends_left(xs, left):
                add_term(nxt, x, c.shifted(2))
            else:
                add_term(nxt, xs, c)
        acc = nxt
    return acc


def fold_tree(
    start: dict[Window, LaurentPoly], tree: Tree, left: tuple[int, ...]
) -> dict[Window, LaurentPoly]:
    """start (at one rho power) times the sum of T_b over the members b of
    tree (`aweyl.distinguished_tree`: windows at one rho power k), as
    {window: coefficient}: with start conjugated by rho^k, the root folds
    its reduced word (`aweyl._window_reduced`, read off its window) and
    every other member one letter from its parent's state.  With left, as
    in `_fold`, each T_x stands for x_pi T_x, and start lies in D_pi:
    u rho^k is minimal in its right W_pi-coset when u is.

    A state is held until the last child of its member is folded; as the
    parents never decrease along the members, that is at most one length
    level.
    """
    windows, parents, letters = tree
    held: dict[int, dict[Window, LaurentPoly]] = {}
    out: dict[Window, LaurentPoly] = {}
    done = 0  # every member before this one has had its last child
    for m, p in enumerate(parents):
        if p < 0:
            state = _fold(start, _window_reduced(windows[m]), left)
        else:
            while done < p:
                del held[done]
                done += 1
            state = _fold(held[p], (letters[m],), left)
        held[m] = state
        for w, c in state.items():
            add_term(out, w, c)
    return out


@lru_cache(maxsize=None)
def young_parabolic(lam: Weight) -> ParabolicIndex:
    """Generator indices of the Young subgroup S_lambda inside S_r.

    s_i belongs iff i and i+1 fall in the same block of lambda, i <= r-1.
    Cached: the phi products ask for the same few weights again and again.

    >>> sorted(young_parabolic(Weight((2, 1, 0))).gens)
    [1]
    """
    r = lam.r
    cuts = set()
    total = 0
    for p in lam.parts:
        total += p
        cuts.add(total)
    gens = frozenset(i for i in range(1, r) if i not in cuts)
    return ParabolicIndex(r, gens)


def x_lambda(lam: Weight, shift: int = 0) -> HeckeElement:
    """x_{lambda+shift}: the sum of T_w over the shifted Young subgroup.

    >>> len(x_lambda(Weight((3, 0, 0))).terms)
    6
    """
    pi = young_parabolic(lam).shifted(shift)
    terms = {w: LaurentPoly.one() for w in enumerate_parabolic(pi)}
    return HeckeElement(lam.r, terms)
