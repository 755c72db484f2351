"""The extended affine Hecke algebra on the T_w basis.

Elements are finite Z[q, q^-1]-combinations of basis symbols T_w indexed
by extended affine permutations (q = v^2 in the scalar ring).  The
product folds the right factor generator by generator:

    T_u * T_{s_i} = T_{u s_i}                       if length goes up,
    T_u * T_{s_i} = q T_{u s_i} + (q - 1) T_u       if length goes down,

and rho powers move through basis symbols by rotating generator indices,
so T_u * T_rho^k = T_{u rho^k} exactly.

For each basis element T_v of the right factor, v = rho^k s_{i_1} ...
s_{i_m}, the whole left factor is folded at once: it starts as
{u rho^k : c_u c_v} and passes through the letters of the reduced word,
and terms that meet at one element merge after every letter.  Folding
each left basis element on its own repeats the work wherever their
paths meet.

No step of the fold moves the rho power, so the left factor is grouped
by its rho power z once and each group is folded as a plain
{window: coefficient} dict; an AffinePerm is built only for a term of
the product.  For u = rho^z w, one pass over the window of w
(`aweyl.right_step`) gives both the window of w s_i and the direction of
the length.  With pos(x) = t - (w_t - x), the argument that w sends to x
(w_t is the window value in slot t that is congruent to x mod r),

    l(u s_i) > l(u)   exactly when   pos(i) < pos(i + 1).

c q is an exponent shift of c, c (q - 1) is c q - c, and a right-factor
coefficient 1 (every coefficient of a phi product's right factor) is
not multiplied in.
"""
from __future__ import annotations

from functools import lru_cache

from .aweyl import (
    AffinePerm,
    ParabolicIndex,
    _trusted,
    enumerate_parabolic,
    rho_conjugate,
    right_step,
)
from .ring import Combination, LaurentPoly, add_term
from .weights import Weight

Window = tuple[int, ...]


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
        out: dict[int, dict[Window, LaurentPoly]] = {}
        for v, cv in other.terms.items():
            word, k, unit = v.reduced_word(), v.z, cv.is_one()
            for z, group in left.items():
                if k:
                    group = {rho_conjugate(w, k): c for w, c in group.items()}
                if not unit:
                    group = {w: c * cv for w, c in group.items()}
                acc = out.setdefault(z + k, {})
                for w, x in _fold(group, word).items():
                    add_term(acc, w, x)
        r = self.r
        return self._like({
            _trusted(r, z, w): c for z, acc in out.items() for w, c in acc.items()
        })

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


def _fold(acc: dict[Window, LaurentPoly], word: tuple[int, ...]) -> dict[Window, LaurentPoly]:
    """(sum of c T_x over acc) * T_{s_{i_1}} * ... * T_{s_{i_m}}, as
    {window: coefficient}, all at one rho power; acc itself is not
    changed (with an empty word it is returned as it is)."""
    for i in word:
        nxt: dict[Window, LaurentPoly] = {}
        for x, c in acc.items():
            xs, up = right_step(x, i)
            if up:
                add_term(nxt, xs, c)
            else:
                cq = c.shifted(2)
                add_term(nxt, xs, cq)
                add_term(nxt, x, cq - c)
        acc = nxt
    return acc


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
