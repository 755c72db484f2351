"""The extended affine Hecke algebra on the T_w basis.

Elements are finite Z[q, q^-1]-combinations of basis symbols T_w indexed
by extended affine permutations (q = v^2 in the scalar ring).  The
product folds the right factor generator by generator:

    T_u * T_{s_i} = T_{u s_i}                       if length goes up,
    T_u * T_{s_i} = q T_{u s_i} + (q - 1) T_u       if length goes down,

and rho powers move through basis symbols by rotating generator indices,
so T_u * T_rho^k = T_{u rho^k} exactly.

For each basis element T_v of the right factor, v = rho^z s_{i_1} ...
s_{i_m}, the whole left factor is folded at once: it starts as
{u rho^z : c_u c_v} and passes through the letters of the reduced word,
and terms that meet at one element merge after every letter.  Folding
each left basis element on its own repeats the work wherever their
paths meet.
"""
from __future__ import annotations

from functools import lru_cache

from .aweyl import AffinePerm, ParabolicIndex, enumerate_parabolic
from .ring import Combination, LaurentPoly, add_term
from .weights import Weight

Q = LaurentPoly.q()
QM1 = LaurentPoly.q() - 1


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
        out: dict[AffinePerm, LaurentPoly] = {}
        for v, cv in other.terms.items():
            start = {u.mul_rho_right(v.z): cu * cv for u, cu in self.terms.items()}
            for w, x in _fold(start, v.reduced_word()).items():
                add_term(out, w, x)
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
    acc: dict[AffinePerm, LaurentPoly], word: tuple[int, ...]
) -> dict[AffinePerm, LaurentPoly]:
    """(sum of c T_x over acc) * T_{s_{i_1}} * ... * T_{s_{i_m}}, as
    {w: coefficient}; acc itself is not changed."""
    for i in word:
        nxt: dict[AffinePerm, LaurentPoly] = {}
        for x, c in acc.items():
            xs = x.mul_gen_right(i)
            if xs.length() > x.length():
                add_term(nxt, xs, c)
            else:
                add_term(nxt, xs, c * Q)
                add_term(nxt, x, c * QM1)
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
