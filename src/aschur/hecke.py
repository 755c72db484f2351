"""The extended affine Hecke algebra on the T_w basis.

Elements are finite Z[q, q^-1]-combinations of basis symbols T_w indexed
by extended affine permutations (q = v^2 in the scalar ring).  The
product folds the right factor generator by generator:

    T_u * T_{s_i} = T_{u s_i}                       if length goes up,
    T_u * T_{s_i} = q T_{u s_i} + (q - 1) T_u       if length goes down,

and rho powers move through basis symbols by rotating generator indices,
so T_u * T_rho^k = T_{u rho^k} exactly.

The right factor is folded along its descent tree.  Its terms are
grouped by rho power k and taken in order of length.  When v s_j is a
right descent of v (l(v s_j) = l(v) - 1) that is also in the support,

    T_v = T_{v s_j} T_{s_j},

so the product of the whole left factor with T_v is that of T_{v s_j}
folded through one more letter.  A term with no such parent starts from
the left factor conjugated, {u rho^k : c_u}, and passes through the
letters of its reduced word, and terms that meet at one element merge
after every letter.  The right coefficient c_v is multiplied in at the
end, once per term.  The right factor of a phi product (the
distinguished members of a double coset, a tree from its minimal
member) holds a parent of every other term, so each of those costs one
letter.

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
        right: dict[int, list[AffinePerm]] = {}
        for v in other.terms:
            right.setdefault(v.z, []).append(v)
        out: dict[int, dict[Window, LaurentPoly]] = {}
        for k, vs in right.items():
            plan, parents = _descent_tree(vs)
            for z, group in left.items():
                acc = out.setdefault(z + k, {})
                _fold_tree(group, k, plan, parents, other.terms, acc)
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


def _descent_tree(vs: list[AffinePerm]) -> tuple[list[tuple], set[Window]]:
    """The fold plan of right-factor terms that share one rho power: per
    term v, in order of length, (v, length, parent window, letters); and
    the windows of the terms that are some other term's parent.

    The parent is a right descent v s_j in the support, and the letters
    are (j,): the state of T_v is the parent's times T_{s_j}.  A term with
    no parent in the support has parent None and its whole reduced word.
    """
    vs = sorted(vs, key=_perm_key)
    support = {v.window for v in vs}
    r = vs[0].r
    plan = []
    parents: set[Window] = set()
    for v in vs:
        length, parent, letters = v.length(), None, None
        for j in range(1, r + 1) if length else ():
            ws, up = right_step(v.window, j)
            if not up and ws in support:
                parent, letters = ws, (j,)
                parents.add(ws)
                break
        plan.append((v, length, parent, letters or v.reduced_word()))
    return plan, parents


def _fold_tree(
    group: dict[Window, LaurentPoly],
    k: int,
    plan: list[tuple],
    parents: set[Window],
    coeffs: dict[AffinePerm, LaurentPoly],
    acc: dict[Window, LaurentPoly],
) -> None:
    """Add (sum of c T_u over rho^z group) * (sum of c_v T_v over the plan)
    into acc, the {window: coefficient} dict of rho power z + k.

    The state of a parent is held only until the next length level has
    read it (a level after a gap in the lengths reads none).  The start,
    the group conjugated by rho^k, is built only when a term with no
    parent needs it.
    """
    start = None
    held: dict[Window, dict[Window, LaurentPoly]] = {}
    cur: dict[Window, dict[Window, LaurentPoly]] = {}
    level = None
    for v, length, parent, letters in plan:
        if length != level:  # a parent is one letter shorter
            held, cur, level = cur, {}, length
        if parent is not None:
            state = _fold(held[parent], letters)
        else:
            if start is None:
                start = {rho_conjugate(w, k): c for w, c in group.items()} if k else group
            state = _fold(start, letters)
        if v.window in parents:
            cur[v.window] = state
        cv = coeffs[v]
        if cv.is_one():
            for w, x in state.items():
                add_term(acc, w, x)
        else:
            for w, x in state.items():
                add_term(acc, w, x * cv)


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
