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

The same fold runs in the right module x_pi H of a finite parabolic
W_pi, x_pi the sum of its T_w (`fold_product` with the generators of
pi).  Its basis is x_pi T_b over the b in D_pi, those minimal in their
right coset W_pi b, and T_{s_i} acts on it in three cases (Deodhar):

    x_pi T_b T_{s_i} = x_pi T_{b s_i}                    if l(b s_i) > l(b), b s_i in D_pi,
                     = q x_pi T_{b s_i} + (q - 1) x_pi T_b  if l(b s_i) < l(b),
                     = q x_pi T_b                         if l(b s_i) > l(b), b s_i not in D_pi.

In the third case b s_i = s b for a generator s of W_pi, and
x_pi T_s = q x_pi.  In the second, b s_i stays in D_pi, because D_pi is
closed under prefixes: a left descent t in W_pi of b s_i would be one of
b, as l(t b) <= l(t b s_i) + 1 < l(b).  Membership is the left-descent
test of `aweyl.descends_left`, on the generators of pi shifted by the
rho power (`aweyl.left_slots`).  With pi empty, x_pi is 1, every b is in
D_pi and the fold is the product of H.
"""
from __future__ import annotations

from functools import lru_cache

from .aweyl import (
    AffinePerm,
    ParabolicIndex,
    _trusted,
    descends_left,
    enumerate_parabolic,
    left_slots,
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
        return fold_product(self, descent_plans(other))

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


Plans = list[tuple[int, list[tuple], set[Window]]]


def descent_plans(h: HeckeElement) -> Plans:
    """How to fold h as a right factor: per rho power k of its terms,
    (k, plan, parents) as `_descent_tree` gives them."""
    groups: dict[int, dict[AffinePerm, LaurentPoly]] = {}
    for v, cv in h.terms.items():
        groups.setdefault(v.z, {})[v] = cv
    return [(k, *_descent_tree(vs)) for k, vs in groups.items()]


def _descent_tree(vs: dict[AffinePerm, LaurentPoly]) -> tuple[list[tuple], set[Window]]:
    """The fold plan of right-factor terms that share one rho power: per
    term v, in order of length, (window, length, parent window, letters,
    coefficient); and the windows of the terms that are some other term's
    parent.

    The parent is a right descent v s_j in the support, and the letters
    are (j,): the state of T_v is the parent's times T_{s_j}.  A term with
    no parent in the support has parent None and its whole reduced word.
    """
    support = {v.window for v in vs}
    r = next(iter(vs)).r
    plan = []
    parents: set[Window] = set()
    for v in sorted(vs, key=_perm_key):
        length, parent, letters = v.length(), None, None
        for j in range(1, r + 1) if length else ():
            ws, up = right_step(v.window, j)
            if not up and ws in support:
                parent, letters = ws, (j,)
                parents.add(ws)
                break
        plan.append((v.window, length, parent, letters or v.reduced_word(), vs[v]))
    return plan, parents


def fold_product(h: HeckeElement, plans: Plans, gens: frozenset[int] = frozenset()) -> HeckeElement:
    """h times the right factor that `descent_plans` planned.

    With gens, the generator indices of a parabolic W_pi, and h supported
    on D_pi, it is x_pi h times that factor in the right module x_pi H,
    given by its coefficients on the basis x_pi T_b (b in D_pi).  With
    gens empty, x_pi is 1 and it is the product in H.
    """
    left: dict[int, dict[Window, LaurentPoly]] = {}
    for u, cu in h.terms.items():
        left.setdefault(u.z, {})[u.window] = cu
    r = h.r
    out: dict[int, dict[Window, LaurentPoly]] = {}
    for k, plan, parents in plans:
        for z, group in left.items():
            acc = out.setdefault(z + k, {})
            _fold_tree(group, k, plan, parents, acc, left_slots(gens, z + k, r))
    return h._like({
        _trusted(r, z, w): c for z, acc in out.items() for w, c in acc.items()
    })


def _fold_tree(
    group: dict[Window, LaurentPoly],
    k: int,
    plan: list[tuple],
    parents: set[Window],
    acc: dict[Window, LaurentPoly],
    left: tuple[int, ...],
) -> None:
    """Add (sum of c T_u over rho^z group) * (sum of c_v T_v over the plan)
    into acc, the {window: coefficient} dict of rho power z + k (with
    left, each T_u stands for x_pi T_u, as in `_fold`).

    The state of a parent is held only until the next length level has
    read it (a level after a gap in the lengths reads none).  The start,
    the group conjugated by rho^k, is built only when a term with no
    parent needs it.  T_u rho^k is T_{u rho^k}, and u rho^k is minimal in
    its right W_pi-coset when u is, so the start stays in D_pi.
    """
    start = None
    held: dict[Window, dict[Window, LaurentPoly]] = {}
    cur: dict[Window, dict[Window, LaurentPoly]] = {}
    level = None
    for v, length, parent, letters, cv in plan:
        if length != level:  # a parent is one letter shorter
            held, cur, level = cur, {}, length
        if parent is not None:
            state = _fold(held[parent], letters, left)
        else:
            if start is None:
                start = {rho_conjugate(w, k): c for w, c in group.items()} if k else group
            state = _fold(start, letters, left)
        if v in parents:
            cur[v] = state
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
