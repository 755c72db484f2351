"""Tensor space and the generator action through the coproduct.

The module V has basis e_t for every integer t; its r-fold tensor power
has basis e_{t_1} x ... x e_{t_r} encoded as integer tuples.  Vectors are
sparse maps from basis tuples to nonzero Laurent polynomials.

The one-factor action (indices read mod n):

    E_i e_{t+1} = e_t   if t = i,      F_i e_t = e_{t+1}  if t = i,
    K_i e_t     = v e_t if t = i (else fixed),     R e_t = e_{t+1},

lifts to r factors through the comultiplication: the E_i term acting in
position j carries the grouplike twist K_i K_{i+1}^-1 on every position
after j, and the F_i term carries the inverse twist on every position
before j.  The classical generators e_i, f_i act by the same position
sums with no twist, and H_i acts by the integer weight entry.

So every one-step coefficient is a monomial m v^e.  The one cache,
`_act_basis`, gives (target, v-exponent, multiplier) triples keyed on
plain values (a symbol is the tuple (kind, index, projector weight), and
a weight the validated tuple of its parts).  A word runs on a flat
vector tagged by start, {(start, basis, v-exponent): int}, so one run
covers many start tensors at once: nonzero_starts sums coefficient *
word over the starts of each term of an identity in one integer pass,
and act_word and act_expr_basis are the one-start case.  Only the
vectors those two return are built of LaurentPolys.

Every symbol's coefficients and targets depend only on the residues
t_j mod n, and it moves entries by fixed displacements.  So the action
commutes with adding n to any single coordinate of a basis tensor, and
an operator identity that holds on the n^r basis tensors with indices in
[1, n] holds on all of V^(x)r (the verification engine relies on this).

Two further facts let the engine evaluate fewer of those tensors and
still cover all of V^(x)r (aschur.present.verification_domain), and
word_support reads both off a word in one scan, by the rules of
_act_basis.  Grading: every symbol is weight-homogeneous (E_i maps weight
lambda to lambda + alpha_i, F_i to lambda - alpha_i, R to the rotated
weight, and K, H, P keep it), so a word containing P(lambda) vanishes off
one source weight.  Inert residues: E_i, F_i, e_i, f_i read and move only
coordinates of residue i and i + 1, K_i and H_i only read residue i, so a
coordinate whose residue no symbol of a P- and R-free word touches stays
fixed and never enters a coefficient, and replacing it by any other such
residue commutes with the action.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .operators import E, F, OperatorExpr, R, Rinv, Sym, Word, chain
from .ring import LaurentPoly, add_term
from .weights import Weight, plus_alpha_parts, residue

Basis = tuple[int, ...]
Vector = dict[Basis, LaurentPoly]


def weight_of(n: int, b: Basis) -> Weight:
    """lambda_i = #{j : t_j = i mod n}.

    >>> weight_of(3, (1, 4)).parts
    (2, 0, 0)
    """
    counts = [0] * n
    for t in b:
        counts[residue(t, n) - 1] += 1
    return Weight(counts)


def shift(b: Basis, k: int) -> Basis:
    return tuple(t + k for t in b)


@lru_cache(maxsize=None)
def _act_basis(n: int, kind: str, i: int, parts: tuple | None, b: Basis) -> tuple:
    """The symbol (kind, index, projector weight) on e_b as (target,
    v-exponent, multiplier) triples, cached on plain values: a weight
    hashes and compares as its parts."""
    ri, ri1 = residue(i, n), residue(i + 1, n)
    if kind in ("E", "F", "e", "f"):
        # E_i and e_i lower an entry of residue i + 1, F_i and f_i raise
        # one of residue i; E_i twists by K_i K_{i+1}^-1 on the positions
        # after it, F_i by the inverse on those before it, and the classical
        # e_i, f_i are the twist-free v = 1 case.
        lower = kind in ("E", "e")
        src, step, sign = (ri1, -1, 1) if lower else (ri, 1, -1)
        out = []
        for j in range(len(b)):
            if residue(b[j], n) == src:
                exp = 0
                if kind in ("E", "F"):
                    for t in b[j + 1 :] if lower else b[:j]:
                        rt = residue(t, n)
                        exp += sign if rt == ri else -sign if rt == ri1 else 0
                out.append((b[:j] + (b[j] + step,) + b[j + 1 :], exp, 1))
        return tuple(out)
    if kind in ("K", "Kinv", "H"):
        # H_i is the v = 1 case of K_i: the count itself, not v^count
        count = sum(1 for t in b if residue(t, n) == ri)
        if kind == "H":
            return ((b, 0, count),) if count else ()
        return ((b, count if kind == "K" else -count, 1),)
    if kind in ("R", "Rinv"):
        return ((shift(b, 1 if kind == "R" else -1), 0, 1),)
    if kind == "P":
        return ((b, 0, 1),) if weight_of(n, b) == parts else ()
    raise ValueError(f"unknown symbol kind {kind!r}")


def word_support(n: int, r: int, word: Word) -> tuple[tuple[Weight, ...] | None, set[int] | None]:
    """(source weights, touched residues) of a word, from one scan.

    The source weights are those of V^(x)r off which the word is zero: one
    weight, or none when it is zero everywhere; None when the word has no
    projector.  Each P(lam) pins the weight of the source tensor: undo the
    shifts of the symbols to its right (E_i, e_i: -alpha_i; F_i, f_i:
    +alpha_i; R, R^-1: rotate back).  The touched residues are those the
    word reads or moves, as _act_basis does: {i, i+1} for E_i, F_i, e_i,
    f_i and {i} for K_i^(+-1), H_i; None when the word has P, R or R^-1,
    which read every residue.

    >>> from aschur.operators import K, P
    >>> word_support(3, 2, (E(1), P(Weight((2, 0, 0)))))
    ((Weight(2, 0, 0),), None)
    >>> word_support(3, 2, (P(Weight((2, 0, 0))), E(1)))
    ((Weight(1, 1, 0),), None)
    >>> word_support(3, 2, (P(Weight((2, 0, 0))), E(1), P(Weight((2, 0, 0)))))
    ((), None)
    >>> weights, touched = word_support(4, 2, (E(4), K(2)))
    >>> weights, sorted(touched)
    (None, [1, 2, 4])
    """
    pin: tuple[int, ...] | None = None  # the weight just right of the symbols read so far
    indices: set[int] | None = set()  # the touched residues, read mod n at the end
    for kind, i, lam in word:
        if kind in ("E", "F", "e", "f"):
            if indices is not None:
                indices.add(i)
                indices.add(i + 1)
            if pin is not None:
                pin = plus_alpha_parts(pin, i, -1 if kind in ("E", "e") else 1)
        elif kind == "P":
            if lam.n != n or pin not in (None, lam):
                return (), None
            pin, indices = lam, None
        elif kind in ("R", "Rinv"):
            indices = None
            if pin is not None:
                pin = pin[1:] + pin[:1] if kind == "R" else pin[-1:] + pin[:-1]
        elif indices is not None:
            indices.add(i)
    if pin is None:
        return None, None if indices is None else {residue(t, n) for t in indices}
    if sum(pin) != r or min(pin) < 0:
        return (), None
    return (Weight(pin),), None


def _run(n: int, word: Word, flat: dict) -> dict:
    """A word on a start-tagged flat vector {(start, basis, v-exponent): int},
    rightmost symbol first."""
    for kind, i, w in reversed(word):
        if not flat:
            break
        out = {}
        get = out.get
        for (s, b, e), m in flat.items():
            for b2, e2, m2 in _act_basis(n, kind, i, w, b):
                key = (s, b2, e + e2)
                out[key] = get(key, 0) + m * m2
        flat = out
    return flat


def _combine(n: int, runs: Iterable[tuple[Word, LaurentPoly, Iterable[Basis]]]) -> dict:
    """The sum of coefficient * word on e_s for every (word, coefficient,
    starts) and every start s, as one flat vector tagged by start: each
    word runs once over all of its starts."""
    total = {}
    get = total.get
    for word, coeff, starts in runs:
        for (s, b, e), m in _run(n, word, {(s, s, 0): 1 for s in starts}).items():
            for ce, cm in coeff.items():
                key = (s, b, e + ce)
                total[key] = get(key, 0) + m * cm
    return total


def nonzero_starts(n: int, runs: Iterable[tuple[Word, LaurentPoly, Iterable[Basis]]]) -> set[Basis]:
    """The starts s on which the sum of coefficient * word over the runs
    that list s is nonzero: the batched check of verify_identity."""
    return {s for (s, _, _), m in _combine(n, runs).items() if m}


def _vector(flat: dict) -> Vector:
    """The vector of a flat one, without zero entries; the start tags are dropped."""
    polys: dict[Basis, dict[int, int]] = {}
    for (_, b, e), m in flat.items():
        if m:
            polys.setdefault(b, {})[e] = m
    return {b: LaurentPoly(c) for b, c in polys.items()}


def act_word(n: int, word: Word, vec: Vector) -> Vector:
    """Apply a word of symbols, rightmost symbol first."""
    return _vector(_run(n, word, {(None, b, e): m for b, c in vec.items() for e, m in c.items()}))


def act_symbol(n: int, sym: Sym, vec: Vector) -> Vector:
    return act_word(n, (sym,), vec)


def act_expr_basis(n: int, expr: OperatorExpr, b: Basis) -> Vector:
    """expr on e_b: each word runs flat, then takes its coefficient term by term."""
    return _vector(_combine(n, ((word, coeff, (b,)) for word, coeff in expr.terms.items())))


def vec_sub(a: Vector, b: Vector) -> Vector:
    out = dict(a)
    for k, c in b.items():
        add_term(out, k, -c)
    return out


def render_basis(b: Basis) -> str:
    return "e[" + ",".join(str(t) for t in b) + "]"


def render_vector(vec: Vector) -> str:
    if not vec:
        return "0"
    return " + ".join(
        f"({vec[b].render()})*{render_basis(b)}" for b in sorted(vec)
    )


# -- weight spaces ----------------------------------------------------------------


def weight_space_basis(n: int, lam: Weight, lo: int, hi: int) -> list[Basis]:
    """Basis tuples with all indices in [lo, hi] and weight lambda.

    >>> weight_space_basis(3, Weight((1, 1, 0)), 1, 3)
    [(1, 2), (2, 1)]
    """
    if hi < lo:
        raise ValueError("empty index range")
    if lam.n != n:
        raise ValueError(f"weight {lam.render()} has {lam.n} parts, not n = {n}")
    r = lam.r
    out: list[Basis] = []
    values = list(range(lo, hi + 1))

    def rec(pos: int, remaining: list[int], acc: list[int]):
        if pos == r:
            out.append(tuple(acc))
            return
        for t in values:
            res = residue(t, n)
            if remaining[res - 1] > 0:
                remaining[res - 1] -= 1
                acc.append(t)
                rec(pos + 1, remaining, acc)
                acc.pop()
                remaining[res - 1] += 1

    rec(0, list(lam), [])
    return out


# -- the Hecke-type endomorphisms of the omega weight space ----------------------


@lru_cache(maxsize=None)
def tau(n: int, r: int, name: str, variant: str = "with-R") -> OperatorExpr:
    """The endomorphism of V_omega attached to a Hecke generator.  Cached:
    the rows of the hecke-tau suite share them (an OperatorExpr is never
    changed in place).

    ``name`` is one of 's<i>' (1 <= i <= r, none at r = 1), 'rho',
    'rho-inv'.  The two variants differ only for rho and rho-inv: 'with-R'
    uses the rotation generator R, 'R-free' replaces it by E/F chains
    which agree on the omega weight space.  's<r>' is the composite
    rho . s_1 . rho^-1.
    """
    if n <= r:
        raise ValueError("these endomorphisms require n > r")
    if variant not in ("with-R", "R-free"):
        raise ValueError(f"unknown variant {variant!r}")
    with_r = variant == "with-R"
    if name == "rho":
        tail = [Rinv] if with_r else chain("E", range(r - 1, 0, -1)) + [E(n)]
        return OperatorExpr.word(chain("E", range(r, n)) + tail)
    if name == "rho-inv":
        tail = [R] if with_r else chain("F", range(1, r + 1))
        return OperatorExpr.word(chain("F", range(n, r, -1)) + tail)
    if name.startswith("s"):
        if r == 1:
            raise ValueError("at r = 1 the affine Weyl group has no s_i")
        i = int(name[1:])
        if 1 <= i < r:
            return OperatorExpr({(F(i), E(i)): LaurentPoly.v(1), (): LaurentPoly.const(-1)})
        if i == r:
            return (
                tau(n, r, "rho", variant)
                * tau(n, r, "s1", variant)
                * tau(n, r, "rho-inv", variant)
            )
    raise ValueError(f"unknown endomorphism name {name!r}")
