"""Relation suites and the verification engine.

The suites are one declarative table, SUITES.  A suite is a list of
(name, description, family) rows; a family yields the (params, lhs, rhs)
of its instances at a given (n, r), and the suite stamps each with the
row's name and description and the suite's domain.  The families that
several suites share (K-commutation, the E/F commutator, non-adjacent
commutation, Serre, the K-polynomial, idempotent orthogonality and
idempotent commutation) are written once.  They take a generating set:
the quantum E, F, K with [a] and v^a, or the classical specialization
e, f, H at v = 1 with a in place of both.  Those that range over E/F
indices take the affine nodes 1..n or the finite nodes 1..n-1.  The
relations only one suite has (Q2-Q4, Q10-Q15, R1-sum, q2-q4, q9, tau-*,
zeta-*, Q17-Q19) are families of their own in the same table.

The presented algebra is never materialized abstractly: its elements are
operator words evaluated exactly on tensor-space basis vectors.  A
relation instance passes when lhs - rhs annihilates every basis tensor
with indices in [1, n], or for an omega-space relation the r! of them of
weight omega.  The action commutes with adding n to any single index
(see aschur.tensor), so a pass is equality on all of V^(x)r, or on the
omega weight space V_omega.  Three lemmas shrink that box and keep it
complete (verification_domain), and tensor.word_support reads the facts
the first two need off each distinct word in one scan.  Grading: a word
with a projector is zero off one source weight, so when every term has
one, only those weight spaces are evaluated.  Inert residues: an index
whose residue no symbol of a P- and R-free relation touches is never
moved or counted, so one representative residue stands for all such
indices.  Orbits: a word without E and F commutes with permuting the
tensor positions (the classical Schur-Weyl symmetry), so for a relation
with no E or F one nondecreasing tensor stands for its S_r-orbit.  Each
domain is built once and cached on plain keys.  Every report names the
domain it evaluated and says that it is complete.  The phi-basis
relations Q17-Q19 are identities of SchurElements, checked exactly.

LEMMAS holds, in the same row format, the identities the paper proves
beside the relations: the cancellation principle F_i^c E_i^c 1_lam =
z 1_lam and its mirror, the E_n factorization den E_n 1_lam = num
sigma(W) E_n M, the omega anchor 1_omega zeta(w) = zeta(w) and K_i^(+-1)
= sum_lam v^(+-lam_i) 1_lam.  Suite.run checks them exactly as it checks
a relation suite.

Also here: the weight idempotents, the rotation automorphism and the
E/F-swapping antiautomorphism, the commutation and cancellation rules
for idempotents, the distinguished-monomial analyzer, the zeta elements,
and the constructive monomials used to pull E_n across weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations_with_replacement, groupby, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .aweyl import AffinePerm, enumerate_parabolic
from .hecke import young_parabolic
from .operators import (
    E,
    F,
    K,
    Kinv,
    OperatorExpr,
    P,
    R,
    Rinv,
    Sym,
    Word,
    cH,
    ce,
    cf,
    chain,
    power,
)
from .ring import V, LaurentPoly, add_term, gauss_binom, quantum_fact, signed_quantum_int
from .schur import SchurBasisIndex, SchurElement
from .tensor import (
    Basis,
    act_expr_basis,
    nonzero_starts,
    render_basis,
    render_vector,
    tau,
    vec_sub,
    weight_space_basis,
    word_support,
)
from .weights import Weight, all_weights, omega, plus_alpha_parts, residue

_Q = LaurentPoly.q()


# -- projectors -------------------------------------------------------------------


def projector(lam: Weight) -> OperatorExpr:
    """The weight idempotent 1_lambda as an operator word."""
    return OperatorExpr.word([P(lam)])


# -- relation instances and verification --------------------------------------------


@dataclass
class RelationInstance:
    """One relation, lhs = rhs, on a domain.

    "full" and "omega" relations are operator identities on V^(x)r and on
    the omega weight space V_omega; a "phi" relation is an identity of
    SchurElements in the phi basis.
    """

    name: str
    description: str
    lhs: OperatorExpr | SchurElement
    rhs: OperatorExpr | SchurElement
    params: dict = field(default_factory=dict)
    domain: str = "full"  # or "omega", "phi"


@dataclass
class CheckReport:
    name: str
    description: str
    params: dict
    window: str
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tail = f"  [{ps}]" if ps else ""
        extra = f"  counterexample: {self.counterexample}" if self.counterexample else ""
        return f"{status}  {self.name}{tail}  ({self.window}){extra}"

    def structured(self) -> dict:
        return {
            "schema": "aschur.check/1",
            "name": self.name,
            "description": self.description,
            "params": {k: str(v) for k, v in self.params.items()},
            "window": self.window,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


Domain = tuple[tuple[Basis, ...], str]  # the tensors and the window text


@lru_cache(maxsize=None)
def _weight_space(n: int, lam: Weight, untwisted: bool = False) -> tuple[Basis, ...]:
    """The basis tensors of weight lam with indices in [1, n], or for an
    untwisted instance its one nondecreasing tensor; cached, as the
    instances of a suite share a few weights."""
    space = weight_space_basis(n, lam, 1, n)
    return tuple(b for b in space if not untwisted or list(b) == sorted(b))


def _tensors(indices: Iterable[int], r: int, untwisted: bool) -> tuple[Basis, ...]:
    """indices^r in lexicographic order, or for an untwisted instance its
    nondecreasing members."""
    return tuple(combinations_with_replacement(indices, r) if untwisted
                 else product(indices, repeat=r))


def _window(lead: str, untwisted: bool, space: str) -> str:
    return f"{lead}{', nondecreasing tensors only' if untwisted else ''}; complete on {space}"


# The domain builders, each cached on plain keys, as the instances of a
# suite share a few domains.


@lru_cache(maxsize=None)
def _omega_domain(n: int, r: int, untwisted: bool) -> Domain:
    return (_weight_space(n, omega(n, r), untwisted),
            _window(f"omega weight space, indices in [1,{n}]", untwisted, "V_omega"))


@lru_cache(maxsize=None)
def _graded_domain(n: int, r: int, weights: frozenset, untwisted: bool) -> Domain:
    ordered = sorted(weights, reverse=True)
    names = " ".join(lam.render() for lam in ordered) or "none (every term is zero)"
    lead = f"weight spaces {names} with indices in [1,{n}]"
    return (tuple(b for lam in ordered for b in _weight_space(n, lam, untwisted)),
            _window(lead, untwisted, f"V^(x){r}"))


@lru_cache(maxsize=None)
def _inert_domain(n: int, r: int, active: frozenset, untwisted: bool) -> Domain:
    c = min(set(range(1, n + 1)) - active)
    lead = f"indices in {{{','.join(map(str, sorted(active)))}}} plus {c} for every other residue"
    return _tensors(sorted(active | {c}), r, untwisted), _window(lead, untwisted, f"V^(x){r}")


@lru_cache(maxsize=None)
def _box_domain(n: int, r: int, untwisted: bool) -> Domain:
    return (_tensors(range(1, n + 1), r, untwisted),
            _window(f"all basis tensors with indices in [1,{n}]", untwisted, f"V^(x){r}"))


def _domain(n: int, r: int, inst: RelationInstance) -> tuple[tuple[Basis, ...], str, dict, bool]:
    """verification_domain's tensors and window, the word_support of each
    distinct word of lhs and rhs, and whether the instance is untwisted (no
    word has E or F): the distinct words pick all of them."""
    support = {w: word_support(n, r, w) for w in {**inst.lhs.terms, **inst.rhs.terms}}
    untwisted = not any(kind in ("E", "F") for w in support for kind, _, _ in w)
    if inst.domain == "omega":
        return (*_omega_domain(n, r, untwisted), support, untwisted)
    pinned = [weights for weights, _ in support.values()]
    if None not in pinned:
        return (*_graded_domain(n, r, frozenset().union(*pinned), untwisted), support, untwisted)
    touched = [residues for _, residues in support.values()]
    if None not in touched:
        active = frozenset().union(*touched)
        if len(active) < n:
            return (*_inert_domain(n, r, active, untwisted), support, untwisted)
    return (*_box_domain(n, r, untwisted), support, untwisted)


def verification_domain(n: int, r: int, inst: RelationInstance) -> tuple[tuple[Basis, ...], str]:
    """The basis tensors verify_identity evaluates an instance on, and the
    window text naming them: the first of these complete domains that
    applies.  Both lemma facts come from one tensor.word_support scan of
    each distinct word of lhs and rhs.

    - omega: an omega-space relation, on the r! tensors of weight omega.
    - graded: every word of lhs and rhs has a projector.  Each is zero off
      its source weight, so only those weight spaces are evaluated.
    - inert residues: no word has P, R or R^-1, and some residue c is
      outside the residues S that the words touch.  The tensors with
      indices in S and c are evaluated.
    - full: [1, n]^r.

    Orbits: when no word has E or F (the instance is untwisted), only the
    nondecreasing tensors t_1 <= ... <= t_r of that domain are evaluated,
    and the window says so before its completeness claim.  K_i^(+-1) and
    H_i read a residue count, e_i and f_i are twist-free sums over the
    positions, R^(+-1) shifts every index and P(lam) reads the weight, so
    each of them, and every word made of them, commutes with swapping two
    tensor positions.  Every domain above is S_r-stable (a weight space, a
    product over a residue set, or the box), so each S_r-orbit keeps
    exactly one member, and lhs - rhs is zero on the orbit when it is zero
    there.  E_i and F_i carry the twist K_i K_{i+1}^-1 on the positions
    after or before them and do not commute with the swaps.  Each domain
    is built once per (n, r) and plain key (the pinned weights, the
    touched residues, untwisted) and cached.

    >>> zero = OperatorExpr.zero()
    >>> vecs, window = verification_domain(
    ...     3, 2, RelationInstance("", "", _w(E(1), P(Weight((1, 1, 0)))), zero))
    >>> list(vecs), window
    ([(1, 2), (2, 1)], 'weight spaces (1,1,0) with indices in [1,3]; complete on V^(x)2')
    >>> vecs, window = verification_domain(4, 2, RelationInstance("", "", _w(K(1), K(2)), zero))
    >>> len(list(vecs))
    6
    >>> print(window)
    indices in {1,2} plus 3 for every other residue, nondecreasing tensors only; complete on V^(x)2
    >>> vecs, window = verification_domain(
    ...     3, 2, RelationInstance("", "", _w(Rinv, E(2), R), _w(E(1))))
    >>> len(list(vecs)), window
    (9, 'all basis tensors with indices in [1,3]; complete on V^(x)2')
    """
    return _domain(n, r, inst)[:2]


def verify_identity(n: int, r: int, inst: RelationInstance) -> CheckReport:
    """Evaluate lhs - rhs on the smallest complete domain that applies
    (verification_domain); exact zero means pass on all of V^(x)r, or of
    V_omega for an omega-space relation.

    Completeness rests on four lemmas.  Shift: the action commutes with
    adding n to one index (aschur.tensor), so [1, n]^r, or its weight-omega
    part, stands for every tensor.  Grading: a word that contains P(lam)
    is zero off one source weight, so when every term has a projector only
    those weight spaces can carry a difference.  Inert residues: an index
    whose residue no symbol touches is never moved and never counted, so
    one representative residue stands for all of them.  Orbits: a word
    without E and F commutes with permuting the tensor positions, so for
    an instance with no E or F one nondecreasing tensor stands for its
    S_r-orbit.

    Each distinct word of lhs and rhs is scanned once (tensor.word_support),
    and those results pick both the domain, built once and cached, and
    each run's starts: the grading lemma also applies per term.  Each word
    of lhs - rhs runs once, in one batched integer pass
    (tensor.nonzero_starts), from only the domain tensors it can be nonzero
    on: those of its source weight when it has a projector (nondecreasing
    only, for an untwisted instance), none when it is zero everywhere, and
    all of them otherwise.  Laurent vectors are built only for the
    counterexample of a FAIL, on the first flagged tensor in domain order;
    each domain is in lexicographic order within a weight space, so that
    tensor is the one the unreduced domain would give.
    """
    vectors, window, support, untwisted = _domain(n, r, inst)
    runs = []
    for word, coeff in vec_sub(inst.lhs.terms, inst.rhs.terms).items():
        pinned = support[word][0]
        if pinned is None:
            runs.append((word, coeff, vectors))
        elif pinned and (inst.domain != "omega" or pinned[0] == omega(n, r)):
            # every domain but omega holds all of [1, n]^r of a pinned weight,
            # or all its nondecreasing tensors when untwisted
            runs.append((word, coeff, _weight_space(n, pinned[0], untwisted)))
    flagged = nonzero_starts(n, runs)
    if not flagged:
        return CheckReport(inst.name, inst.description, inst.params, window, True)
    b = next((b for b in vectors if b in flagged), None)
    diff = None if b is None else vec_sub(act_expr_basis(n, inst.lhs, b),
                                          act_expr_basis(n, inst.rhs, b))
    if not diff:  # the batched run and the Laurent route disagree: a fault, not a verdict
        raise RuntimeError(f"{inst.name}: the batched check flagged {sorted(flagged)[:3]}, "
                           "where lhs - rhs is zero")
    return CheckReport(inst.name, inst.description, inst.params, window, False,
                       f"{render_basis(b)} -> {render_vector(diff)}")


def verify_schur_relation(inst: RelationInstance) -> CheckReport:
    """lhs = rhs as SchurElements; a FAIL's counterexample is lhs - rhs."""
    passed = inst.lhs == inst.rhs
    return CheckReport(inst.name, inst.description, inst.params, "phi-basis identity (exact)",
                       passed, None if passed else (inst.lhs - inst.rhs).render())


def verify_all(n: int, r: int, insts: Iterable[RelationInstance]) -> list[CheckReport]:
    """Check every instance; the reports are sorted by name and params.
    run_suite and Suite.run pass an iterator over their list of instances,
    so that the instances are freed before the sort."""
    reports = [verify_schur_relation(inst) if inst.domain == "phi" else verify_identity(n, r, inst)
               for inst in insts]
    reports.sort(key=lambda rep: (rep.name, sorted(rep.params.items())))
    return reports


def suite(name: str, n: int, r: int) -> list[RelationInstance]:
    """All instances of a named relation suite for the given (n, r)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return SUITES[name].instances(n, r)


def run_suite(name: str, n: int, r: int) -> list[CheckReport]:
    return verify_all(n, r, iter(suite(name, n, r)))


# -- index helpers ----------------------------------------------------------------


def _eps_plus(i: int, j: int, n: int) -> int:
    """[j = i] - [j = i - 1], indices mod n: both hold at n = 1, giving 0."""
    return ((j - i) % n == 0) - ((j + 1 - i) % n == 0)


def _nodes(n: int, affine: bool) -> range:
    """The E/F indices: the affine nodes 1..n or the finite nodes 1..n-1."""
    return range(1, n + 1) if affine else range(1, n)


def _adjacent(i: int, j: int, n: int) -> bool:
    """Adjacent on the affine Dynkin cycle; on the finite nodes 1..n-1
    this is |i - j| = 1."""
    return (i - j) % n in (1, n - 1) and i != j


def _w(*syms: Sym) -> OperatorExpr:
    return OperatorExpr.word(syms)


# -- the shared relation families ---------------------------------------------------
#
# A family maps (n, r) to the (params, lhs, rhs) of its instances.


class Generators(NamedTuple):
    """The alphabet and scalars a shared family is written in."""

    e: str  # symbol kind of the raising generators
    f: str  # symbol kind of the lowering generators
    k: str  # symbol kind of the Cartan generators
    qint: Callable[[int], LaurentPoly]  # a -> [a]
    vpow: Callable[[int], LaurentPoly]  # a -> v^a
    binom: Callable[[int, int], LaurentPoly]  # (m, k) -> [m choose k]


def _comb(m: int, k: int) -> LaurentPoly:
    return LaurentPoly.const(math.comb(m, k))


QUANTUM = Generators("E", "F", "K", signed_quantum_int, LaurentPoly.v, gauss_binom)
# The classical specialization at v = 1: E -> e, F -> f, K -> H, [a] -> a, v^a -> a,
# [m choose k] -> m choose k.
CLASSICAL = Generators("e", "f", "H", LaurentPoly.const, LaurentPoly.const, _comb)

Instance = tuple[dict, "OperatorExpr | SchurElement", "OperatorExpr | SchurElement"]
Family = Callable[[int, int], Iterable[Instance]]  # (n, r) -> (params, lhs, rhs), ...


def _k_commute(g: Generators, n: int, r: int) -> Iterator[Instance]:
    """K_i K_j = K_j K_i for i < j."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ki, kj = Sym(g.k, i), Sym(g.k, j)
            yield {"i": i, "j": j}, _w(ki, kj), _w(kj, ki)


def _commutator_rhs(g: Generators, n: int, r: int, j: int) -> OperatorExpr:
    """sum over weights of [lambda_j - lambda_{j+1}] 1_lambda."""
    out = OperatorExpr.zero()
    for lam in all_weights(n, r):
        coeff = g.qint(lam.entry(j) - lam.entry(j + 1))
        if not coeff.is_zero():
            out = out + OperatorExpr.word([P(lam)], coeff)
    return out


def _ef_commutator(g: Generators, n: int, r: int, *, affine: bool) -> Iterator[Instance]:
    """E_i F_j - F_j E_i = delta_ij sum_lam [lam_j - lam_{j+1}] 1_lam."""
    nodes = _nodes(n, affine)
    for i in nodes:
        for j in nodes:
            e, f = Sym(g.e, i), Sym(g.f, j)
            rhs = _commutator_rhs(g, n, r, j) if i == j else OperatorExpr.zero()
            yield {"i": i, "j": j}, _w(e, f) - _w(f, e), rhs


def _commute(kind: str, n: int, r: int, *, affine: bool) -> Iterator[Instance]:
    """X_i X_j = X_j X_i for non-adjacent i < j."""
    nodes = _nodes(n, affine)
    for i in nodes:
        for j in nodes:
            if i < j and not _adjacent(i, j, n):
                x, y = Sym(kind, i), Sym(kind, j)
                yield {"i": i, "j": j}, _w(x, y), _w(y, x)


def _serre(g: Generators, kind: str, n: int, r: int, *, affine: bool) -> Iterator[Instance]:
    """sum_k (-1)^k [m choose k] X_i^(m-k) X_j X_i^k = 0 for adjacent i != j,
    with m = 1 - a_ij: 3 at n = 2, where the affine Cartan entry a_12 is -2,
    and 2 otherwise."""
    m = 3 if n == 2 else 2
    coeffs = [g.binom(m, k) * (-1) ** k for k in range(m + 1)]
    nodes = _nodes(n, affine)
    for i in nodes:
        for j in nodes:
            if i != j and _adjacent(i, j, n):
                x, y = Sym(kind, i), Sym(kind, j)
                lhs = OperatorExpr({
                    tuple(power(x, m - k) + [y] + power(x, k)): c for k, c in enumerate(coeffs)
                })
                yield {"i": i, "j": j}, lhs, OperatorExpr.zero()


def _k_polynomial(g: Generators, n: int, r: int) -> Iterator[Instance]:
    """(K_i - 1)(K_i - v)...(K_i - v^r) = 0."""
    for i in range(1, n + 1):
        prod = OperatorExpr.one()
        for s in range(r + 1):
            prod = prod * (_w(Sym(g.k, i)) - OperatorExpr.one().scaled(g.vpow(s)))
        yield {"i": i}, prod, OperatorExpr.zero()


def _idempotents_orthogonal(n: int, r: int) -> Iterator[Instance]:
    """1_lam 1_mu = delta 1_lam, for each unordered pair of weights."""
    weights = all_weights(n, r)
    for a, lam in enumerate(weights):
        for mu in weights[a:]:
            rhs = projector(lam) if lam == mu else OperatorExpr.zero()
            yield {"lam": lam.render(), "mu": mu.render()}, _w(P(lam), P(mu)), rhs


def _idempotent_commute(kind: str, n: int, r: int) -> Iterator[Instance]:
    """X_i 1_lam = 1_{lam +- alpha_i} X_i, or 0 when that weight is not one."""
    for i in range(1, n + 1):
        for lam in all_weights(n, r):
            lhs = _w(Sym(kind, i), P(lam))
            yield {"i": i, "lam": lam.render()}, lhs, commute_projector(kind, i, lam)


# -- the relations of one suite -----------------------------------------------------


def _k_inverse(n: int, r: int) -> Iterator[Instance]:
    for i in range(1, n + 1):
        yield {"i": i}, _w(K(i), Kinv(i)) + _w(Kinv(i), K(i)), OperatorExpr.one().scaled(2)


def _k_conjugates(kind: str, sign: int, n: int, r: int, *, affine: bool) -> Iterator[Instance]:
    """K_i X_j = v^(sign eps+(i,j)) X_j K_i."""
    for i in range(1, n + 1):
        for j in _nodes(n, affine):
            x = Sym(kind, j)
            coeff = LaurentPoly.v(sign * _eps_plus(i, j, n))
            yield {"i": i, "j": j}, _w(K(i), x), OperatorExpr.word([x, K(i)], coeff)


def _r_inverse(n: int, r: int) -> Iterator[Instance]:
    yield {}, _w(R, Rinv) + _w(Rinv, R), OperatorExpr.one().scaled(2)


def _r_conjugates(kind: str, n: int, r: int) -> Iterator[Instance]:
    """R^-1 X_{i+1} R = X_i."""
    for i in range(1, n + 1):
        yield {"i": i}, _w(Rinv, Sym(kind, residue(i + 1, n)), R), _w(Sym(kind, i))


def _q15_text(e: int) -> str:
    return f"K_1 ... K_n = v^{e}"


def q15_instance(n: int, r: int, corrupt: bool = False) -> RelationInstance:
    """K_1 ... K_n = v^r; the corrupted variant (v^{r+1}) is a negative control."""
    e = r + 1 if corrupt else r
    return RelationInstance(
        "Q15" + ("-corrupted" if corrupt else ""),
        _q15_text(e),
        _w(*[K(i) for i in range(1, n + 1)]),
        OperatorExpr.one().scaled(LaurentPoly.v(e)),
    )


def _q15(n: int, r: int) -> Iterator[Instance]:
    inst = q15_instance(n, r)
    yield inst.params, inst.lhs, inst.rhs


def _young_elements(lam: Weight) -> list[AffinePerm]:
    return sorted(enumerate_parabolic(young_parabolic(lam)),
                  key=lambda w: (w.length(), w.window))


def _q17(n: int, r: int) -> Iterator[Instance]:
    om, e = omega(n, r), AffinePerm.identity(r)
    weights = all_weights(n, r)
    # Each phi^1_{omega,lam} and phi^1_{mu,omega} is built once, not once
    # per pair: a SchurBasisIndex checks its d on construction.
    left = {lam: SchurElement.basis(SchurBasisIndex(om, lam, e)) for lam in weights}
    right = {mu: SchurElement.basis(SchurBasisIndex(mu, om, e)) for mu in weights}
    named = [(lam, lam.render()) for lam in weights]
    for lam, lam_name in named:
        for mu, mu_name in named:
            lhs = left[lam] * right[mu]
            if lam == mu:
                rhs = SchurElement(n, r, {
                    SchurBasisIndex(om, om, d): LaurentPoly.one()
                    for d in _young_elements(lam)
                })
            else:
                rhs = SchurElement(n, r)
            yield {"lam": lam_name, "mu": mu_name}, lhs, rhs


def _q18_q19(n: int, r: int, *, left: bool) -> Iterator[Instance]:
    """phi^s phi^1_{omega,lam} = q phi^1_{omega,lam} (left), or its mirror
    phi^1_{lam,omega} phi^s = q phi^1_{lam,omega}."""
    om, e = omega(n, r), AffinePerm.identity(r)
    phis = {
        i: SchurElement.basis(SchurBasisIndex(om, om, AffinePerm.s(r, i)))
        for i in range(1, r)
    }
    for lam in all_weights(n, r):
        idx = SchurBasisIndex(om, lam, e) if left else SchurBasisIndex(lam, om, e)
        x, name = SchurElement.basis(idx), lam.render()
        for i in sorted(young_parabolic(lam).gens):
            lhs = phis[i] * x if left else x * phis[i]
            yield {"lam": name, "i": i}, lhs, x.scaled(_Q)


def _tau_quadratic(variant: str, n: int, r: int) -> Iterator[Instance]:
    # At r = 1 the affine Weyl group is trivial: it has no s_i.
    for i in range(1, r + 1) if r > 1 else ():
        t = tau(n, r, f"s{i}", variant)
        yield ({"i": i, "variant": variant}, t * t,
               t.scaled(_Q - 1) + OperatorExpr.one().scaled(_Q))


def _tau_commute(variant: str, n: int, r: int) -> Iterator[Instance]:
    for i in range(1, r):
        for j in range(i + 2, r):
            ti, tj = tau(n, r, f"s{i}", variant), tau(n, r, f"s{j}", variant)
            yield {"i": i, "j": j, "variant": variant}, ti * tj, tj * ti


def _tau_braid(variant: str, n: int, r: int) -> Iterator[Instance]:
    for i in range(1, r - 1):
        ti, tj = tau(n, r, f"s{i}", variant), tau(n, r, f"s{i + 1}", variant)
        yield {"i": i, "j": i + 1, "variant": variant}, ti * tj * ti, tj * ti * tj


def _tau_rotate(variant: str, n: int, r: int) -> Iterator[Instance]:
    trho = tau(n, r, "rho", variant)
    for i in range(1, r - 1):
        ti, tj = tau(n, r, f"s{i}", variant), tau(n, r, f"s{i + 1}", variant)
        yield {"i": i, "variant": variant}, trho * tj, ti * trho


def _tau_period(variant: str, n: int, r: int) -> Iterator[Instance]:
    trho = tau(n, r, "rho", variant)
    rho_r = OperatorExpr.one()
    for _ in range(r):
        rho_r = rho_r * trho
    for i in range(1, r):
        ti = tau(n, r, f"s{i}", variant)
        yield {"i": i, "variant": variant}, rho_r * ti, ti * rho_r


def _tau_inverse(variant: str, n: int, r: int) -> Iterator[Instance]:
    trho, trhoi = tau(n, r, "rho", variant), tau(n, r, "rho-inv", variant)
    yield {"variant": variant}, trho * trhoi + trhoi * trho, OperatorExpr.one().scaled(2)


def _tau_rows(tag: str, variant: str) -> tuple[Row, ...]:
    return (
        (f"{tag}-quadratic", "tau(s_i)^2 = (q-1) tau(s_i) + q",
         partial(_tau_quadratic, variant)),
        (f"{tag}-commute", "tau(s_i) tau(s_j) = tau(s_j) tau(s_i), |i-j|>1",
         partial(_tau_commute, variant)),
        (f"{tag}-braid", "tau braid relation, |i-j|=1", partial(_tau_braid, variant)),
        (f"{tag}-rotate", "tau(rho) tau(s_{i+1}) = tau(s_i) tau(rho)",
         partial(_tau_rotate, variant)),
        (f"{tag}-period", "tau(rho)^r commutes with tau(s_i)", partial(_tau_period, variant)),
        (f"{tag}-inverse", "tau(rho) tau(rho^-1) = id = tau(rho^-1) tau(rho)",
         partial(_tau_inverse, variant)),
    )


def _tau_r_chain(n: int, r: int) -> Iterator[Instance]:
    yield {}, _w(R), _w(*chain("F", range(1, r + 1)))


def _tau_rinv_chain(n: int, r: int) -> Iterator[Instance]:
    yield {}, _w(Rinv), _w(*(chain("E", range(r - 1, 0, -1)) + [E(n)]))


def _tau_variants_agree(n: int, r: int) -> Iterator[Instance]:
    for name in ("rho", "rho-inv") + ((f"s{r}",) if r > 1 else ()):
        yield {"element": name}, tau(n, r, name, "with-R"), tau(n, r, name, "R-free")


def _zeta_rho_inv_rewrite(n: int, r: int) -> Iterator[Instance]:
    syms = [F(n)] + chain("F", range(1, r)) + chain("F", range(n - 1, r - 1, -1))
    yield {}, zeta(n, r, "rho-inv"), _w(*(syms + [P(omega(n, r))]))


def _zeta_rho_rewrite(n: int, r: int) -> Iterator[Instance]:
    syms = chain("E", range(r, 0, -1)) + chain("E", range(r + 1, n + 1))
    yield {}, zeta(n, r, "rho"), _w(*(syms + [P(omega(n, r))]))


def _zeta_inverse(first: str, second: str, n: int, r: int) -> Iterator[Instance]:
    yield {}, zeta(n, r, first) * zeta(n, r, second), projector(omega(n, r))


def _zeta_intertwine(n: int, r: int) -> Iterator[Instance]:
    m_word = chain("E", range(r - 1, 0, -1)) + chain("E", range(r + 1, n + 1))
    m_expr = _w(*(m_word + [P(omega(n, r))]))
    for i in range(2, r):
        lhs = (_w(F(i - 1), E(i - 1)).scaled(V) - OperatorExpr.one()) * m_expr
        rhs = m_expr * (_w(F(i), E(i)).scaled(V) - OperatorExpr.one())
        yield {"i": i}, lhs, rhs


def _zeta_rotate(n: int, r: int) -> Iterator[Instance]:
    zrho = zeta(n, r, "rho")
    for i in range(2, r):
        yield {"i": i}, zeta(n, r, f"s{i - 1}") * zrho, zrho * zeta(n, r, f"s{i}")


def _zeta_ef_swap(n: int, r: int) -> Iterator[Instance]:
    om = omega(n, r)
    for i in range(1, r):
        yield {"i": i}, zeta(n, r, f"s{i}"), _w(E(i), F(i), P(om)).scaled(V) - projector(om)


def _zeta_boundary_swap(n: int, r: int) -> Iterator[Instance]:
    om = omega(n, r)
    ef_chain = chain("E", range(r, n + 1)) + chain("F", range(n, r - 1, -1))
    yield {}, zeta(n, r, f"s{r}"), OperatorExpr.word([P(om)] + ef_chain, V) - projector(om)


def _zeta_en_transport(n: int, r: int) -> Iterator[Instance]:
    om = omega(n, r)
    v = OperatorExpr.one().scaled(V)
    yield ({}, (_w(E(n), F(n)) - v) * _w(E(1), E(n), P(om)),
           _w(E(1), E(n)) * (_w(E(1), F(1)) - v) * projector(om))


def _zeta_chain_transport(n: int, r: int) -> Iterator[Instance]:
    one_om = projector(omega(n, r))
    e_desc = _w(*chain("E", range(r, 0, -1)))
    vinv = OperatorExpr.one().scaled(V.bar())
    yield ({}, one_om * (_w(F(r - 1), E(r - 1)) - vinv) * e_desc,
           one_om * e_desc * (_w(F(r), E(r)) - vinv))


def _zeta_rot_sr(n: int, r: int, *, left: bool) -> Iterator[Instance]:
    """zeta(rho) zeta(s_r) = zeta(s_{r-1}) zeta(rho) (left), or
    zeta(rho) zeta(s_1) = zeta(s_r) zeta(rho)."""
    zrho, zsr = zeta(n, r, "rho"), zeta(n, r, f"s{r}")
    if left:
        yield {}, zrho * zsr, zeta(n, r, f"s{max(r - 1, 1)}") * zrho
    else:
        yield {}, zrho * zeta(n, r, "s1"), zsr * zrho


def _h_brackets(kind: str, sign: int, n: int, r: int) -> Iterator[Instance]:
    """H_i x_j - x_j H_i = sign eps+(i,j) x_j."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x = Sym(kind, j)
            rhs = OperatorExpr.word([x], sign * _eps_plus(i, j, n))
            yield {"i": i, "j": j}, _w(cH(i), x) - _w(x, cH(i)), rhs


def _h_commutator(n: int, r: int) -> Iterator[Instance]:
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = (_w(cH(j)) - _w(cH(residue(j + 1, n)))) if i == j else OperatorExpr.zero()
            yield {"i": i, "j": j}, _w(ce(i), cf(j)) - _w(cf(j), ce(i)), rhs


def _h_sum(n: int, r: int) -> Iterator[Instance]:
    total = sum((_w(cH(i)) for i in range(1, n + 1)), OperatorExpr.zero())
    yield {}, total, OperatorExpr.one().scaled(r)


def _idempotents_sum(n: int, r: int) -> Iterator[Instance]:
    total = sum((projector(lam) for lam in all_weights(n, r)), OperatorExpr.zero())
    yield {}, total, OperatorExpr.one()


# -- the lemmas ---------------------------------------------------------------------


def _cancellation(n: int, r: int) -> Iterator[Instance]:
    """F_i^c E_i^c 1_lam = z 1_lam and E_i^c F_i^c 1_lam = z 1_lam, wherever
    cancellation gives z."""
    for lam in all_weights(n, r):
        for i in range(1, n + 1):
            for c in range(1, r + 1):
                for direction, x, y in (("FE", F(i), E(i)), ("EF", E(i), F(i))):
                    try:
                        z = cancellation(lam, i, c, direction)
                    except ValueError:
                        continue
                    yield ({"lam": lam.render(), "i": i, "c": c, "direction": direction},
                           _w(*power(x, c), *power(y, c), P(lam)), projector(lam).scaled(z))


_EN_TEXT = "den E_n 1_lam = num sigma(W) E_n M"


def _en_factorization(n: int, r: int) -> Iterator[Instance]:
    for lam in all_weights(n, r):
        if lam[0] > 0:
            lhs, rhs, _, _ = en_factorization_sides(n, r, lam)
            yield {"lam": lam.render()}, lhs, rhs


def _zeta_anchor(n: int, r: int) -> Iterator[Instance]:
    one_om = projector(omega(n, r))
    for name in ("rho", "rho-inv") + tuple(f"s{i}" for i in range(1, r + 1)):
        yield {"element": name}, one_om * zeta(n, r, name), zeta(n, r, name)


def _k_from_projectors(n: int, r: int) -> Iterator[Instance]:
    for i in range(1, n + 1):
        for sign, k in ((1, K(i)), (-1, Kinv(i))):
            rhs = OperatorExpr({(P(lam),): LaurentPoly.v(sign * lam.entry(i))
                                for lam in all_weights(n, r)})
            yield {"i": i, "sign": sign}, _w(k), rhs


# -- the relation table --------------------------------------------------------------

Row = tuple[str, str | Callable[[int], str], Family]  # a callable text takes r


class Suite(NamedTuple):
    rows: tuple[Row, ...]
    domain: str = "full"  # "omega": the omega weight space; "phi": the phi basis
    needs_n_gt_r: bool = True  # the affine presentation covers only n > r

    def instances(self, n: int, r: int) -> list[RelationInstance]:
        """Every instance of every row at (n, r)."""
        if self.needs_n_gt_r and n <= r:
            raise ValueError(f"this suite requires n > r (got n={n}, r={r})")
        out = []
        for rel, text, family in self.rows:
            if callable(text):
                text = text(r)
            for params, lhs, rhs in family(n, r):
                out.append(RelationInstance(rel, text, lhs, rhs, params, self.domain))
        return out

    def run(self, n: int, r: int) -> list[CheckReport]:
        return verify_all(n, r, iter(self.instances(n, r)))


def _q1_to_q9(affine: bool, suffix: str) -> tuple[Row, ...]:
    """Q1-Q9 over the affine nodes 1..n or the finite nodes 1..n-1."""
    q = QUANTUM
    rows = (
        ("Q1", "K_i K_j = K_j K_i", partial(_k_commute, q)),
        ("Q2", "K_i K_i^-1 = 1 = K_i^-1 K_i", _k_inverse),
        ("Q3", "K_i E_j = v^eps+(i,j) E_j K_i", partial(_k_conjugates, "E", 1, affine=affine)),
        ("Q4", "K_i F_j = v^eps-(i,j) F_j K_i", partial(_k_conjugates, "F", -1, affine=affine)),
        ("Q5", "E_i F_j - F_j E_i = delta_ij (K~_i - K~_i^-1)/(v - v^-1)",
         partial(_ef_commutator, q, affine=affine)),
        ("Q6", "E_i E_j = E_j E_i (non-adjacent)", partial(_commute, "E", affine=affine)),
        ("Q7", "F_i F_j = F_j F_i (non-adjacent)", partial(_commute, "F", affine=affine)),
        ("Q8", "E-Serre relation (adjacent)", partial(_serre, q, "E", affine=affine)),
        ("Q9", "F-Serre relation (adjacent)", partial(_serre, q, "F", affine=affine)),
    )
    return tuple((name + suffix, text, family) for name, text, family in rows)


_Q16_TEXT = "(K_i - 1)(K_i - v)...(K_i - v^r) = 0"

SUITES: dict[str, Suite] = {
    "qaffine": Suite(_q1_to_q9(affine=True, suffix="")),
    "extended": Suite((
        ("Q10", "R R^-1 = 1 = R^-1 R", _r_inverse),
        ("Q11", "R^-1 K_{i+1} R = K_i", partial(_r_conjugates, "K")),
        ("Q12", "R^-1 K_{i+1}^-1 R = K_i^-1", partial(_r_conjugates, "Kinv")),
        ("Q13", "R^-1 E_{i+1} R = E_i", partial(_r_conjugates, "E")),
        ("Q14", "R^-1 F_{i+1} R = F_i", partial(_r_conjugates, "F")),
    )),
    "schur-presentation": Suite((
        ("Q15", _q15_text, _q15),
        ("Q16", _Q16_TEXT, partial(_k_polynomial, QUANTUM)),
    )),
    "finite-schur": Suite(_q1_to_q9(affine=False, suffix="f") + (
        ("Q15f", _q15_text, _q15),
        ("Q16f", _Q16_TEXT, partial(_k_polynomial, QUANTUM)),
    ), needs_n_gt_r=False),
    "q17-19": Suite((
        ("Q17", "phi^1_{omega,lam} phi^1_{mu,omega} = delta sum_{d in W_lam} phi^d", _q17),
        ("Q18", "phi^s phi^1_{omega,lam} = q phi^1_{omega,lam}", partial(_q18_q19, left=True)),
        ("Q19", "phi^1_{lam,omega} phi^s = q phi^1_{lam,omega}", partial(_q18_q19, left=False)),
    ), domain="phi"),
    "hecke-tau": Suite(_tau_rows("tau", "with-R") + _tau_rows("tau'", "R-free") + (
        ("tau-R-chain", "R agrees with F_1 F_2 ... F_r on the omega space", _tau_r_chain),
        ("tau-Rinv-chain", "R^-1 agrees with (E_{r-1} ... E_1) E_n on the omega space",
         _tau_rinv_chain),
        ("tau-variants-agree", "with-R and R-free variants agree on the omega space",
         _tau_variants_agree),
    ), domain="omega"),
    "idempotented": Suite((
        ("R1", "1_lam 1_mu = delta 1_lam", _idempotents_orthogonal),
        ("R1-sum", "sum of all 1_lam = 1", _idempotents_sum),
        ("R2", "E_i 1_lam = 1_{lam+alpha_i} E_i if lam_{i+1}>0 else 0",
         partial(_idempotent_commute, "E")),
        ("R3", "F_i 1_lam = 1_{lam-alpha_i} F_i if lam_i>0 else 0",
         partial(_idempotent_commute, "F")),
        ("R4", "E_i F_j - F_j E_i = delta_ij sum [lam_j - lam_{j+1}] 1_lam",
         partial(_ef_commutator, QUANTUM, affine=True)),
        ("R-serre-E", "E-Serre relation (adjacent)", partial(_serre, QUANTUM, "E", affine=True)),
        ("R-serre-F", "F-Serre relation (adjacent)", partial(_serre, QUANTUM, "F", affine=True)),
        ("R-commute-E", "E_i E_j = E_j E_i (non-adjacent)", partial(_commute, "E", affine=True)),
        ("R-commute-F", "F_i F_j = F_j F_i (non-adjacent)", partial(_commute, "F", affine=True)),
    )),
    "zeta": Suite((
        ("zeta-rho-inv-rewrite", "zeta(rho^-1) = F_n (F_1...F_{r-1}) (F_{n-1}...F_r) 1_omega",
         _zeta_rho_inv_rewrite),
        ("zeta-rho-rewrite", "zeta(rho) = (E_r...E_1) (E_{r+1}...E_n) 1_omega",
         _zeta_rho_rewrite),
        ("zeta-inverse-left", "zeta(rho^-1) zeta(rho) = 1_omega",
         partial(_zeta_inverse, "rho-inv", "rho")),
        ("zeta-inverse-right", "zeta(rho) zeta(rho^-1) = 1_omega",
         partial(_zeta_inverse, "rho", "rho-inv")),
        ("zeta-intertwine", "(v F_{i-1} E_{i-1} - 1) M = M (v F_i E_i - 1)", _zeta_intertwine),
        ("zeta-rotate", "zeta(s_{i-1}) zeta(rho) = zeta(rho) zeta(s_i)", _zeta_rotate),
        ("zeta-ef-swap", "(v F_i E_i - 1) 1_omega = (v E_i F_i - 1) 1_omega", _zeta_ef_swap),
        ("zeta-boundary-swap",
         "1_omega (v F_n...F_r E_r...E_n - 1) = 1_omega (v E_r...E_n F_n...F_r - 1)",
         _zeta_boundary_swap),
        ("zeta-en-transport",
         "(E_n F_n - v) E_1 E_n 1_omega = E_1 E_n (E_1 F_1 - v) 1_omega", _zeta_en_transport),
        ("zeta-chain-transport",
         "1_om (F_{r-1} E_{r-1} - v^-1) E_r...E_1 = 1_om E_r...E_1 (F_r E_r - v^-1)",
         _zeta_chain_transport),
        ("zeta-rot-sr-left", "zeta(rho) zeta(s_r) = zeta(s_{r-1}) zeta(rho)",
         partial(_zeta_rot_sr, left=True)),
        ("zeta-rot-sr-right", "zeta(rho) zeta(s_1) = zeta(s_r) zeta(rho)",
         partial(_zeta_rot_sr, left=False)),
    )),
    "classical": Suite((
        ("q1", "H_i H_j = H_j H_i", partial(_k_commute, CLASSICAL)),
        ("q2", "H_i e_j - e_j H_i = eps+(i,j) e_j", partial(_h_brackets, "e", 1)),
        ("q3", "H_i f_j - f_j H_i = eps-(i,j) f_j", partial(_h_brackets, "f", -1)),
        ("q4", "e_i f_j - f_j e_i = delta_ij (H_j - H_{j+1})", _h_commutator),
        ("q5", "e_i e_j = e_j e_i (non-adjacent)", partial(_commute, "e", affine=True)),
        ("q6", "f_i f_j = f_j f_i (non-adjacent)", partial(_commute, "f", affine=True)),
        ("q7", "classical E-Serre relation", partial(_serre, CLASSICAL, "e", affine=True)),
        ("q8", "classical F-Serre relation", partial(_serre, CLASSICAL, "f", affine=True)),
        ("q9", "H_1 + ... + H_n = r", _h_sum),
        ("q10", "H_i (H_i - 1) ... (H_i - r) = 0", partial(_k_polynomial, CLASSICAL)),
        ("r1", "i_lam i_mu = delta i_lam", _idempotents_orthogonal),
        ("r2", "e_i i_lam = i_{lam+alpha_i} e_i if lam_{i+1}>0 else 0",
         partial(_idempotent_commute, "e")),
        ("r3", "f_i i_lam = i_{lam-alpha_i} f_i if lam_i>0 else 0",
         partial(_idempotent_commute, "f")),
        ("r4", "e_i f_j - f_j e_i = delta_ij sum (lam_j - lam_{j+1}) i_lam",
         partial(_ef_commutator, CLASSICAL, affine=True)),
    ), needs_n_gt_r=False),
}
SUITE_NAMES = tuple(SUITES)

# The lemmas the paper proves beside the relations, checked by the same
# engine; not a suite of the CLI.
LEMMAS = Suite((
    ("cancellation", "F_i^c E_i^c 1_lam = z 1_lam (lam_i = 0), E_i^c F_i^c 1_lam = z 1_lam "
     "(lam_{i+1} = 0)", _cancellation),
    ("en-factorization", _EN_TEXT, _en_factorization),
    ("zeta-anchor", "1_omega zeta(w) = zeta(w)", _zeta_anchor),
    ("k-from-projectors", "K_i^(+-1) = sum_lam v^(+-lam_i) 1_lam", _k_from_projectors),
))


# -- automorphisms -------------------------------------------------------------------


def rotate_aut(n: int, x: OperatorExpr) -> OperatorExpr:
    """The index-rotation automorphism: E_i -> E_{i+1}, 1_lam -> 1_{lam+}."""
    out: dict[Word, LaurentPoly] = {}
    for word, c in x.terms.items():
        new = []
        for s in word:
            if s.kind in ("E", "F", "K", "Kinv", "e", "f", "H"):
                new.append(Sym(s.kind, residue(s.index + 1, n)))
            elif s.kind == "P":
                new.append(P(s.weight.rotated()))
            else:
                new.append(s)
        add_term(out, tuple(new), c)
    return OperatorExpr(out)


def sigma_antiaut(x: OperatorExpr) -> OperatorExpr:
    """Reverse words and swap E_i <-> F_i; fixes K and projectors.

    Rejects words containing R or R^-1 (the swap is defined without them).
    """
    out: dict[Word, LaurentPoly] = {}
    swap = {"E": "F", "F": "E", "e": "f", "f": "e"}
    for word, c in x.terms.items():
        new = []
        for s in reversed(word):
            if s.kind in ("R", "Rinv"):
                raise ValueError("sigma is not defined on words containing R")
            if s.kind in swap:
                new.append(Sym(swap[s.kind], s.index))
            else:
                new.append(s)
        add_term(out, tuple(new), c)
    return OperatorExpr(out)


# -- idempotent commutation and cancellation -------------------------------------------


def commute_projector(kind: str, i: int, lam: Weight) -> OperatorExpr:
    """Rewrite X_i 1_lam with the projector on the left, for X = E or F
    (or the classical e, f): 1_{lam +- alpha_i} X_i, or 0.

    >>> commute_projector("E", 1, Weight((1, 1, 0))).render()
    '(1)*P(2,0,0) E1'
    """
    shift = {"E": 1, "e": 1, "F": -1, "f": -1}
    if kind not in shift:
        raise ValueError("kind must be 'E', 'F', 'e' or 'f'")
    moved = lam.plus_alpha(i, shift[kind])
    return _w(P(moved), Sym(kind, i)) if moved is not None else OperatorExpr.zero()


def cancellation(lam: Weight, i: int, c: int, direction: str) -> LaurentPoly:
    """The cancellation scalar z with F_i^c E_i^c 1_lam = z 1_lam (or mirror).

    direction 'FE' requires lam_i = 0 and returns ([c]!)^2 [lam_{i+1} choose c];
    direction 'EF' requires lam_{i+1} = 0 and returns ([c]!)^2 [lam_i choose c].
    Both vanish exactly when the threshold fails.

    >>> cancellation(Weight((0, 1, 1)), 1, 1, "FE").render()
    '1'
    """
    if c < 1:
        raise ValueError("c must be positive")
    if direction == "FE":
        if lam.entry(i) != 0:
            raise ValueError("FE cancellation requires lam_i = 0")
        m = lam.entry(i + 1)
    elif direction == "EF":
        if lam.entry(i + 1) != 0:
            raise ValueError("EF cancellation requires lam_{i+1} = 0")
        m = lam.entry(i)
    else:
        raise ValueError("direction must be 'FE' or 'EF'")
    fact = quantum_fact(c)
    return fact * fact * gauss_binom(m, c)


# -- distinguished monomials -------------------------------------------------------------


@dataclass(frozen=True)
class DistTerm:
    kind: str  # 'E', 'F', or 'P' (bare idempotent, c = 0)
    index: int
    c: int
    weight: tuple[int, ...]  # weight of the term's own idempotent (on its right)

    def render(self) -> str:
        head = f"{self.kind}{self.index}^{self.c} " if self.c else ""
        return f"{head}P({','.join(map(str, self.weight))})"


@dataclass
class AnalyzeResult:
    is_strictly_distinguished: bool
    is_distinguished: bool
    parse: tuple[DistTerm, ...] | None
    strict_form: Word | None
    nonzero: bool
    reason: str = ""


def _rejected(reason: str) -> AnalyzeResult:
    return AnalyzeResult(False, False, None, None, False, reason)


def distinguished_analyze(word: Word) -> AnalyzeResult:
    """Parse a word over E/F/projector symbols into distinguished terms.

    A distinguished term is E_i^c 1_lam with lam_i = 0, or F_i^c 1_lam with
    lam_{i+1} = 0 (c >= 0).  A word parses strictly when every term boundary
    carries an explicit projector; omitting interior projectors gives a
    reduction, which this routine re-completes (the inserted weights are
    forced by the anchor projector).  The nonzero verdict chains the term
    thresholds; a test compares it with operator evaluation.
    """
    syms = tuple(word)
    if not syms:
        return _rejected("empty word")
    for s in syms:
        if s.kind not in ("E", "F", "P"):
            return _rejected(f"symbol {s.render()} outside the E/F/projector alphabet")
    if syms[-1].kind != "P":
        return _rejected("word does not end with a projector")

    weight = syms[-1].weight.parts
    n = len(weight)
    terms: list[DistTerm] = []
    strict: list[Sym] = [syms[-1]]
    strictly = nonzero = True
    after_run = False
    # right to left over the projector groups and the runs X_i^c
    for (kind, idx), group in groupby(reversed(syms[:-1]), attrgetter("kind", "index")):
        group = list(group)
        if kind == "P":
            for s in group:
                if s.weight != weight:
                    return _rejected(
                        f"projector {s.weight.render()} does not match the running weight {weight}")
            strict.extend(group)
            after_run = False
            continue
        if after_run:  # two runs meet: the projector between them is implied
            strictly = False
            if min(weight) >= 0:
                strict.append(P(Weight(weight)))
        # E_i^c needs entry i zero and room c at entry i + 1; F_i^c mirrors it
        zero, room, sign = (idx, idx + 1, 1) if kind == "E" else (idx + 1, idx, -1)
        # the running weight may have negative parts, so read it raw
        if weight[residue(zero, n) - 1] != 0:
            return _rejected(f"{kind}{idx} run needs weight entry {zero} = 0 at {weight}")
        c = len(group)
        if weight[residue(room, n) - 1] < c:
            nonzero = False
        terms.append(DistTerm(kind, idx, c, weight))
        strict.extend(group)
        weight = plus_alpha_parts(weight, idx, sign * c)
        after_run = True

    if not terms:
        terms.append(DistTerm("P", 0, 0, syms[-1].weight.parts))
    strict_ok = all(
        min(t.weight) >= 0 for t in terms
    ) and min(weight) >= 0
    strict_word = tuple(reversed(strict)) if strict_ok else None
    return AnalyzeResult(
        strictly, True, tuple(reversed(terms)), strict_word, nonzero,
        "" if nonzero else "a term fails its nonvanishing threshold")


# -- zeta elements ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def zeta(n: int, r: int, name: str) -> OperatorExpr:
    """The omega-anchored images of the Hecke generators.  Cached: the
    rows of the zeta suite share them (an OperatorExpr is never changed
    in place).

    zeta(s_i) = (v F_i E_i - 1) 1_omega for 1 <= i < r,
    zeta(rho^-1) = (F_n...F_{r+1})(F_1...F_r) 1_omega,
    zeta(rho) = (E_r...E_{n-1})(E_{r-1}...E_1) E_n 1_omega,
    zeta(s_r) = 1_omega (v F_n...F_r E_r...E_n - 1).

    All but zeta(s_r) are the R-free endomorphisms of `tensor.tau`
    followed by 1_omega.
    """
    if n <= r:
        raise ValueError("zeta elements require n > r")
    om = omega(n, r)
    i = int(name[1:]) if name.startswith("s") else None
    if name in ("rho", "rho-inv") or i is not None and 1 <= i < r:
        return tau(n, r, name, "R-free") * projector(om)
    if i == r:
        syms = [P(om)] + chain("F", range(n, r - 1, -1)) + chain("E", range(r, n + 1))
        return OperatorExpr.word(syms, V) - projector(om)
    raise ValueError(f"unknown zeta element {name!r}")


# -- the constructive monomials ---------------------------------------------------------


def mu_from_lambda(lam: Weight) -> Weight:
    """The front-sorted companion of lambda: nonzero parts first, in order.

    >>> mu_from_lambda(Weight((2, 0, 0, 3, 0, 0, 0, 0, 2))).parts
    (2, 3, 2, 0, 0, 0, 0, 0, 0)
    """
    nz = [p for p in lam if p > 0]
    return Weight(nz + [0] * (lam.n - len(nz)))


def nu_from_mu(mu: Weight) -> Weight:
    """Spread the parts of mu to the start of each segment.

    nu_a = mu_{i+1} at a = 1 + mu_1 + ... + mu_i (0 <= i < r), zero elsewhere.

    >>> nu_from_mu(Weight((2, 3, 2, 0, 0, 0, 0, 0, 0))).parts
    (2, 0, 3, 0, 0, 2, 0, 0, 0)
    """
    n, r = mu.n, mu.r
    parts = [0] * n
    acc = 0
    for i in range(r):
        a = 1 + acc
        val = mu[i] if i < n else 0
        if a <= n:
            parts[a - 1] = val
        acc += val
    return Weight(parts)


def build_M1(lam: Weight) -> tuple[OperatorExpr, Weight]:
    """Bubble interior zeros of lambda to the right with E-moves.

    Returns (M1, mu) with M1 = 1_mu (word in E_2..E_{n-1}) 1_lam.
    """
    if lam[0] <= 0:
        raise ValueError("requires lambda_1 > 0")
    cur = list(lam)
    n = lam.n
    steps: list[tuple[int, int]] = []
    while True:
        for i in range(2, n):
            if cur[i - 1] == 0 and cur[i] > 0:
                c = cur[i]
                steps.append((i, c))
                cur[i - 1], cur[i] = c, 0
                break
        else:
            break
    mu = Weight(cur)
    syms: list[Sym] = [P(mu)]
    for i, c in reversed(steps):
        syms.extend(power(E(i), c))
    syms.append(P(lam))
    return _w(*syms), mu


def build_M2(mu: Weight) -> tuple[OperatorExpr, Weight]:
    """Spread the blocks of mu rightward with F-moves, rightmost block first.

    Returns (M2, nu) with M2 = 1_nu (word in F_2..F_{n-2}) 1_mu.
    """
    nu = nu_from_mu(mu)
    k = sum(1 for p in mu if p > 0)
    targets = [a + 1 for a, p in enumerate(nu) if p > 0]
    apps: list[tuple[int, int]] = []  # rightmost block travels first
    for b in range(k, 1, -1):
        c = mu[b - 1]
        for q in range(b, targets[b - 1]):
            apps.append((q, c))
    syms: list[Sym] = [P(nu)]
    for q, c in reversed(apps):
        syms.extend(power(F(q), c))
    syms.append(P(mu))
    return _w(*syms), nu


def build_M3(nu: Weight) -> OperatorExpr:
    """Flatten each segment (c, 0^(c-1)) of nu to ones with F-moves.

    Returns M3 = 1_omega (word in F_1..F_{n-2}) 1_nu.
    """
    n, r = nu.n, nu.r
    om = omega(n, r)
    syms: list[Sym] = [P(om)]
    for a, c in enumerate(nu, start=1):
        if c <= 1:
            continue
        for idx in range(a + c - 2, a - 1, -1):
            syms.extend(power(F(idx), a + c - 1 - idx))
    syms.append(P(nu))
    return _w(*syms)


def build_M(lam: Weight) -> OperatorExpr:
    """The full transport monomial M = 1_om M3 1_nu M2 1_mu M1 1_lam."""
    m1, mu = build_M1(lam)
    m2, nu = build_M2(mu)
    m3 = build_M3(nu)
    ((w3, c3),) = m3.terms.items()
    ((w2, c2),) = m2.terms.items()
    ((w1, c1),) = m1.terms.items()
    word: list[Sym] = []
    for sym in w3 + w2[1:] + w1[1:]:
        if word and sym.kind == "P" == word[-1].kind and sym.weight == word[-1].weight:
            continue
        word.append(sym)
    return OperatorExpr.word(word, c3 * c2 * c1)


def m_word_conditions(lam: Weight, m: OperatorExpr) -> dict[str, bool]:
    """The word-level requirements on the transport monomial."""
    ((word, _),) = m.terms.items()
    n = lam.n
    gens = [s for s in word if s.kind != "P"]
    banned = {("E", n), ("F", n), ("E", 1), ("F", n - 1)}
    cond_ii = all((s.kind, s.index) not in banned for s in gens)

    def consecutive(kind: str, index: int) -> bool:
        hits = [k for k, s in enumerate(gens) if (s.kind, s.index) == (kind, index)]
        return not hits or hits[-1] - hits[0] + 1 == len(hits)

    f1_count = sum(1 for s in gens if (s.kind, s.index) == ("F", 1))
    return {
        "no_banned_generators": cond_ii,
        "f1_consecutive": consecutive("F", 1),
        "en1_consecutive": consecutive("E", n - 1),
        "f1_count_ok": f1_count <= lam[0] - 1,
    }


# -- the E_n factorization ----------------------------------------------------------------


def en_factorization_sides(n: int, r: int, lam: Weight) -> tuple[
        OperatorExpr, OperatorExpr, LaurentPoly, LaurentPoly]:
    """The sides den E_n 1_lam and num sigma(W) E_n M of the E_n
    factorization, and (num, den); M is the transport monomial and W its
    projector-stripped word.

    The antiautomorphism is applied to the bare generator word (the
    projector-decorated form would be annihilated by the weight shift of
    the middle E_n).  num and den are the coefficients of E_n 1_lam and of
    sigma(W) E_n M at the smallest tensor in the image of the first basis
    tensor of weight lam that the latter does not annihilate; (0, 1) when
    it annihilates them all.
    """
    if lam[0] <= 0:
        raise ValueError("requires lambda_1 > 0")
    if n <= r:
        raise ValueError("requires n > r")
    ((m_word, m_coeff),) = build_M(lam).terms.items()
    sigma_w = sigma_antiaut(OperatorExpr.word([s for s in m_word if s.kind != "P"]))
    lhs, rhs = _w(E(n), P(lam)), sigma_w * OperatorExpr.word((E(n),) + m_word, m_coeff)
    num, den = LaurentPoly.zero(), LaurentPoly.one()
    for b in _weight_space(n, lam):
        image = act_expr_basis(n, rhs, b)
        if image:
            key = min(image)
            num, den = act_expr_basis(n, lhs, b).get(key, LaurentPoly.zero()), image[key]
            break
    return lhs.scaled(den), rhs.scaled(num), num, den


@dataclass
class FactorEnResult:
    """z = z_num / z_den: the quotient in Z[v, v^-1] over z_den = 1 when
    z_den divides z_num there, else the pair as the action gave it."""

    z_num: LaurentPoly
    z_den: LaurentPoly
    holds: bool
    window: str

    def render_z(self) -> str:
        z = self.z_num.render()
        return z if self.z_den.is_one() else f"({z}) / ({self.z_den.render()})"


def factor_En(n: int, r: int, lam: Weight) -> FactorEnResult:
    """Factor E_n 1_lam = z sigma(W) E_n M (en_factorization_sides), checked as
    den E_n 1_lam = num sigma(W) E_n M by verify_identity."""
    lhs, rhs, num, den = en_factorization_sides(n, r, lam)
    rep = verify_identity(n, r, RelationInstance("en-factorization", _EN_TEXT, lhs, rhs,
                                                 {"lam": lam.render()}))
    try:
        num, den = num.exact_div(den), LaurentPoly.one()
    except ValueError:
        pass
    return FactorEnResult(num, den, rep.passed, rep.window)
