"""Acceptance suite: one criterion per test, one printed verdict line each.

Every check is exact; run with `pytest tests/test_acceptance.py -v -s`.
The big worked example (A7) carries the `slow` marker but still runs by
default; it is quick because it evaluates each monomial only on the
weight space it starts from, within the residue domain [1, n]^r.
"""
import itertools
import random

import pytest

from aschur.aweyl import (
    AffinePerm,
    enumerate_up_to_length,
    is_double_coset_min,
)
from aschur.hecke import t_element, young_parabolic
from aschur.latmat import (
    PeriodicMatrix,
    coset_from_matrix,
    d_stat,
    is_aperiodic,
    matrix_from_coset,
    row_col_sums,
)
from aschur.operators import E, F, OperatorExpr, P
from aschur.present import (
    LEMMAS,
    RelationInstance,
    build_M,
    build_M1,
    build_M2,
    build_M3,
    cancellation,
    distinguished_analyze,
    m_word_conditions,
    nu_from_mu,
    projector,
    q15_instance,
    run_suite,
    verify_all,
    verify_identity,
)
from aschur.ring import LaurentPoly
from aschur.schur import hecke_embed
from aschur.tensor import act_expr_basis, weight_space_basis
from aschur.weights import Weight, all_weights, omega
from conftest import bfs_word_lengths

ONE = LaurentPoly.one()
Q = LaurentPoly.q()


def verdict(tag: str, ok: bool, detail: str):
    print(f"{tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag} failed: {detail}"


def lemma_instances(row, n, r):
    return [inst for inst in LEMMAS.instances(n, r) if inst.name == row]


def run_and_report(tag, suite_names, instances):
    checked, failures = 0, []
    for n, r in instances:
        for name in suite_names:
            for rep in run_suite(name, n, r):
                checked += 1
                if not rep.passed:
                    failures.append((n, r, rep.line()))
    detail = f"{checked} relation instances over {instances}"
    if failures:
        detail += f"; first failure: {failures[0]}"
    verdict(tag, not failures, detail)


def test_a1_length_formula_vs_bfs():
    checked = 0
    for r in (3, 4):
        oracle = bfs_word_lengths(r, 6)
        for w, ell in oracle.items():
            assert w.length() == ell, (r, w.render())
            checked += 1
    verdict("A1", True, f"inversion-formula length = BFS word length on {checked} "
                        "elements (r=3 and r=4, all lengths <= 6)")


def test_a2_hecke_presentation():
    qm1 = Q - 1
    failures = []
    for r in (3, 4):
        e = t_element(AffinePerm.identity(r))
        s = {i: t_element(AffinePerm.s(r, i)) for i in range(1, r + 1)}
        trho = t_element(AffinePerm.rho(r))
        trhoi = t_element(AffinePerm.rho(r, -1))
        # defining relations on all generators T_{s_1}..T_{s_r}, T_rho
        for i in range(1, r + 1):
            if not s[i] * s[i] == e.scaled(Q) + s[i].scaled(qm1):
                failures.append((r, "quadratic", i))
            j = i % r + 1
            if not trho * s[j] * trhoi == s[i]:
                failures.append((r, "rotation", i))
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j:
                    continue
                adjacent = (i - j) % r in (1, r - 1)
                if adjacent:
                    if not s[i] * s[j] * s[i] == s[j] * s[i] * s[j]:
                        failures.append((r, "braid", (i, j)))
                elif not s[i] * s[j] == s[j] * s[i]:
                    failures.append((r, "commute", (i, j)))
        # the modified presentation: generators T_{s_1}..T_{s_{r-1}}, T_rho
        for i in range(1, r - 1):
            if not trho * s[i + 1] * trhoi == s[i]:
                failures.append((r, "rotation'", i))
        rr, rri = t_element(AffinePerm.rho(r, r)), t_element(AffinePerm.rho(r, -r))
        for i in range(1, r):
            if not rr * s[i] * rri == s[i]:
                failures.append((r, "period'", i))
    # associativity: exhaustive on W-part basis triples of length <= 3 (r=3),
    # then a seeded sample with rho powers mixed in
    elems = list(enumerate_up_to_length(3, 3))
    Ts = {w: t_element(w) for w in elems}
    triples = 0
    for u, v, w in itertools.product(elems, repeat=3):
        if not (Ts[u] * Ts[v]) * Ts[w] == Ts[u] * (Ts[v] * Ts[w]):
            failures.append((3, "assoc", (u.render(), v.render(), w.render())))
        triples += 1
    rng = random.Random(2024)
    ext = [w.mul_rho_left(z) for w in elems for z in (-1, 1)]
    for _ in range(250):
        u, v, w = rng.choice(ext), rng.choice(ext), rng.choice(ext)
        if not (t_element(u) * t_element(v)) * t_element(w) == t_element(u) * (
            t_element(v) * t_element(w)
        ):
            failures.append((3, "assoc-rho", (u.render(), v.render(), w.render())))
    verdict("A2", not failures,
            f"T-basis relations (r=3,4) and associativity on {triples} exhaustive "
            f"+ 250 sampled triples" + (f"; first failure {failures[0]}" if failures else ""))


def test_a3_phi_engine():
    failures = []
    checked = 0
    for n, r in ((3, 2), (4, 3)):
        for rep in run_suite("q17-19", n, r):
            checked += 1
            if not rep.passed:
                failures.append(rep.line())
        elems = [w.mul_rho_left(z)
                 for w in enumerate_up_to_length(r, 3) for z in (-1, 0, 1)]
        for u, v in itertools.product(elems, elems):
            lhs = hecke_embed(t_element(u) * t_element(v), n)
            rhs = hecke_embed(t_element(u), n) * hecke_embed(t_element(v), n)
            checked += 1
            if lhs != rhs:
                failures.append(("embed", n, r, u.render(), v.render()))
    verdict("A3", not failures,
            f"(Q17)-(Q19) plus embedding multiplicativity: {checked} checks "
            "(zero-remainder expansion enforced throughout)"
            + (f"; first failure {failures[0]}" if failures else ""))


def test_a4_tensor_relation_suites():
    run_and_report(
        "A4",
        ("qaffine", "extended", "schur-presentation", "idempotented"),
        ((3, 2), (4, 3), (5, 3)),
    )


def test_a4_negative_control():
    rep = verify_identity(3, 2, q15_instance(3, 2, corrupt=True))
    verdict("A4-negative-control", not rep.passed,
            f"corrupted relation fails with counterexample {rep.counterexample}")


def test_a5_tau_zeta_structure():
    run_and_report("A5", ("hecke-tau", "zeta"), ((3, 2), (4, 3)))


def test_a6_cancellation_principle():
    n, r = 4, 3
    reports = verify_all(n, r, lemma_instances("cancellation", n, r))
    assert len(reports) == 240
    failures = [rep.line() for rep in reports if not rep.passed]
    for lam in all_weights(n, r):
        for i in range(1, n + 1):
            for direction, thr in (("FE", lam.entry(i + 1)), ("EF", lam.entry(i))):
                try:
                    z = cancellation(lam, i, 1, direction)
                except ValueError:
                    continue
                if thr == 1 and z != ONE:
                    failures.append(("unit-case", lam.parts, i, direction))
    verdict("A6", not failures,
            f"closed form = operator evaluation for {len(reports)} (lam, i, c, direction) "
            "cases on complete weight-space domains, including every c = threshold = 1 "
            "unit case" + (f"; first failure {failures[0]}" if failures else ""))


@pytest.mark.slow
def test_a7_worked_example():
    n, r = 9, 7
    lam = Weight((2, 0, 0, 3, 0, 0, 0, 0, 2))
    mu_expected = Weight((2, 3, 2, 0, 0, 0, 0, 0, 0))
    nu_expected = Weight((2, 0, 3, 0, 0, 2, 0, 0, 0))
    om = omega(n, r)

    m1_built, mu = build_M1(lam)
    assert mu == mu_expected
    nu = nu_from_mu(mu)
    assert nu == nu_expected
    m2_built, nu2 = build_M2(mu)
    assert nu2 == nu
    m3_built = build_M3(nu)

    def word_of(*parts):
        out = []
        for p in parts:
            out.extend(p)
        return tuple(out)

    pw = lambda w: [P(w)]
    e_pow = lambda i, c: [E(i)] * c
    f_pow = lambda i, c: [F(i)] * c
    m1_word = word_of(pw(mu), e_pow(3, 2), e_pow(4, 2), e_pow(5, 2), e_pow(6, 2),
                      e_pow(7, 2), e_pow(8, 2), e_pow(2, 3), e_pow(3, 3), pw(lam))
    m2_word = word_of(pw(nu), f_pow(2, 3), f_pow(5, 2), f_pow(4, 2), f_pow(3, 2), pw(mu))
    m3_word = word_of(pw(om), f_pow(1, 1), f_pow(4, 1), f_pow(3, 2), f_pow(6, 1), pw(nu))

    # the deterministic builders reproduce these exact words
    assert m1_built == OperatorExpr.word(m1_word)
    assert m2_built == OperatorExpr.word(m2_word)
    assert m3_built == OperatorExpr.word(m3_word)

    failures = []
    for tag, word, left, right in (
        ("M1", m1_word, mu, lam),
        ("M2", m2_word, nu, mu),
        ("M3", m3_word, om, nu),
    ):
        res = distinguished_analyze(word)
        if not (res.is_distinguished and res.nonzero):
            failures.append((tag, "analyzer", res.reason))
        # M lands in weight `left`: 1_left M = M, on the complete domain
        expr = OperatorExpr.word(word)
        rep = verify_identity(n, r, RelationInstance(tag, "1_left M = M",
                                                     projector(left) * expr, expr))
        if not rep.passed:
            failures.append(rep.line())
        if not any(act_expr_basis(n, expr, b) for b in weight_space_basis(n, right, 1, n)):
            failures.append((tag, "zero"))
    verdict("A7", not failures,
            "mu, nu and the explicit M1, M2, M3 words check out on the "
            "(n, r) = (9, 7) instance, lambda = (2,0,0,3,0,0,0,0,2)"
            + (f"; first failure {failures[0]}" if failures else ""))


def test_a8_surjectivity_machinery():
    n, r = 4, 3
    failures = []
    checked = 0
    for lam in all_weights(n, r):
        if lam.parts[0] == 0:
            continue
        m = build_M(lam)
        conds = m_word_conditions(lam, m)
        if not all(conds.values()):
            failures.append((lam.parts, conds))
        ((word, _),) = m.terms.items()
        res = distinguished_analyze(word)
        if not (res.is_distinguished and res.nonzero):
            failures.append((lam.parts, "analyzer"))
        checked += 1
    # den E_n 1_lam = num sigma(W) E_n M with num != 0, i.e. z != 0
    factorizations = lemma_instances("en-factorization", n, r)
    assert len(factorizations) == checked
    failures += [inst.params for inst in factorizations if inst.rhs.is_zero()]
    failures += [rep.line() for rep in verify_all(n, r, factorizations) if not rep.passed]
    verdict("A8", not failures,
            f"transport monomial conditions and E_n factorization for all "
            f"{checked} weights with a positive first part, (n, r) = (4, 3)"
            + (f"; first failure {failures[0]}" if failures else ""))


def test_a9_classical_case():
    failures = []
    checked = 0
    for n, r in ((3, 2), (4, 3)):
        for rep in run_suite("classical", n, r):
            checked += 1
            if not rep.passed:
                failures.append(rep.line())
    # v = 1 specialization of the quantum commutator matches the classical one
    rng = random.Random(99)
    n, r = 3, 2
    from aschur.operators import ce, cf

    for _ in range(100):
        b = tuple(rng.randint(-2, 6) for _ in range(r))
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        quantum = act_expr_basis(
            n,
            OperatorExpr.word([E(i), F(j)]) - OperatorExpr.word([F(j), E(i)]),
            b,
        )
        classical = act_expr_basis(
            n,
            OperatorExpr.word([ce(i), cf(j)]) - OperatorExpr.word([cf(j), ce(i)]),
            b,
        )
        spec = {k: c.specialize(1) for k, c in quantum.items()}
        spec = {k: c for k, c in spec.items() if c}
        cls = {k: c.specialize(1) for k, c in classical.items()}
        cls = {k: c for k, c in cls.items() if c}
        checked += 1
        if spec != cls:
            failures.append(("specialization", b, i, j))
    verdict("A9", not failures,
            f"classical suites and 100 specialization cross-checks: {checked} checks"
            + (f"; first failure {failures[0]}" if failures else ""))


def test_a10_matrix_indexing():
    n, r = 3, 2
    failures = []
    seen = set()
    total = 0
    for lam in all_weights(n, r):
        for mu in all_weights(n, r):
            pl, pm = young_parabolic(lam), young_parabolic(mu)
            reps = set()
            for w in enumerate_up_to_length(r, 4):
                for z in range(-2, 3):
                    d = w.mul_rho_left(z)
                    if d.length() <= 4 and is_double_coset_min(d, pl, pm):
                        reps.add(d)
            for d in reps:
                a = matrix_from_coset(lam, mu, d)
                if row_col_sums(a) != (lam, mu):
                    failures.append(("sums", lam.parts, mu.parts, d.render()))
                if not is_aperiodic(a):
                    failures.append(("aperiodic", d.render()))
                back = coset_from_matrix(a)
                if back != (lam, mu, d):
                    failures.append(("roundtrip", lam.parts, mu.parts, d.render()))
                key = (lam.parts, mu.parts, a.entries)
                if key in seen:
                    failures.append(("injectivity", key))
                seen.add(key)
                total += 1
    om = omega(n, r)
    diag = matrix_from_coset(om, om, AffinePerm.identity(r))
    if d_stat(diag) != 0:
        failures.append(("diagonal-dstat",))
    sample = PeriodicMatrix.from_dict(2, 2, {(1, 2): 1, (2, 1): 1})
    # the defining sum over the translates q of the second entry, on a q
    # window far wider than the admissible one
    brute = sum(
        v1 * v2
        for i1, j1, v1 in sample.entries
        for i2, j2, v2 in sample.entries
        for q in range(-10, 11)
        if i1 >= i2 + 2 * q and j1 < j2 + 2 * q
    )
    if d_stat(sample) != brute:
        failures.append(("d-statistic", d_stat(sample), brute))
    verdict("A10", not failures,
            f"coset/matrix bijection on {total} representatives with l(d) <= 4, "
            "(n, r) = (3, 2); aperiodicity and the d-statistic's defining sum"
            + (f"; first failure {failures[0]}" if failures else ""))
