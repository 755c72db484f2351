import random
from functools import partial
from itertools import permutations, product

import pytest

from aschur import tensor
from aschur.aweyl import AffinePerm
from aschur.operators import E, F, K, OperatorExpr, P, R, Sym
from aschur.present import (
    LEMMAS,
    SUITE_NAMES,
    SUITES,
    DistTerm,
    RelationInstance,
    cancellation,
    commute_projector,
    distinguished_analyze,
    factor_En,
    mu_from_lambda,
    nu_from_mu,
    projector,
    q15_instance,
    rotate_aut,
    run_suite,
    sigma_antiaut,
    suite,
    verification_domain,
    verify_all,
    verify_identity,
    verify_schur_relation,
    zeta,
)
from aschur.ring import LaurentPoly, gauss_binom, quantum_fact
from aschur.schur import SchurBasisIndex, SchurElement
from aschur.tensor import (
    act_expr_basis,
    render_basis,
    render_vector,
    tau,
    vec_sub,
    weight_of,
    weight_space_basis,
)
from aschur.weights import Weight, all_weights, omega

ONE = LaurentPoly.one()


def test_projector_action():
    om = omega(3, 2)
    p = projector(om)
    assert act_expr_basis(3, p, (1, 2)) == {(1, 2): ONE}
    assert act_expr_basis(3, p, (1, 1)) == {}
    # idempotent, orthogonal, summing to the identity on [1, n]^r, which is
    # complete by the shift lemma
    weights = all_weights(3, 2)
    for b in product(range(1, 4), repeat=2):
        total = {}
        for lam in weights:
            out = act_expr_basis(3, projector(lam), b)
            for k, c in out.items():
                total[k] = total.get(k, LaurentPoly.zero()) + c
        assert total == {b: ONE}


def test_k_binomial_product_is_projector():
    # the product over i of the quantum K-binomials [K_i; lam_i], which
    # acts on a weight-mu vector by prod_i [mu_i choose lam_i], equals the
    # weight projector: an independent route to the same operator
    weights = all_weights(3, 2)
    for lam in weights:
        for mu in weights:
            eigenvalue = ONE
            for m, t in zip(mu.parts, lam.parts):
                eigenvalue = eigenvalue * gauss_binom(m, t)
            expected = ONE if mu == lam else LaurentPoly.zero()
            assert eigenvalue == expected, (lam, mu)


def test_k_reconstruction_from_projectors():
    # K_i is recovered as the projector combination sum_lam v^(lam_i) 1_lam,
    # evaluated as operators on a window beyond the box [1, n]^r
    from aschur.operators import Kinv

    n, r = 3, 2
    for i in range(1, n + 1):
        for sign in (1, -1):
            total = OperatorExpr.zero()
            for lam in all_weights(n, r):
                total = total + projector(lam).scaled(LaurentPoly.v(sign * lam.entry(i)))
            kword = OperatorExpr.word([K(i) if sign == 1 else Kinv(i)])
            for b in product(range(-1, n + 2), repeat=r):
                assert act_expr_basis(n, total, b) == act_expr_basis(n, kword, b)


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_lemmas_hold(n, r):
    # the cancellation principle, the E_n factorization, the omega anchor of
    # the zeta elements and K_i^(+-1) from the projectors, each on a complete domain
    reports = LEMMAS.run(n, r)
    assert {rep.name for rep in reports} == {name for name, _, _ in LEMMAS.rows}
    for rep in reports:
        assert rep.passed and rep.window.endswith(f"; complete on V^(x){r}"), rep.line()


@pytest.mark.slow
def test_all_suites_pass_at_5_3():
    # the acceptance criteria pin (3,2) and (4,3); the suites are also
    # required to clear the larger (5,3) instance
    from aschur.present import SUITE_NAMES

    for name in SUITE_NAMES:
        reports = run_suite(name, 5, 3)
        bad = [rep.line() for rep in reports if not rep.passed]
        assert not bad, (name, bad[:3])


def test_verify_identity_negative_control():
    inst = q15_instance(3, 2, corrupt=True)
    rep = verify_identity(3, 2, inst)
    assert not rep.passed
    assert rep.counterexample is not None


def _corrupted_tau_quadratic(n: int, r: int) -> RelationInstance:
    """tau(s_1)^2 = (q-1) tau(s_1) + (q+1): the constant should be q."""
    q = LaurentPoly.q()
    t = tau(n, r, "s1")
    return RelationInstance(
        "tau-quadratic-corrupted", "tau(s_1)^2 = (q-1) tau(s_1) + q + 1",
        t * t, t.scaled(q - 1) + OperatorExpr.one().scaled(q + 1), domain="omega")


def test_omega_negative_control():
    # the omega domain is the r! permutations of (1, ..., r), and it is
    # large enough to catch a wrong coefficient
    n, r = 4, 3
    domain = weight_space_basis(n, omega(n, r), 1, n)
    assert sorted(domain) == sorted(permutations(range(1, r + 1)))
    rep = verify_identity(n, r, _corrupted_tau_quadratic(n, r))
    assert not rep.passed
    assert rep.counterexample.split(" -> ")[0] in {render_basis(b) for b in domain}


def test_q18_negative_control():
    # q17-19's row Q18, phi^s phi^1_{omega,lam} = q phi^1_{omega,lam}, with
    # v in place of q FAILs, and its counterexample is lhs - rhs
    n, r = 3, 2
    om, lam, e = omega(n, r), Weight((2, 0, 0)), AffinePerm.identity(r)
    x = SchurElement.basis(SchurBasisIndex(om, lam, e))
    (inst,) = [i for i in suite("q17-19", n, r)
               if i.name == "Q18" and i.params == {"lam": lam.render(), "i": 1}]
    assert inst.rhs == x.scaled(LaurentPoly.q()) and verify_schur_relation(inst).passed
    bad = RelationInstance("Q18-corrupted", "phi^s phi^1_{omega,lam} = v phi^1_{omega,lam}",
                           inst.lhs, x.scaled(LaurentPoly.v()), inst.params, domain="phi")
    (rep,) = verify_all(n, r, [bad])
    assert not rep.passed
    assert rep.counterexample == (bad.lhs - bad.rhs).render() != "0"


def _window_verdict(n: int, r: int, inst: RelationInstance) -> bool:
    """lhs = rhs on [1-L, n+L]^r with L the longest word (at least 1),
    restricted to weight omega for an omega-space relation: the window
    verify_identity checked before the residue domain, kept as an oracle."""
    L = max([len(w) for e in (inst.lhs, inst.rhs) for w in e.terms] + [1])
    return _verdict_on(n, r, inst, product(range(1 - L, n + L + 1), repeat=r))


def _box_verdict(n: int, r: int, inst: RelationInstance) -> bool:
    """lhs = rhs on all of [1, n]^r (its weight-omega part for an
    omega-space relation): the complete domain before the grading and
    inert-residue reductions, kept as an oracle for them."""
    return _verdict_on(n, r, inst, product(range(1, n + 1), repeat=r))


def _verdict_on(n, r, inst, vectors) -> bool:
    if inst.domain == "omega":
        vectors = (b for b in vectors if weight_of(n, b) == omega(n, r))
    return all(
        not vec_sub(act_expr_basis(n, inst.lhs, b), act_expr_basis(n, inst.rhs, b))
        for b in vectors
    )


def _corrupted_per_domain(n: int, r: int) -> dict[str, RelationInstance]:
    """One corrupted instance for each kind of domain, keyed by the start
    of the window text it must report."""
    lam, mu = all_weights(n, r)[:2]
    return {
        "weight spaces": RelationInstance(
            "R1-corrupted", "1_lam 1_mu = 1_lam for lam != mu",
            OperatorExpr.word([P(lam), P(mu)]), projector(lam)),
        "indices in {1,2} plus 3": RelationInstance(
            "Q3-corrupted", "K_1 E_1 = v^2 E_1 K_1",
            OperatorExpr.word([K(1), E(1)]), OperatorExpr.word([E(1), K(1)], LaurentPoly.v(2))),
        "all basis tensors": q15_instance(n, r, corrupt=True),
        "omega weight space": _corrupted_tau_quadratic(n, r),
    }


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (5, 3)])
def test_domain_verdicts_match_window(n, r):
    # every instance of every tensor suite gets the verdict of the whole
    # box [1, n]^r (and, at the small sizes, of the old wider window)
    insts = []
    for name in SUITE_NAMES:
        if name != "q17-19":  # the phi-basis suite never reaches verify_identity
            insts += suite(name, n, r)
    for inst in insts:
        rep = verify_identity(n, r, inst)
        assert "; complete on V" in rep.window
        assert rep.passed and _box_verdict(n, r, inst), rep.line()
        if n < 5:
            assert _window_verdict(n, r, inst), rep.line()
    # a corrupted instance on each kind of domain FAILs, and its
    # counterexample replays: the named tensor, from the evaluated domain,
    # gives the reported nonzero difference
    for kind, inst in _corrupted_per_domain(n, r).items():
        rep = verify_identity(n, r, inst)
        assert rep.window.startswith(kind) and "; complete on V" in rep.window, rep.line()
        assert not rep.passed and not _box_verdict(n, r, inst), rep.line()
        if n < 5:
            assert not _window_verdict(n, r, inst), rep.line()
        vectors, _ = verification_domain(n, r, inst)
        b = tuple(int(t) for t in rep.counterexample.split(" -> ")[0][2:-1].split(","))
        assert b in list(vectors)
        diff = vec_sub(act_expr_basis(n, inst.lhs, b), act_expr_basis(n, inst.rhs, b))
        assert diff and rep.counterexample == f"{render_basis(b)} -> {render_vector(diff)}"


_REAL_ACT = tensor._act_basis


def _negated_e(n, kind, i, parts, b):
    return tuple((t, -e if kind == "E" else e, m) for t, e, m in _REAL_ACT(n, kind, i, parts, b))


def _f_off_by_one(n, kind, i, parts, b):
    return _REAL_ACT(n, kind, i + 1 if kind == "F" else i, parts, b)


@pytest.mark.parametrize("mutant,fails,first,counterexample", [
    (_negated_e, 9, ("Q5", {"i": 1, "j": 1}), "e[1,1] -> (-v + v^-1)*e[1,1]"),
    (_f_off_by_one, 15, ("Q4", {"i": 1, "j": 1}), "e[1,2] -> (v - 1)*e[1,3]"),
])
def test_kernel_mutants_fail_qaffine(monkeypatch, mutant, fails, first, counterexample):
    # a flipped E twist or an F that reads residue i + 1 in the one-step
    # table must make the relations FAIL, and the first counterexample
    # replays through the mutated kernel
    n, r = 3, 2
    monkeypatch.setattr(tensor, "_act_basis", mutant)
    failed = [rep for rep in run_suite("qaffine", n, r) if not rep.passed]
    assert len(failed) == fails
    rep = failed[0]
    assert (rep.name, rep.params) == first and rep.counterexample == counterexample
    (inst,) = [i for i in suite("qaffine", n, r) if (i.name, i.params) == first]
    b = tuple(int(t) for t in rep.counterexample.split(" -> ")[0][2:-1].split(","))
    diff = vec_sub(act_expr_basis(n, inst.lhs, b), act_expr_basis(n, inst.rhs, b))
    assert f"{render_basis(b)} -> {render_vector(diff)}" == counterexample


def test_commute_projector():
    lam = Weight((1, 1, 0))
    out = commute_projector("E", 1, lam)
    assert out == OperatorExpr.word([P(Weight((2, 0, 0))), E(1)])
    assert commute_projector("E", 1, Weight((1, 0, 1))).is_zero()
    out = commute_projector("F", 1, lam)
    assert out == OperatorExpr.word([P(Weight((0, 2, 0))), F(1)])


def test_cancellation_values():
    lam = Weight((0, 1, 1))
    assert cancellation(lam, 1, 1, "FE") == ONE
    assert cancellation(Weight((0, 1, 1)), 1, 2, "FE").is_zero()  # threshold fails
    z = cancellation(Weight((0, 2, 1)), 1, 2, "FE")
    f2 = quantum_fact(2)
    assert z == f2 * f2  # ([2]!)^2 [2 choose 2]
    with pytest.raises(ValueError):
        cancellation(Weight((1, 1, 0)), 1, 1, "FE")
    with pytest.raises(ValueError):
        cancellation(Weight((1, 1, 0)), 1, 1, "EF")
    assert cancellation(Weight((1, 0, 1)), 1, 1, "EF") == ONE


def test_cancellation_matches_operator_evaluation():
    # the cancellation values, evaluated as operators on a window of the
    # weight space that reaches past the box [1, n]^r
    n, r = 3, 2
    for lam in all_weights(n, r):
        for i in range(1, n + 1):
            for c in (1, 2):
                for direction in ("FE", "EF"):
                    try:
                        z = cancellation(lam, i, c, direction)
                    except ValueError:
                        continue
                    x, y = (F(i), E(i)) if direction == "FE" else (E(i), F(i))
                    word = OperatorExpr.word([x] * c + [y] * c + [P(lam)])
                    expected = projector(lam).scaled(z)
                    for b in weight_space_basis(n, lam, 1 - c, n + c):
                        assert act_expr_basis(n, word, b) == act_expr_basis(n, expected, b)


def test_rotate_aut():
    n = 3
    x = OperatorExpr.word([E(3), P(Weight((1, 1, 0)))])
    y = rotate_aut(n, x)
    assert y == OperatorExpr.word([E(1), P(Weight((0, 1, 1)))])
    rng = random.Random(3)
    syms = [E(1), E(2), F(3), Sym("K", 2), P(Weight((2, 0, 0))), R]
    for _ in range(50):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 5)))
        expr = OperatorExpr.word(word)
        out = expr
        for _ in range(n):
            out = rotate_aut(n, out)
        assert out == expr


def _image(inst: RelationInstance, aut) -> RelationInstance:
    return RelationInstance(inst.name, inst.description, aut(inst.lhs), aut(inst.rhs),
                            inst.params, inst.domain)


def _has_r(inst: RelationInstance) -> bool:
    return any(s.kind in ("R", "Rinv") for e in (inst.lhs, inst.rhs) for w in e.terms for s in w)


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2)])
def test_automorphism_images_hold(n, r):
    # rotate_aut is conjugation by R and sigma_antiaut an antiautomorphism,
    # so the image of every relation instance holds again; the image of a
    # corrupted one still FAILs
    rotate = partial(rotate_aut, n)
    for name, spec in SUITES.items():
        if spec.domain != "full":
            continue
        for inst in suite(name, n, r):
            auts = (rotate,) if _has_r(inst) else (rotate, sigma_antiaut)
            for aut in auts:
                rep = verify_identity(n, r, _image(inst, aut))
                assert rep.passed, (aut, rep.line())
    bad = q15_instance(n, r, corrupt=True)
    for aut in (rotate, sigma_antiaut):
        assert not verify_identity(n, r, _image(bad, aut)).passed


def test_sigma_antiaut():
    x = OperatorExpr.word([E(1), F(2)])
    assert sigma_antiaut(x) == OperatorExpr.word([E(2), F(1)])
    # involution on R-free words
    rng = random.Random(5)
    syms = [E(1), E(2), F(3), Sym("K", 2), Sym("Kinv", 1), P(Weight((2, 0, 0)))]
    for _ in range(50):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 6)))
        expr = OperatorExpr.word(word)
        assert sigma_antiaut(sigma_antiaut(expr)) == expr
    with pytest.raises(ValueError):
        sigma_antiaut(OperatorExpr.word([R]))


def test_distinguished_analyze_examples():
    lam = Weight((1, 0, 1))
    res = distinguished_analyze((P(lam),))
    assert res.is_strictly_distinguished and res.nonzero
    assert res.parse[0].c == 0

    # F_i^c 1_{lam+c a_i} E_i^c 1_lam with lam_i = 0, lam_{i+1} = c
    lam = Weight((0, 2, 1))
    i, c = 1, 2
    up = lam.plus_alpha(i, c)
    word = (F(i), F(i), P(up), E(i), E(i), P(lam))
    res = distinguished_analyze(word)
    assert res.is_strictly_distinguished and res.is_distinguished and res.nonzero

    # violating the weight condition is not a distinguished term
    res = distinguished_analyze((E(1), P(Weight((1, 1, 0)))))
    assert not res.is_distinguished

    # reduction: omit the interior projector
    word = (F(i), F(i), E(i), E(i), P(lam))
    res = distinguished_analyze(word)
    assert res.is_distinguished and not res.is_strictly_distinguished
    assert res.nonzero
    assert res.strict_form == (F(i), F(i), P(up), E(i), E(i), P(lam))

    # every rejection, with its reason
    p110 = P(Weight((1, 1, 0)))
    rejected = {
        (): "empty word",
        (K(1), p110): "symbol K1 outside the E/F/projector alphabet",
        (p110, E(1)): "word does not end with a projector",
        (E(1), p110): "E1 run needs weight entry 1 = 0 at (1, 1, 0)",
        (F(1), p110): "F1 run needs weight entry 2 = 0 at (1, 1, 0)",
        (P(Weight((2, 0, 0))), E(1), P(Weight((0, 2, 0)))):
            "projector (2,0,0) does not match the running weight (1, 1, 0)",
        # the E2 run leaves a negative entry, where no projector is inserted
        (E(1), E(2), P(Weight((2, 0, 0)))): "E1 run needs weight entry 1 = 0 at (2, 1, -1)",
    }
    for word, reason in rejected.items():
        res = distinguished_analyze(word)
        assert (res.is_strictly_distinguished, res.is_distinguished, res.parse,
                res.strict_form, res.nonzero, res.reason) == (
            False, False, None, None, False, reason), word

    # a run past its threshold parses strictly, but to zero and with no
    # strict form, as the weight it leaves has a negative entry
    res = distinguished_analyze((E(1), E(1), P(Weight((0, 1, 1)))))
    assert res.is_strictly_distinguished and res.is_distinguished
    assert not res.nonzero and res.strict_form is None
    assert res.parse == (DistTerm("E", 1, 2, (0, 1, 1)),)


def test_distinguished_nonzero_agrees_with_evaluation():
    # exhaustive: strictly distinguished monomials of <= 3 terms over
    # Lambda(3,2), powers <= 2, compared against operator evaluation
    n, r = 3, 2
    weights = all_weights(n, r)
    terms = []
    for lam in weights:
        for i in range(1, n + 1):
            for c in (1, 2):
                if lam.entry(i) == 0:
                    terms.append((("E", i, c), lam))
                if lam.entry(i + 1) == 0:
                    terms.append((("F", i, c), lam))

    def left_weight(tdesc, lam):
        kind, i, c = tdesc
        return lam.plus_alpha(i, c if kind == "E" else -c)

    checked = 0
    for (t1, lam1) in terms:
        chains = [[(t1, lam1)]]
        for _ in range(2):
            new_chains = []
            for chain in chains:
                head_t, head_lam = chain[0]
                w = left_weight(head_t, head_lam)
                if w is None:
                    continue
                for (t2, lam2) in terms:
                    if lam2 == w:
                        new_chains.append([(t2, lam2)] + chain)
            chains += new_chains
        for chain in chains:
            word = []
            for (kind, i, c), lam in chain:
                word += [Sym(kind, i)] * c + [P(lam)]
            res = distinguished_analyze(tuple(word))
            assert res.is_strictly_distinguished
            anchor = chain[-1][1]
            vecs = weight_space_basis(n, anchor, 1, n)  # complete: the shift lemma
            nonzero_eval = any(
                act_expr_basis(n, OperatorExpr.word(word), b) for b in vecs
            )
            assert res.nonzero == nonzero_eval, [t for t, _ in chain]
            checked += 1
    assert checked > 200


def test_zeta_words_are_distinguished():
    for n, r in ((3, 2), (4, 3)):
        for name in ("rho", "rho-inv"):
            expr = zeta(n, r, name)
            ((word, _),) = expr.terms.items()
            res = distinguished_analyze(word)
            assert res.is_distinguished and res.nonzero, (n, r, name)


def test_zeta_right_anchor():
    # 1_omega zeta(w) = zeta(w) as operators on a window past the box [1, n]^r
    n, r = 3, 2
    om = omega(n, r)
    for name in ("s1", "rho", "rho-inv", f"s{r}"):
        z = zeta(n, r, name)
        anchored = projector(om) * z
        for b in product(range(-2, n + 3), repeat=r):
            assert act_expr_basis(n, z, b) == act_expr_basis(n, anchored, b)


def test_suite_names_and_instantiation():
    with pytest.raises(ValueError):
        suite("nonsense", 3, 2)
    with pytest.raises(ValueError):
        suite("qaffine", 2, 2)  # needs n > r
    qa = suite("qaffine", 3, 2)
    assert {i.name for i in qa} == {"Q1", "Q2", "Q3", "Q4", "Q5", "Q8", "Q9"}
    sp = suite("schur-presentation", 3, 2)
    assert sorted(i.name for i in sp) == ["Q15", "Q16", "Q16", "Q16"]
    zs = suite("zeta", 4, 3)
    names = {i.name for i in zs}
    assert "zeta-intertwine" in names and "zeta-rot-sr-right" in names


def test_run_suite_passes_small():
    for name in ("schur-presentation", "extended"):
        reports = run_suite(name, 3, 2)
        assert all(rep.passed for rep in reports)


def test_factor_en_identity_case():
    n, r = 3, 2
    res = factor_En(n, r, omega(n, r))
    assert res.holds
    assert res.z_num == ONE and res.z_den == ONE


def test_mu_nu_helpers():
    lam = Weight((2, 0, 0, 3, 0, 0, 0, 0, 2))
    mu = mu_from_lambda(lam)
    assert mu.parts == (2, 3, 2, 0, 0, 0, 0, 0, 0)
    nu = nu_from_mu(mu)
    assert nu.parts == (2, 0, 3, 0, 0, 2, 0, 0, 0)
    assert sum(nu.parts[:7]) == 7  # everything inside the first r slots
