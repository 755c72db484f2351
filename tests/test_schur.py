import copy
import itertools
import math
import pickle
import random

import pytest

from aschur.aweyl import AffinePerm, distinguished_members, enumerate_up_to_length
from aschur.hecke import HeckeElement, t_element, x_lambda, young_parabolic
from aschur.operators import P
from aschur.ring import LaurentPoly
from aschur.schur import (
    BasisExpansionError,
    SchurBasisIndex,
    SchurElement,
    _mul_basis,
    expand_in_basis,
    hecke_embed,
    identity_element,
    phi_value,
)
from aschur.weights import Weight, all_weights, omega
from conftest import clear_aweyl_caches

Q = LaurentPoly.q()


def test_young_subgroup():
    assert young_parabolic(omega(3, 2)).gens == frozenset()
    assert young_parabolic(Weight((2, 1, 0))).gens == {1}
    assert young_parabolic(Weight((3, 0, 0))).gens == {1, 2}
    assert young_parabolic(Weight((1, 2, 1))).gens == {2}


def test_phi_value_examples():
    om = omega(3, 2)
    e = AffinePerm.identity(2)
    assert phi_value(SchurBasisIndex(om, om, e)) == t_element(e)
    lam = Weight((2, 0, 0))
    val = phi_value(SchurBasisIndex(lam, lam, e))
    assert val == t_element(e) + t_element(AffinePerm.s(2, 1))
    s1 = AffinePerm.s(2, 1)
    assert phi_value(SchurBasisIndex(om, om, s1)) == t_element(s1)


def test_phi_rejects_nonminimal_d():
    lam = Weight((2, 0, 0))
    s1 = AffinePerm.s(2, 1)
    with pytest.raises(ValueError):
        SchurBasisIndex(lam, lam, s1)
    idx = SchurBasisIndex.make(lam, lam, s1)  # normalized instead
    assert idx.d.is_identity()


def test_index_guards():
    e2 = AffinePerm.identity(2)
    lam = Weight((2, 0, 0))
    for mu in (Weight((1, 1)), Weight((1, 1, 1))):  # another n, another r
        with pytest.raises(ValueError, match=r"weights must share \(n, r\)"):
            SchurBasisIndex(lam, mu, e2)
    with pytest.raises(ValueError, match="permutation period must equal r"):
        SchurBasisIndex(lam, lam, AffinePerm.identity(3))
    idx = SchurBasisIndex(lam, lam, e2)
    for n, r in ((4, 2), (3, 3)):
        with pytest.raises(ValueError, match=r"index does not match \(n, r\)"):
            SchurElement(n, r, {idx: LaurentPoly.one()})
    # the fields are read-only views of the plain tuple
    assert (idx.lam, idx.mu, idx.d) == (lam, lam, e2)
    with pytest.raises(AttributeError):
        idx.d = AffinePerm.rho(2)
    # copy and pickle rebuild the index through the checking constructor
    for twin in (copy.deepcopy(idx), pickle.loads(pickle.dumps(idx))):
        assert type(twin) is SchurBasisIndex and twin == idx


@pytest.mark.parametrize("value, plain, text, field", [
    (Weight((2, 0, 0)), (2, 0, 0), "Weight(2, 0, 0)", "parts"),
    (AffinePerm.rho(2), (2, 1, (1, 2)), "AffinePerm('rho^1 * [1,2]')", "window"),
    (P(Weight((1, 1, 0))), ("P", 0, (1, 1, 0)),
     "Sym(kind='P', index=0, weight=Weight(1, 1, 0))", "weight"),
], ids=["Weight", "AffinePerm", "Sym"])
def test_value_types_are_tuples(value, plain, text, field):
    # each equals and hashes as its plain tuple, so a lookup needs no conversion
    assert value == plain and hash(value) == hash(plain) and {plain: 1}[value] == 1
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize("parts, message", [
    ((), "weight needs at least one part"),
    ((1, -1, 2), "weight parts must be nonnegative"),
])
def test_weight_guards(parts, message):
    with pytest.raises(ValueError, match=message):
        Weight(parts)


def test_block_structure():
    om = omega(3, 2)
    lam = Weight((2, 0, 0))
    e = AffinePerm.identity(2)
    a = SchurElement.basis(SchurBasisIndex(om, lam, e))
    b = SchurElement.basis(SchurBasisIndex(om, om, e))
    assert (a * a).is_zero()  # middle weights lam != om
    assert not (a * SchurElement.basis(SchurBasisIndex(lam, om, e))).is_zero()
    assert (b * a) == a


def test_unit_acts_on_blocks():
    om = omega(3, 2)
    lam = Weight((2, 0, 0))
    e = AffinePerm.identity(2)
    unit_block = SchurElement.basis(SchurBasisIndex(lam, lam, e))
    x = SchurElement.basis(SchurBasisIndex(lam, om, e))
    assert unit_block * x == x


def test_q17_example():
    # the worked product: phi^1_{om,lam} phi^1_{lam,om} with lam = (2,0,0)
    om = omega(3, 2)
    lam = Weight((2, 0, 0))
    e = AffinePerm.identity(2)
    prod = SchurElement.basis(SchurBasisIndex(om, lam, e)) * SchurElement.basis(
        SchurBasisIndex(lam, om, e)
    )
    expected = SchurElement(3, 2, {
        SchurBasisIndex(om, om, e): LaurentPoly.one(),
        SchurBasisIndex(om, om, AffinePerm.s(2, 1)): LaurentPoly.one(),
    })
    assert prod == expected


def test_quadratic_in_omega_block():
    om = omega(3, 2)
    s1 = AffinePerm.s(2, 1)
    phis = SchurElement.basis(SchurBasisIndex(om, om, s1))
    phione = SchurElement.basis(SchurBasisIndex(om, om, AffinePerm.identity(2)))
    assert phis * phis == phione.scaled(Q) + phis.scaled(Q - 1)


def test_identity_element():
    unit = identity_element(3, 2)
    assert len(unit.terms) == len(all_weights(3, 2)) == 6
    rng = random.Random(9)
    elems = list(enumerate_up_to_length(2, 3))
    weights = all_weights(3, 2)
    for _ in range(50):
        lam, mu = rng.choice(weights), rng.choice(weights)
        d = AffinePerm.identity(2)
        while True:
            cand = rng.choice(elems).mul_rho_left(rng.randint(-1, 1))
            from aschur.aweyl import double_coset_min

            d = double_coset_min(cand, young_parabolic(lam), young_parabolic(mu))
            break
        x = SchurElement.basis(SchurBasisIndex(lam, mu, d))
        assert unit * x == x
        assert x * unit == x


def _seeded_sum(rng, pairs, count, elems):
    # a sum at (4, 3) of count basis elements phi^d_{lam,mu}, (lam, mu)
    # drawn from pairs, with coefficients +-v^k and +-2v^k
    x = SchurElement(4, 3)
    for _ in range(count):
        lam, mu = rng.choice(pairs)
        idx = SchurBasisIndex.make(lam, mu, rng.choice(elems).mul_rho_left(rng.randint(-1, 1)))
        c = LaurentPoly.v(rng.randint(-2, 2), rng.choice((1, -1, 2, -2)))
        x = x + SchurElement.basis(idx).scaled(c)
    return x


def test_products_pair_terms_by_middle_weight():
    # multi-term elements at (4, 3) spread over several (lam, mu) blocks,
    # against the products of their terms taken basis by basis
    rng = random.Random(4303)
    elems = list(enumerate_up_to_length(3, 2))
    a, b, c, d, e = rng.sample(all_weights(4, 3), 5)
    x = _seeded_sum(rng, [(a, b), (a, c), (b, c), (c, b), (d, a), (b, b)], 14, elems)
    y = _seeded_sum(rng, [(b, a), (c, d), (b, c), (c, c), (a, e), (e, b)], 14, elems)
    assert len({(k.lam, k.mu) for k in x.terms}) >= 4
    unit = identity_element(4, 3)
    assert unit * x == x == x * unit
    want = SchurElement(4, 3)
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            if k1.mu == k2.lam:
                want = want + _mul_basis(k1, k2).scaled(c1 * c2)
    got = x * y
    assert got == want and not got.is_zero()
    # blocks that never meet: the first weights of z, d and e, are none of
    # the second weights a, b, c of x, though z's second weights are
    z = _seeded_sum(rng, [(d, b), (e, c), (d, a), (e, b)], 8, elems)
    assert x * z == SchurElement(4, 3)


def test_hecke_embedding_is_multiplicative_small():
    n, r = 3, 2
    elems = [w.mul_rho_left(z)
             for w in enumerate_up_to_length(r, 3) for z in (-1, 0, 1)]
    for u, v in itertools.product(elems, elems):
        lhs = hecke_embed(t_element(u) * t_element(v), n)
        rhs = hecke_embed(t_element(u), n) * hecke_embed(t_element(v), n)
        assert lhs == rhs, (u.render(), v.render())


def test_embed_examples_and_finite_check():
    n, r = 3, 2
    e = AffinePerm.identity(r)
    om = omega(n, r)
    assert hecke_embed(t_element(e), n) == SchurElement.basis(SchurBasisIndex(om, om, e))
    with pytest.raises(ValueError):
        hecke_embed(t_element(e), 1)


def test_associativity_small():
    n, r = 3, 2
    e = AffinePerm.identity(r)
    om = omega(n, r)
    lam = Weight((2, 0, 0))
    mu = Weight((1, 0, 1))
    idxs = [
        SchurBasisIndex(om, om, AffinePerm.s(r, 1)),
        SchurBasisIndex(om, lam, e),
        SchurBasisIndex(lam, om, e),
        SchurBasisIndex(lam, lam, e),
        SchurBasisIndex(mu, lam, SchurBasisIndex.make(mu, lam, AffinePerm.s(r, 2)).d),
        SchurBasisIndex(om, om, AffinePerm.rho(r)),
    ]
    basis = [SchurElement.basis(i) for i in idxs]
    for a, b, c in itertools.product(basis, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_expansion_remainder_guard():
    # a Hecke element that is not a combination of double-coset sums
    lam = Weight((2, 0, 0))
    bad = t_element(AffinePerm.s(2, 1))  # missing its coset partner T_1
    with pytest.raises(BasisExpansionError):
        expand_in_basis(lam, lam, bad)


def test_expansion_rejects_unequal_coset_coefficients():
    # the whole coset {e, s1} of W_(2) is present, but T_e + 2 T_{s1} is not
    # a multiple of its coset sum: one T_{s1} is left after the first step
    lam = Weight((2, 0, 0))
    e, s1 = AffinePerm.identity(2), AffinePerm.s(2, 1)
    value = t_element(e) + t_element(s1).scaled(LaurentPoly.const(2))
    with pytest.raises(BasisExpansionError):
        expand_in_basis(lam, lam, value)


def test_expansion_rejects_a_coset_missing_one_member():
    # the coset sum of S_(3) d S_(2,1) at r = 3, less one member that is not
    # the pivot
    lam, mu = Weight((3, 0, 0)), Weight((2, 1, 0))
    idx = SchurBasisIndex.make(lam, mu, AffinePerm.s(3, 3))
    value = phi_value(idx)
    assert len(value.terms) > 2
    gone = max(value.terms, key=lambda w: w.length())
    assert gone != idx.d
    with pytest.raises(BasisExpansionError, match="none"):
        expand_in_basis(lam, mu, value - t_element(gone))
    assert expand_in_basis(lam, mu, value) == SchurElement.basis(idx)


def test_expansion_rejects_a_stray_term():
    # a valid value plus one T_w that no full coset covers: w is minimal in
    # its coset {s2, s1 s2, s2 s1, s1 s2 s1} of W_(2) at r = 2, whose other
    # members are absent
    lam = Weight((2, 0, 0))
    e, s2 = AffinePerm.identity(2), AffinePerm.s(2, 2)
    good = phi_value(SchurBasisIndex(lam, lam, e))
    assert expand_in_basis(lam, lam, good) == SchurElement.basis(SchurBasisIndex(lam, lam, e))
    with pytest.raises(BasisExpansionError):
        expand_in_basis(lam, lam, good + t_element(s2))
    # a stray T_w whose w is not minimal in its coset fails the pivot check
    with pytest.raises(BasisExpansionError, match="not coset-minimal"):
        expand_in_basis(lam, lam, good + t_element(AffinePerm.s(2, 1) * s2))
    # weights of another (n, r) are the caller's error, not a bad value
    with pytest.raises(ValueError):
        expand_in_basis(lam, Weight((1, 1)), good)


def test_generator_product_at_r_6():
    # phi_{(6),(5,1)} phi_{(5,1),(6)} = [6]_q phi_{(6),(6)}, with
    # [6]_q = 1 + q + ... + q^5; the left factor is the sum over all 720
    # elements of S_6 (r = 4 and 5 are in the golden generator products)
    r = 6
    top, hook = Weight((r, 0, 0)), Weight((r - 1, 1, 0))
    e = AffinePerm.identity(r)
    assert len(phi_value(SchurBasisIndex(top, hook, e)).terms) == math.factorial(r)
    _check_generator_product(r)


def test_generator_product_at_r_7():
    # the same product at r = 7: [7]_q phi_{(7),(7)}, with a left factor of
    # 5,040 terms in H; in the module x_(7) H it is x_(7) T_1, and the
    # product takes about a millisecond
    _check_generator_product(7)


@pytest.mark.parametrize("r", [8, 10])
def test_generator_product(r):
    # r = 8 and 10: each of the r distinguished members of the right factor
    # collapses x_(r) T_1 to a power of q, so even r = 10 (a left factor of
    # 3,628,800 terms in H) takes milliseconds
    _check_generator_product(r)


def _check_generator_product(r):
    top, hook = Weight((r, 0, 0)), Weight((r - 1, 1, 0))
    e = AffinePerm.identity(r)
    left = SchurElement.basis(SchurBasisIndex(top, hook, e))
    right = SchurElement.basis(SchurBasisIndex(hook, top, e))
    qint = sum((LaurentPoly.q(k) for k in range(r)), LaurentPoly.zero())
    assert left * right == SchurElement.basis(SchurBasisIndex(top, top, e)).scaled(qint)


def test_expansion_indices_equal_checked_ones():
    # expand_in_basis builds its indices without the constructor's check;
    # each must equal, and hash like, the index the checking constructor
    # makes, so that sums and comparisons with other elements work
    lam, mu = Weight((2, 1, 0)), Weight((1, 1, 1))
    for w in enumerate_up_to_length(3, 3):
        idx = SchurBasisIndex.make(lam, mu, w.mul_rho_left(1))
        (built,) = expand_in_basis(lam, mu, phi_value(idx)).terms
        checked = SchurBasisIndex(lam, mu, idx.d)
        assert built == checked and hash(built) == hash(checked)
        assert built.render() == checked.render()
        assert SchurElement.basis(built) - SchurElement.basis(checked) == SchurElement(3, 3)


def test_phi_value_matches_x_lambda_action():
    # phi^1_{lam,mu}(x_mu) agrees with x_lam * h for its right generator
    om = omega(3, 2)
    lam = Weight((2, 0, 0))
    e = AffinePerm.identity(2)
    val = phi_value(SchurBasisIndex(lam, lam, e))
    assert val == x_lambda(lam)
    val2 = phi_value(SchurBasisIndex(lam, om, e))
    assert val2 == x_lambda(lam)


def _right_generator(idx: SchurBasisIndex) -> HeckeElement:
    # h with phi^d_{lam,mu}(x_mu) = x_lam * h: the sum of T_b over the
    # members b of S_lam d S_mu that are minimal in S_lam b
    pil, pim = young_parabolic(idx.lam), young_parabolic(idx.mu)
    members = distinguished_members(pil, idx.d, pim)
    return HeckeElement(idx.d.r, dict.fromkeys(members, LaurentPoly.one()))


def _module_value(prod: SchurElement) -> HeckeElement:
    # x_lam-module coefficients of a product phi_A phi_B = sum c phi_C: each
    # distinguished member of each C carries its c
    terms = {}
    for k, c in prod.terms.items():
        pil, pim = young_parabolic(k.lam), young_parabolic(k.mu)
        terms.update(dict.fromkeys(distinguished_members(pil, k.d, pim), c))
    return HeckeElement(prod.r, terms)


def _check_product(k1, k2, corrupt=False):
    # the product folded in x_lam H against the Hecke route: the whole
    # double coset of k1 times the right generator of k2, re-expanded on
    # full cosets
    got = _mul_basis(k1, k2)
    want = expand_in_basis(k1.lam, k2.mu, phi_value(k1) * _right_generator(k2))
    assert got == want, (k1.render(), k2.render())
    if not corrupt:
        return
    # the module route's member guard: one distinguished member of a
    # coset with several, v added to its coefficient, must raise
    value = _module_value(got)
    assert expand_in_basis(k1.lam, k2.mu, value, distinguished=True) == got
    pivots = {k.d for k in got.terms}
    w = next((w for w in value.terms if w not in pivots), None)
    if w is not None:
        bad = value + t_element(w).scaled(LaurentPoly.v())
        with pytest.raises(BasisExpansionError, match="has coefficient"):
            expand_in_basis(k1.lam, k2.mu, bad, distinguished=True)


def test_module_product_matches_hecke_route_exhaustively():
    # every basis pair at (3, 2) whose d has length <= 1 and rho power
    # -1..2 (306 indices, 16,092 composable pairs)
    n, r = 3, 2
    weights = all_weights(n, r)
    indices = {
        SchurBasisIndex.make(lam, mu, w.mul_rho_left(z))
        for lam in weights for mu in weights
        for w in enumerate_up_to_length(r, 1) for z in range(-1, 3)
    }
    by_lam = {}
    for k in indices:
        by_lam.setdefault(k.lam, []).append(k)
    pairs = [(k1, k2) for k1 in indices for k2 in by_lam[k1.mu]]
    assert len(indices) == 306 and len(pairs) == 16092
    for k1, k2 in pairs:
        _check_product(k1, k2)


@pytest.mark.parametrize("n,r,count", [(3, 3, 400), (4, 3, 400), (2, 4, 150), (5, 4, 300)])
def test_module_product_matches_hecke_route_on_a_sample(n, r, count):
    # seeded pairs with d of length <= 3 at rho powers -1..2, each also
    # checking the module route's member guard
    rng = random.Random(1000 * n + r)
    weights = all_weights(n, r)
    elems = list(enumerate_up_to_length(r, 3))
    for _ in range(count):
        lam, mu, nu = (rng.choice(weights) for _ in range(3))
        k1, k2 = (
            SchurBasisIndex.make(a, b, rng.choice(elems).mul_rho_left(rng.randint(-1, 2)))
            for a, b in ((lam, mu), (mu, nu))
        )
        _check_product(k1, k2, corrupt=True)


def test_mul_basis_is_the_same_with_cold_and_warm_caches():
    # the aweyl caches hold pure functions of tuples: a product computed
    # with every one of them emptied equals the one computed warm
    rng = random.Random(22)
    n, r = 4, 3
    weights = all_weights(n, r)
    elems = list(enumerate_up_to_length(r, 3))
    pairs = []
    for _ in range(40):
        lam, mu, nu = (rng.choice(weights) for _ in range(3))
        pairs.append(tuple(
            SchurBasisIndex.make(a, b, rng.choice(elems).mul_rho_left(rng.randint(-1, 2)))
            for a, b in ((lam, mu), (mu, nu))
        ))
    cold = []
    for k1, k2 in pairs:
        clear_aweyl_caches()
        cold.append(_mul_basis(k1, k2))
    warm = [_mul_basis(k1, k2) for k1, k2 in pairs]
    assert cold == warm and any(p.terms for p in cold)


def test_module_expansion_guards():
    # the expansion on distinguished members, which the product path uses,
    # keeps every guard of the full-coset one: at r = 3 with lam = (2,1,0)
    # and mu = (3,0,0), the coset S_3 of d = 1 has three distinguished
    # members
    lam, mu = Weight((2, 1, 0)), Weight((3, 0, 0))
    idx = SchurBasisIndex(lam, mu, AffinePerm.identity(3))
    good = _right_generator(idx)
    assert len(good.terms) == 3
    assert expand_in_basis(lam, mu, good, distinguished=True) == SchurElement.basis(idx)
    top = max(good.terms, key=lambda w: w.length())
    with pytest.raises(BasisExpansionError, match="none"):
        expand_in_basis(lam, mu, good - t_element(top), distinguished=True)
    with pytest.raises(BasisExpansionError, match="has coefficient"):
        expand_in_basis(lam, mu, good + t_element(top), distinguished=True)
    # s1 is not minimal in its right S_lam-coset, so it fails as a pivot
    with pytest.raises(BasisExpansionError, match="not coset-minimal"):
        expand_in_basis(lam, mu, good + t_element(AffinePerm.s(3, 1)), distinguished=True)
    # s3 is minimal in its double coset, whose other members are absent
    with pytest.raises(BasisExpansionError, match="none"):
        expand_in_basis(lam, mu, good + t_element(AffinePerm.s(3, 3)), distinguished=True)
