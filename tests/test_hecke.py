import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from aschur.aweyl import AffinePerm, enumerate_up_to_length
from aschur.hecke import HeckeElement, t_element, x_lambda, young_parabolic
from aschur.ring import LaurentPoly, add_term
from aschur.weights import Weight

Q = LaurentPoly.q()
QM1 = Q - 1


def T(w):
    return t_element(w)


def gens(r):
    return {i: AffinePerm.s(r, i) for i in range(1, r + 1)}


def test_t_element_examples():
    r = 3
    assert T(AffinePerm.identity(r)).render() == "(1)*T[rho^0 * [1,2,3]]"
    w = AffinePerm.rho(r) * AffinePerm.s(r, 1)
    e = T(w)
    assert list(e.terms.values()) == [LaurentPoly.one()]
    # T_{rho * s_1} is the single basis term built as T_rho T_{s_1}
    assert T(AffinePerm.rho(r)) * T(AffinePerm.s(r, 1)) == e


def test_quadratic_relation():
    for r in (3, 4):
        for i in range(1, r + 1):
            ts = T(AffinePerm.s(r, i))
            assert ts * ts == T(AffinePerm.identity(r)).scaled(Q) + ts.scaled(QM1)


def test_braid_and_commuting_relations():
    for r in (3, 4):
        s = gens(r)
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j:
                    continue
                adjacent = (i - j) % r in (1, r - 1)
                ti, tj = T(s[i]), T(s[j])
                if adjacent and r > 2:
                    assert ti * tj * ti == tj * ti * tj, (r, i, j)
                elif not adjacent:
                    assert ti * tj == tj * ti, (r, i, j)


def test_rho_conjugation_relation():
    for r in (3, 4):
        s = gens(r)
        trho = T(AffinePerm.rho(r))
        trhoi = T(AffinePerm.rho(r, -1))
        for i in range(1, r + 1):
            j = i % r + 1  # s_{i+1}, cyclically
            assert trho * T(s[j]) * trhoi == T(s[i])


def test_modified_presentation_relations():
    # the presentation on T_{s_1}..T_{s_{r-1}} and T_rho^{+-1}
    for r in (3, 4):
        s = gens(r)
        trho = T(AffinePerm.rho(r))
        trhoi = T(AffinePerm.rho(r, -1))
        assert trho * trhoi == T(AffinePerm.identity(r))
        for i in range(1, r):
            ti = T(s[i])
            assert ti * ti == T(AffinePerm.identity(r)).scaled(Q) + ti.scaled(QM1)
            for j in range(i + 1, r):
                if j - i > 1:
                    assert T(s[i]) * T(s[j]) == T(s[j]) * T(s[i])
                else:
                    assert T(s[i]) * T(s[j]) * T(s[i]) == T(s[j]) * T(s[i]) * T(s[j])
        for i in range(1, r - 1):
            assert trho * T(s[i + 1]) * trhoi == T(s[i])
        rho_r = T(AffinePerm.rho(r, r))
        rho_r_inv = T(AffinePerm.rho(r, -r))
        for i in range(1, r):
            assert rho_r * T(s[i]) * rho_r_inv == T(s[i])


def test_length_additivity():
    r = 3
    elems = list(enumerate_up_to_length(r, 3))
    for u, v in itertools.product(elems, elems):
        if (u * v).length() == u.length() + v.length():
            assert T(u) * T(v) == T(u * v)


def test_associativity_sample_with_rho():
    rng = random.Random(31)
    r = 3
    elems = [w.mul_rho_left(z)
             for w in enumerate_up_to_length(r, 3) for z in (-1, 0, 1)]
    for _ in range(150):
        u, v, w = rng.sample(elems, 3)
        assert (T(u) * T(v)) * T(w) == T(u) * (T(v) * T(w))


def test_x_lambda():
    assert x_lambda(Weight((1, 1, 0))) == T(AffinePerm.identity(2))
    e = x_lambda(Weight((2, 1, 0)))
    assert e == T(AffinePerm.identity(3)) + T(AffinePerm.s(3, 1))
    full = x_lambda(Weight((3, 0, 0)))
    assert len(full.terms) == 6
    assert all(c == LaurentPoly.one() for c in full.terms.values())
    # shifted subgroup picks up the affine generator
    shifted = x_lambda(Weight((2, 1, 0)), shift=2)
    assert shifted == T(AffinePerm.identity(3)) + T(AffinePerm.s(3, 3))


def test_x_lambda_absorbs_its_generators():
    lam = Weight((2, 1, 0))
    x = x_lambda(lam)
    for i in young_parabolic(lam).gens:
        assert T(AffinePerm.s(lam.r, i)) * x == x.scaled(Q)
        assert x * T(AffinePerm.s(lam.r, i)) == x.scaled(Q)


def test_specialization_at_one_is_group_algebra():
    rng = random.Random(41)
    r = 3
    elems = [w.mul_rho_left(z)
             for w in enumerate_up_to_length(r, 3) for z in (-1, 0, 1)]
    for _ in range(120):
        u, v = rng.choice(elems), rng.choice(elems)
        prod = T(u) * T(v)
        spec = {w: c.specialize(1) for w, c in prod.terms.items()}
        spec = {w: c for w, c in spec.items() if c}
        assert spec == {u * v: 1}, (u.render(), v.render())


def reference_product(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """T_u T_v term by term, folding with mul_gen_right and the length
    formula: the rule of the module docstring, with no window tricks."""
    out: dict = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            acc = {u.mul_rho_right(v.z): cu * cv}
            for i in v.reduced_word():
                nxt: dict = {}
                for x, c in acc.items():
                    xs = x.mul_gen_right(i)
                    if xs.length() > x.length():
                        add_term(nxt, xs, c)
                    else:
                        add_term(nxt, xs, c * Q)
                        add_term(nxt, x, c * QM1)
                acc = nxt
            for w, c in acc.items():
                add_term(out, w, c)
    return HeckeElement(a.r, out)


coeffs = st.one_of(
    st.builds(LaurentPoly.v, st.integers(-3, 3), st.sampled_from([1, -1, 2, 3])),
    st.builds(lambda e: LaurentPoly({e: 2, 0: 1}), st.integers(-2, 2)),
)


@st.composite
def hecke_elements(draw, r):
    """1 to 3 terms, each rho^z times a word of up to 3 letters; or, half
    the time, descent chains: at one or two rho powers, some prefixes of
    a word of up to 5 letters, so that a term's prefix one letter shorter
    is present, absent, or two letters below, as in a phi product's right
    factor."""
    terms: dict = {}
    if draw(st.booleans()):
        for z in draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2, unique=True)):
            w = AffinePerm.rho(r, z)
            prefixes = [w]
            for i in draw(st.lists(st.integers(1, r), max_size=5)):
                w = w.mul_gen_right(i)
                prefixes.append(w)
            for w in prefixes:
                if draw(st.booleans()):
                    add_term(terms, w, draw(st.one_of(st.just(LaurentPoly.one()), coeffs)))
        if terms:
            return HeckeElement(r, terms)
    for _ in range(draw(st.integers(1, 3))):
        w = AffinePerm.rho(r, draw(st.integers(-2, 2)))
        for i in draw(st.lists(st.integers(1, r), max_size=3)):
            w = w.mul_gen_right(i)
        add_term(terms, w, draw(coeffs))
    return HeckeElement(r, terms)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_product_of_multi_term_elements(data):
    # several terms, mixed rho powers, coefficients other than 1 (one of
    # them two terms, not a unit), descent chains in the right factor: the
    # window fold of the product must agree with the sum of single-term
    # products and with the reference fold on AffinePerms and length()
    r = data.draw(st.sampled_from([2, 3, 4]))
    a, b, c = (data.draw(hecke_elements(r)) for _ in range(3))
    ab = a * b
    termwise = HeckeElement(r)
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            termwise = termwise + (t_element(u) * t_element(v)).scaled(cu * cv)
    assert ab == termwise
    assert ab == reference_product(a, b)
    assert all(x for x in ab.terms.values())
    assert ab * c == a * (b * c)


def test_window_fold_on_whole_length_balls():
    # the product against the reference fold on right factors that hold
    # all of W up to length 2 at two rho powers, and the same with length
    # 1 removed, each term with a coefficient of its own
    r = 3
    ball = enumerate_up_to_length(r, 2)
    left = x_lambda(Weight((2, 1, 0))) + T(AffinePerm.rho(r, -1)).scaled(Q)
    full = {w.mul_rho_left(z): LaurentPoly.v(ell, ell + 1)
            for w, ell in ball.items() for z in (0, 1)}
    gapped = {w: c for w, c in full.items() if w.length() != 1}
    for terms in (full, gapped):
        right = HeckeElement(r, terms)
        assert left * right == reference_product(left, right)
