from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aschur.ring import (
    LaurentPoly,
    gauss_binom,
    quantum_fact,
    quantum_int,
    signed_quantum_int,
    specialize,
)

V = LaurentPoly.v()
ONE = LaurentPoly.one()


def naive_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Independent convolution routine for cross-checking products."""
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


def pascal_binom(m: int, t: int) -> LaurentPoly:
    """Balanced q-Pascal recurrence, as an oracle for gauss_binom."""
    if t == 0:
        return ONE
    if m <= 0:
        # fall back on the defining product for the base row
        return gauss_binom(m, t)
    return LaurentPoly.v(m - t) * pascal_binom(m - 1, t - 1) + LaurentPoly.v(
        -t
    ) * pascal_binom(m - 1, t)


laurents = st.builds(
    lambda items: LaurentPoly({e: c for e, c in items}),
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9)), min_size=0, max_size=5
    ),
)


def test_difference_of_squares():
    assert (V + 1) * (V - 1) == V * V - 1


def test_additive_identity():
    p = V**3 - 2 * V + LaurentPoly.v(-2)
    assert p + LaurentPoly.zero() == p


def test_square_of_v_plus_vinv():
    p = V + V.bar()
    expected = LaurentPoly({2: 1, 0: 2, -2: 1})
    assert p * p == expected
    assert naive_mul(p, p) == expected


@settings(max_examples=1000, deadline=None)
@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == naive_mul(a, b)


def test_quantum_int_basics():
    assert quantum_int(0).is_zero()
    assert quantum_int(1) == ONE
    assert quantum_int(2) == V + V.bar()
    assert signed_quantum_int(-3) == -quantum_int(3)


def test_quantum_fact():
    assert quantum_fact(1) == ONE
    # frozen from multiplying [2]*[3] with the naive convolution routine
    expected = naive_mul(quantum_int(2), quantum_int(3))
    assert quantum_fact(3) == expected
    assert expected == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})


def test_gauss_binom_edges():
    for m in range(0, 7):
        assert gauss_binom(m, 0) == ONE
    assert gauss_binom(2, 2) == ONE
    for t in range(1, 5):
        for m in range(0, t):
            assert gauss_binom(m, t).is_zero()


def test_gauss_binom_pascal_oracle():
    for m in range(0, 8):
        for t in range(0, 8):
            assert gauss_binom(m, t) == pascal_binom(m, t), (m, t)
    assert gauss_binom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_binomial_factorial_identity():
    for m in range(0, 9):
        for t in range(0, m + 1):
            lhs = gauss_binom(m, t) * quantum_fact(t) * quantum_fact(m - t)
            assert lhs == quantum_fact(m), (m, t)


def test_bar_invariance():
    for m in range(0, 7):
        assert quantum_int(m).bar() == quantum_int(m)
        assert quantum_fact(m).bar() == quantum_fact(m)
        for t in range(0, 5):
            assert gauss_binom(m, t).bar() == gauss_binom(m, t)


def test_specialize():
    assert specialize(V + V.bar(), 1) == 2
    q = LaurentPoly.q()
    assert specialize(q - 1, 1) == 0
    assert specialize(quantum_int(5), 1) == 5
    two = Fraction(2)
    assert specialize(quantum_int(5), two) == (two**5 - two**-5) / (two - two**-1)
    with pytest.raises(ZeroDivisionError):
        specialize(V, 0)


def test_exact_div():
    num = quantum_int(2) * quantum_int(3)
    assert num.exact_div(quantum_int(2)) == quantum_int(3)
    with pytest.raises(ValueError):
        (V + 1).exact_div(V + V.bar())


ints = st.integers(-9, 9)
int_laurents = st.dictionaries(st.integers(-6, 6), ints, max_size=5).map(LaurentPoly)


def _canonical(p: LaurentPoly) -> bool:
    """Every stored coefficient a nonzero int."""
    return all(type(x) is int and x for _, x in p.items())


@settings(max_examples=500, deadline=None)
@given(int_laurents, int_laurents, st.integers(0, 3), st.integers(-4, 4), ints)
def test_integer_inputs_keep_int_coefficients(a, b, k, e, x):
    unit = LaurentPoly.v(e, -1 if x < 0 else 1)
    for p in (a + b, a - b, a * b, -a, a + x, a * x, a**k, unit**-k, a.bar()):
        assert _canonical(p), p
    if b:
        quo = (a * b).exact_div(b)  # exact even when b's leading coefficient is not a unit
        assert quo == a and _canonical(quo)
    assert a.coeff(e) == dict(a.items()).get(e, 0) and type(a.coeff(e)) is int


@settings(max_examples=300, deadline=None)
@given(int_laurents, st.integers(-5, 5))
def test_shifted_is_a_product_by_a_power_of_v(a, k):
    # the exponent shift the Hecke fold uses for c * q
    assert a.shifted(k) == a * LaurentPoly.v(k)
    assert a.shifted(k).shifted(-k) == a
    assert _canonical(a.shifted(k))


@settings(max_examples=500, deadline=None)
@given(int_laurents, int_laurents)
def test_difference_is_the_sum_with_the_negation(a, b):
    # __sub__ works in one pass; it must agree with the sum a + (-b) and
    # store no zero (a coefficient that cancels is dropped)
    diff = a - b
    assert diff == a + (-b) and hash(diff) == hash(a + (-b))
    assert _canonical(diff), diff
    assert (a - a).is_zero() and a - 0 == a and 0 - a == -a
    assert a - 3 == a + (-3) and 3 - a == -(a - 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**20, 10**20))
def test_constants_hash_as_their_int(x):
    # a constant equals its int, so it must hash as it, and be found
    # under it in a dict or a set, zero included
    c = LaurentPoly.const(x)
    assert c == x and hash(c) == hash(x)
    assert {x: "a"}.get(c) == "a" and {c: "a"}.get(x) == "a"
    assert c in {x} and x in {c}
    assert len({x, c}) == 1
    zero = LaurentPoly.zero()
    assert zero == 0 and hash(zero) == hash(0) and {0: "z"}.get(zero) == "z"
    assert (c - c) in {0} and len({c - c, zero, 0}) == 1


def test_constructors_have_int_coefficients():
    for m in range(0, 7):
        assert _canonical(quantum_int(m)) and _canonical(quantum_fact(m))
        for t in range(0, 5):
            assert _canonical(gauss_binom(m, t)), (m, t)


def test_rational_coefficients_are_rejected():
    # the ring is Z[v, v^-1]: a rational coefficient is refused where it
    # would enter, and a division whose quotient is not there raises
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentPoly({1: Fraction(4, 2)})
    with pytest.raises(TypeError):
        V + 0.5
    with pytest.raises(ValueError):
        (V + 1).exact_div(2 * V + 2)
    with pytest.raises(ValueError):
        LaurentPoly.v(1, 2) ** -1
    # a quotient with integer coefficients needs no unit divisor
    assert (2 * V + 2).exact_div(LaurentPoly.const(2)) == V + 1
    assert (6 * V - 3).exact_div(LaurentPoly({2: 2, 1: -1})) == LaurentPoly.v(-1, 3)
    assert LaurentPoly.v(2, -1) ** -3 == LaurentPoly.v(-6, -1)
    assert (V + 1).structured() == [[1, 1, 1], [0, 1, 1]]


def test_render_modes():
    p = LaurentPoly({2: 1, 0: 2, -2: 1})
    assert p.render() == "v^2 + 2 + v^-2"
    assert p.render("q") == "q + 2 + q^-1"
    with pytest.raises(ValueError):
        (V + 1).render("q")
    assert p.structured() == [[2, 1, 1], [0, 2, 1], [-2, 1, 1]]
