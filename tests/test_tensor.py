import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aschur.operators import E, F, K, Kinv, OperatorExpr, P, R, Rinv, Sym, cH, ce, cf
from aschur.ring import LaurentPoly, add_term, quantum_int, signed_quantum_int
from aschur.tensor import (
    _act_basis,
    act_expr_basis,
    act_symbol,
    act_word,
    shift,
    tau,
    weight_of,
    weight_space_basis,
    word_support,
)
from aschur.weights import Weight, all_weights, omega, residue

ONE = LaurentPoly.one()
V = LaurentPoly.v()


def unit(b):
    return {tuple(b): ONE}


def test_single_factor_actions():
    # n=3, r=1
    assert act_expr_basis(3, OperatorExpr.word([K(1)]), (1,)) == {(1,): V}
    assert act_expr_basis(3, OperatorExpr.word([K(2)]), (1,)) == unit((1,))
    assert act_expr_basis(3, OperatorExpr.word([E(1)]), (2,)) == unit((1,))
    assert act_expr_basis(3, OperatorExpr.word([E(1)]), (1,)) == {}
    assert act_expr_basis(3, OperatorExpr.word([F(1)]), (1,)) == unit((2,))
    assert act_expr_basis(3, OperatorExpr.word([R]), (5,)) == unit((6,))


def test_coproduct_examples():
    # n=3, r=2
    assert act_expr_basis(3, OperatorExpr.word([E(1)]), (1, 2)) == unit((1, 1))
    assert act_expr_basis(3, OperatorExpr.word([R]), (1, 2)) == unit((2, 3))
    # the twist: E_1 on (2, 2) sees K_1 K_2^-1 on the trailing factor
    out = act_expr_basis(3, OperatorExpr.word([E(1)]), (2, 2))
    assert out == {(1, 2): V.bar(), (2, 1): ONE}
    out = act_expr_basis(3, OperatorExpr.word([F(1)]), (1, 1))
    assert out == {(2, 1): ONE, (1, 2): V.bar()}


def test_weight_of():
    assert weight_of(3, (1, 2)).parts == (1, 1, 0)
    assert weight_of(3, (1, 4)).parts == (2, 0, 0)
    assert weight_of(4, (2, 3, 4)).parts == (0, 1, 1, 1)


def test_weight_transport():
    rng = random.Random(3)
    n, r = 4, 3
    for _ in range(60):
        b = tuple(rng.randint(-3, 7) for _ in range(r))
        lam = weight_of(n, b)
        for i in range(1, n + 1):
            for sym, c in ((E(i), 1), (F(i), -1)):
                out = act_symbol(n, sym, unit(b))
                for b2 in out:
                    expected = list(lam.parts)
                    expected[(i - 1) % n] += c
                    expected[i % n] -= c
                    assert weight_of(n, b2).parts == tuple(expected)


def test_shift_equivariance():
    rng = random.Random(5)
    n, r = 3, 2
    syms = [E(1), E(2), E(3), F(1), F(2), F(3), K(1), Kinv(2), R, Rinv]
    for _ in range(80):
        b = tuple(rng.randint(-4, 8) for _ in range(r))
        for sym in syms:
            lhs = act_symbol(n, sym, unit(shift(b, n)))
            rhs = {shift(bb, n): c for bb, c in act_symbol(n, sym, unit(b)).items()}
            assert lhs == rhs


@st.composite
def single_shifts(draw):
    """(n, symbol, basis tensor, position j, k): a symbol of any kind and a
    shift of coordinate j by k*n."""
    n, r = draw(st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 3), (3, 4)]))
    b = tuple(draw(st.lists(st.integers(-2 * n, 3 * n), min_size=r, max_size=r)))
    kind = draw(st.sampled_from(["E", "F", "K", "Kinv", "R", "Rinv", "P", "e", "f", "H"]))
    if kind == "P":
        # the weight of b half the time, so that P acts as the identity too
        own = draw(st.booleans())
        sym = P(weight_of(n, b) if own else draw(st.sampled_from(all_weights(n, r))))
    elif kind in ("R", "Rinv"):
        sym = R if kind == "R" else Rinv
    else:
        sym = Sym(kind, draw(st.integers(1, n)))
    return n, sym, b, draw(st.integers(0, r - 1)), draw(st.sampled_from([-2, -1, 1, 2]))


@settings(max_examples=1500, deadline=None)
@given(single_shifts())
def test_single_coordinate_shift_equivariance(case):
    # adding k*n to one coordinate commutes with every symbol: the lemma
    # that makes [1, n]^r a complete verification domain
    n, sym, b, j, k = case

    def moved(basis):
        return basis[:j] + (basis[j] + k * n,) + basis[j + 1 :]

    lhs = act_symbol(n, sym, unit(moved(b)))
    rhs = {moved(bb): c for bb, c in act_symbol(n, sym, unit(b)).items()}
    assert lhs == rhs


NON_PROJECTOR_KINDS = ["E", "F", "K", "Kinv", "R", "Rinv", "e", "f", "H"]


def _symbols(draw, n, r, max_size, kinds=NON_PROJECTOR_KINDS):
    """A list of symbols of the given kinds; a P takes a random weight."""
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_size)):
        if kind == "P":
            out.append(P(draw(st.sampled_from(all_weights(n, r)))))
        else:
            out.append({"R": R, "Rinv": Rinv}.get(kind) or Sym(kind, draw(st.integers(1, n))))
    return out


@st.composite
def projector_words(draw):
    """(n, r, word, b): a word with one to three projectors and a basis
    tensor b.  Each P(lam) takes, half the time, the weight that the
    symbols to its right give b when they do not annihilate it, so that
    many words are nonzero on b."""
    n, r = draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (4, 3), (5, 3), (3, 4)]))
    b = tuple(draw(st.lists(st.integers(-n, 2 * n), min_size=r, max_size=r)))
    word = _symbols(draw, n, r, 5)
    slots = draw(st.lists(st.integers(0, len(word)), min_size=1, max_size=3))
    for pos in sorted(set(slots), reverse=True):
        image = act_word(n, tuple(word[pos:]), unit(b))
        if image and draw(st.booleans()):
            lam = weight_of(n, next(iter(image)))
        else:
            lam = draw(st.sampled_from(all_weights(n, r)))
        word.insert(pos, P(lam))
    return n, r, tuple(word), b


@settings(max_examples=800, deadline=None)
@given(projector_words())
def test_projector_word_is_zero_off_its_source_weight(case):
    # the grading lemma: a word with a projector sends every basis tensor
    # whose weight is not its source weight to 0
    n, r, word, b = case
    mus, touched = word_support(n, r, word)
    assert mus is not None and len(mus) <= 1 and touched is None
    if weight_of(n, b) not in mus:
        assert act_word(n, word, unit(b)) == {}


@st.composite
def inert_words(draw):
    """(n, word, b): a word of up to three symbols of any kind, and a basis
    tensor b."""
    n, r = draw(st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 3), (6, 2), (6, 3)]))
    word = tuple(_symbols(draw, n, r, 3, NON_PROJECTOR_KINDS + ["P"]))
    b = tuple(draw(st.lists(st.integers(-2 * n, 3 * n), min_size=r, max_size=r)))
    return n, word, b


@settings(max_examples=800, deadline=None)
@given(inert_words())
def test_inert_residues_commute_with_the_action(case):
    # the inert-residue lemma: for every word whose touched residues
    # word_support gives (no P, R or R^-1), replacing each coordinate whose
    # residue the word does not touch by one representative residue c
    # commutes with the action
    n, word, b = case
    _, touched = word_support(n, len(b), word)
    if touched is None or len(touched) == n:
        return
    c = min(set(range(1, n + 1)) - touched)

    def relabel(basis):
        return tuple(t if residue(t, n) in touched else c for t in basis)

    pushed = {}
    for bb, coeff in act_word(n, word, unit(b)).items():
        add_term(pushed, relabel(bb), coeff)
    assert pushed == act_word(n, word, unit(relabel(b)))


def test_commutator_matches_k_difference():
    # (E_i F_i - F_i E_i) b = [lam_i - lam_{i+1}] b, via exact division
    n, r = 3, 2
    vminus = LaurentPoly({1: 1, -1: -1})
    for b in product(range(-1, 5), repeat=r):
        lam = weight_of(n, b)
        for i in range(1, n + 1):
            word_lhs = OperatorExpr.word([E(i), F(i)]) - OperatorExpr.word([F(i), E(i)])
            lhs = act_expr_basis(n, word_lhs, b)
            ktop = act_expr_basis(
                n, OperatorExpr.word([K(i), Kinv(i % n + 1)]), b
            )[b]
            kbot = act_expr_basis(
                n, OperatorExpr.word([Kinv(i), K(i % n + 1)]), b
            )[b]
            scalar = (ktop - kbot).exact_div(vminus) if ktop != kbot else LaurentPoly.zero()
            expected = {b: scalar} if not scalar.is_zero() else {}
            assert lhs == expected
            assert scalar == signed_quantum_int(lam.entry(i) - lam.entry(i + 1))


def test_act_word_composition():
    n = 3
    w1 = (E(1), F(2))
    w2 = (K(3), R)
    b = (1, 2)
    lhs = act_word(n, w1 + w2, unit(b))
    rhs = act_word(n, w1, act_word(n, w2, unit(b)))
    assert lhs == rhs
    assert act_word(n, (), unit(b)) == unit(b)
    assert act_expr_basis(n, OperatorExpr.word([K(1), Kinv(1)]), b) == unit(b)


def _reference_act(n, expr, b):
    """act_expr_basis by LaurentPoly sums over the one-step triples."""
    out = {}
    for word, coeff in expr.terms.items():
        vec = {b: coeff}
        for sym in reversed(word):
            parts = None if sym.weight is None else sym.weight.parts
            step = {}
            for b1, c in vec.items():
                for b2, e, m in _act_basis(n, sym.kind, sym.index, parts, b1):
                    add_term(step, b2, c * LaurentPoly.v(e, m))
            vec = step
        for b2, c in vec.items():
            add_term(out, b2, c)
    return out


COEFFS = [ONE, LaurentPoly.q() - 1, quantum_int(2), LaurentPoly.v(3, -1)]


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2)])
def test_flat_word_loop_matches_laurent_reference(n, r):
    # seeded sums of up to three words of length <= 4 over every symbol
    # kind, with the coefficients +-1, +-(q - 1), +-[2] and +-v^3, and no
    # zero coefficient in what comes back
    rng = random.Random(18 + n)
    kinds = ["E", "F", "K", "Kinv", "R", "Rinv", "P", "e", "f", "H"]
    weights = all_weights(n, r)

    def symbol():
        kind = rng.choice(kinds)
        if kind == "P":
            return P(rng.choice(weights))
        return {"R": R, "Rinv": Rinv}.get(kind) or Sym(kind, rng.randint(1, n))

    nonzero = 0
    for _ in range(600):
        expr = OperatorExpr({
            tuple(symbol() for _ in range(rng.randint(0, 4))): rng.choice(COEFFS) * rng.choice((1, -1))
            for _ in range(rng.randint(1, 3))
        })
        b = tuple(rng.randint(1, n) for _ in range(r))
        out = act_expr_basis(n, expr, b)
        assert out == _reference_act(n, expr, b), (expr.render(), b)
        assert all(c for c in out.values())  # no zero coefficient is stored
        nonzero += bool(out)
    assert nonzero > 200


def test_flat_word_loop_drops_zeros():
    # H_i counts residue i, so it kills a tensor with no such entry; a
    # difference of equal words, or of two terms with one image, cancels
    # to the empty vector
    assert act_expr_basis(3, OperatorExpr.word([cH(3)]), (1, 2)) == {}
    assert act_expr_basis(4, OperatorExpr.word([E(1), cH(2)]), (1, 4)) == {}
    x = OperatorExpr.word([E(1), F(2)], quantum_int(2)) + OperatorExpr.word([K(1)])
    assert act_expr_basis(3, x - x, (1, 2)) == {}
    # both words send e[1,2] to v^-1 e[1,2] + e[2,1]: [lam_1 - lam_2] = 0
    y = OperatorExpr.word([E(1), F(1)]) - OperatorExpr.word([F(1), E(1)])
    assert act_expr_basis(3, OperatorExpr.word([E(1), F(1)]), (1, 2)) == {(1, 2): V.bar(), (2, 1): ONE}
    assert act_expr_basis(3, y, (1, 2)) == {}
    # F_1 sends both e[1,2] and v^-1 e[2,1] to e[2,2]
    assert act_word(3, (F(1),), {(1, 2): V, (2, 1): -ONE}) == {}
    assert act_word(3, (F(1),), {(1, 2): V, (2, 1): -V}) == {(2, 2): V - V * V}


def test_weight_space_basis():
    assert weight_space_basis(3, omega(3, 2), 1, 3) == [(1, 2), (2, 1)]
    assert weight_space_basis(3, Weight((2, 0, 0)), 1, 3) == [(1, 1)]
    assert weight_space_basis(3, Weight((0, 0, 2)), 1, 2) == []
    count = len(weight_space_basis(4, Weight((0, 1, 1, 1)), 1, 4))
    assert count == 6  # arrangements of {2,3,4}


def test_tau_examples():
    t1 = tau(3, 2, "s1")
    assert act_expr_basis(3, t1, (1, 2)) == {(2, 1): V}
    trho = tau(3, 2, "rho")
    trhoi = tau(3, 2, "rho-inv")
    prod = trho * trhoi
    prod2 = trhoi * trho
    for b in weight_space_basis(3, omega(3, 2), -3, 6):
        assert act_expr_basis(3, prod, b) == unit(b)
        assert act_expr_basis(3, prod2, b) == unit(b)


def test_tau_preserves_omega_space():
    om = omega(3, 2).parts
    for name in ("s1", "s2", "rho", "rho-inv"):
        op = tau(3, 2, name)
        for b in weight_space_basis(3, omega(3, 2), -3, 6):
            for bb in act_expr_basis(3, op, b):
                assert weight_of(3, bb).parts == om, (name, b, bb)


def test_tau_variants_agree_on_omega():
    for n, r in ((3, 2), (4, 3)):
        for name in ("rho", "rho-inv", f"s{r}"):
            a = tau(n, r, name, "with-R")
            b = tau(n, r, name, "R-free")
            for vb in weight_space_basis(n, omega(n, r), -2, n + 3):
                assert act_expr_basis(n, a, vb) == act_expr_basis(n, b, vb), (n, r, name, vb)


def test_classical_action():
    n = 3
    assert act_expr_basis(n, OperatorExpr.word([cH(1)]), (1, 2)) == unit((1, 2))
    assert act_expr_basis(n, OperatorExpr.word([ce(1)]), (1, 2)) == unit((1, 1))
    out = act_expr_basis(n, OperatorExpr.word([ce(1)]), (2, 2))
    assert out == {(1, 2): ONE, (2, 1): ONE}  # no twist classically


def test_classical_commutator():
    n, r = 3, 2
    rng = random.Random(11)
    lhs_word = OperatorExpr.word([ce(1), cf(1)]) - OperatorExpr.word([cf(1), ce(1)])
    rhs_word = OperatorExpr.word([cH(1)]) - OperatorExpr.word([cH(2)])
    for _ in range(50):
        b = tuple(rng.randint(-2, 6) for _ in range(r))
        assert act_expr_basis(n, lhs_word, b) == act_expr_basis(n, rhs_word, b)
