import pytest

from aschur.aweyl import AffinePerm, enumerate_up_to_length, is_double_coset_min
from aschur.hecke import young_parabolic
from aschur.latmat import (
    PeriodicMatrix,
    bracket_coefficient,
    coset_from_matrix,
    d_stat,
    is_aperiodic,
    matrix_from_coset,
    row_col_sums,
)
from aschur.ring import LaurentPoly
from aschur.weights import Weight, all_weights, omega


def minimal_reps(n, r, lam, mu, max_len, z_range=2):
    pl, pm = young_parabolic(lam), young_parabolic(mu)
    reps = set()
    for w in enumerate_up_to_length(r, max_len):
        for z in range(-z_range, z_range + 1):
            d = w.mul_rho_left(z)
            if d.length() <= max_len and is_double_coset_min(d, pl, pm):
                reps.add(d)
    return reps


def test_row_col_sums():
    om = omega(3, 2)
    a = matrix_from_coset(om, om, AffinePerm.identity(2))
    assert a.entries == ((1, 1, 1), (2, 2, 1))
    rows, cols = row_col_sums(a)
    assert rows == om and cols == om
    single = PeriodicMatrix.from_dict(3, 2, {(1, 2): 2})
    rows, cols = row_col_sums(single)
    assert rows.parts == (2, 0, 0) and cols.parts == (0, 2, 0)


def brute_d_stat(a: PeriodicMatrix) -> int:
    # the defining sum over the translates (i2 + qn, j2 + qn) of each stored
    # entry, for every q in a window wider than the admissible one: as
    # |i - i2| < n, an admissible q has -|j - j2| <= q <= 0
    width = 2 + 2 * max(abs(j) for _, j, _ in a.entries)
    total = 0
    for i1, j1, v1 in a.entries:
        for i2, j2, v2 in a.entries:
            for q in range(-width, width + 1):
                if i1 >= i2 + q * a.n and j1 < j2 + q * a.n:
                    total += v1 * v2
    return total


def test_d_stat_basics():
    om = omega(3, 2)
    diag = matrix_from_coset(om, om, AffinePerm.identity(2))
    assert d_stat(diag) == 0
    m = PeriodicMatrix.from_dict(2, 2, {(1, 2): 1, (2, 1): 1})
    assert d_stat(m) == brute_d_stat(m) > 0
    for lam in all_weights(3, 3):
        for mu in all_weights(3, 3):
            for d in minimal_reps(3, 3, lam, mu, 3):
                a = matrix_from_coset(lam, mu, d)
                assert d_stat(a) == brute_d_stat(a), (lam, mu, d)


def test_aperiodicity():
    assert not is_aperiodic(PeriodicMatrix.from_dict(2, 2, {(1, 2): 1, (2, 3): 1}))
    assert is_aperiodic(PeriodicMatrix.from_dict(2, 2, {(1, 2): 1, (2, 1): 1}))
    assert is_aperiodic(PeriodicMatrix.from_dict(3, 2, {(1, 1): 1, (2, 2): 1}))


def test_bracket_coefficient():
    om = omega(3, 2)
    diag = matrix_from_coset(om, om, AffinePerm.identity(2))
    assert bracket_coefficient(diag) == LaurentPoly.one()
    m = PeriodicMatrix.from_dict(2, 2, {(1, 2): 1, (2, 1): 1})
    assert bracket_coefficient(m) * LaurentPoly.v(d_stat(m)) == LaurentPoly.one()


def test_rejects_nonminimal():
    lam = Weight((2, 0, 0))
    with pytest.raises(ValueError):
        matrix_from_coset(lam, lam, AffinePerm.s(2, 1))


def test_roundtrip_and_injectivity():
    n, r = 3, 2
    seen = set()
    total = 0
    for lam in all_weights(n, r):
        for mu in all_weights(n, r):
            for d in minimal_reps(n, r, lam, mu, 4):
                a = matrix_from_coset(lam, mu, d)
                rows, cols = row_col_sums(a)
                assert (rows, cols) == (lam, mu)
                assert is_aperiodic(a)  # n > r
                l2, m2, d2 = coset_from_matrix(a)
                assert (l2, m2, d2) == (lam, mu, d)
                key = (lam.parts, mu.parts, a.entries)
                assert key not in seen
                seen.add(key)
                total += 1
    assert total > 500


def test_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        PeriodicMatrix.from_dict(2, 2, {(1, 1): 1})  # sums to 1, not r
    with pytest.raises(ValueError):
        PeriodicMatrix.from_dict(2, 2, {(3, 1): 2})  # row outside the period
    # any consistent matrix is realizable: the correspondence is onto
    a = PeriodicMatrix.from_dict(2, 2, {(1, 1): 1, (2, 4): 1})
    lam, mu, d = coset_from_matrix(a)
    assert matrix_from_coset(lam, mu, d).entries == a.entries


def test_entries_have_one_order():
    # a matrix stores its entries sorted by (row, column), whatever order
    # they are given in: equal matrices compare equal, and coset_from_matrix
    # reads an unsorted one as its sorted form
    a = PeriodicMatrix(2, 2, ((2, 1, 1), (1, 1, 1)))
    assert a == PeriodicMatrix(2, 2, ((1, 1, 1), (2, 1, 1)))
    assert a.entries == ((1, 1, 1), (2, 1, 1))
    assert coset_from_matrix(a) == (Weight((1, 1)), Weight((2, 0)), AffinePerm.identity(2))
    for lam in all_weights(3, 3):
        for d in minimal_reps(3, 3, lam, omega(3, 3), 2):
            b = matrix_from_coset(lam, omega(3, 3), d)
            shuffled = PeriodicMatrix(3, 3, b.entries[::-1])
            assert shuffled == b and hash(shuffled) == hash(b)
            assert coset_from_matrix(shuffled) == (lam, omega(3, 3), d)


def test_render_and_structured():
    om = omega(3, 2)
    a = matrix_from_coset(om, om, AffinePerm.identity(2))
    s = a.structured()
    assert s["n"] == 3 and s["r"] == 2 and s["entries"] == [[1, 1, 1], [2, 2, 1]]
    assert "row 1" in a.render()
