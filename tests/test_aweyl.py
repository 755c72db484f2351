import random

import pytest

from aschur.aweyl import (
    AffinePerm,
    ParabolicIndex,
    coset_decompose,
    double_coset_min,
    enumerate_double_coset,
    enumerate_parabolic,
    enumerate_up_to_length,
    is_distinguished_right,
    is_double_coset_min,
    semidirect_decompose,
)
from conftest import bfs_word_lengths


def random_perm(rng, r, max_letters=6, z_range=2):
    w = AffinePerm.rho(r, rng.randint(-z_range, z_range))
    for _ in range(rng.randint(0, max_letters)):
        w = w.mul_gen_right(rng.randint(1, r))
    return w


def test_from_images_examples():
    s1 = AffinePerm.from_images(3, (2, 1, 3))
    assert s1 == AffinePerm.s(3, 1)
    assert s1.z == 0 and s1.window == (2, 1, 3)
    rho = AffinePerm.from_images(3, (2, 3, 4))
    assert rho == AffinePerm.rho(3)
    assert rho.z == 1 and rho.window == (1, 2, 3)
    assert AffinePerm.from_images(3, (1, 2, 3)).is_identity()


def test_from_images_rejects_bad_input():
    with pytest.raises(ValueError):
        AffinePerm.from_images(3, (1, 4, 3))  # 1 and 4 collide mod 3
    with pytest.raises(ValueError):
        AffinePerm.from_images(3, (2, 1, 4))  # sum not congruent mod 3


def test_group_arith():
    s1, s2 = AffinePerm.s(3, 1), AffinePerm.s(3, 2)
    rho = AffinePerm.rho(3)
    assert rho * s2 * rho.inverse() == s1
    assert s1 * s2 * s1 == s2 * s1 * s2
    rng = random.Random(7)
    for _ in range(100):
        w = random_perm(rng, 3)
        assert (w * w.inverse()).is_identity()


def test_one_sided_multiplications_agree_with_compose():
    rng = random.Random(11)
    for r in (2, 3, 4):
        for _ in range(50):
            w = random_perm(rng, r)
            i = rng.randint(1, r)
            assert w.mul_gen_right(i) == w * AffinePerm.s(r, i)
            assert w.mul_gen_left(i) == AffinePerm.s(r, i) * w
            k = rng.randint(-2, 2)
            assert w.mul_rho_right(k) == w * AffinePerm.rho(r, k)
            assert w.mul_rho_left(k) == AffinePerm.rho(r, k) * w


def test_length_examples():
    assert AffinePerm.identity(3).length() == 0
    assert (AffinePerm.s(3, 1) * AffinePerm.s(3, 2)).length() == 2
    assert AffinePerm(3, 0, (0, 2, 4)).length() == 1


def test_length_matches_bfs_oracle_small():
    for r in (2, 3):
        oracle = bfs_word_lengths(r, 5)
        for w, ell in oracle.items():
            assert w.length() == ell, w.render()


def test_length_ignores_rho_and_inverse():
    rng = random.Random(3)
    for _ in range(100):
        w = random_perm(rng, 3)
        assert w.length() == w.mul_rho_left(5).length()
        assert w.length() == w.inverse().length()


def test_deletion_property():
    rng = random.Random(5)
    for _ in range(100):
        w = random_perm(rng, 4)
        for i in range(1, 5):
            assert abs(w.mul_gen_left(i).length() - w.length()) == 1


def test_reduced_word():
    assert AffinePerm.identity(4).reduced_word() == ()
    assert AffinePerm.s(4, 2).reduced_word() == (2,)
    w = AffinePerm(3, 0, (0, 2, 4))
    assert w.reduced_word() == (3,)
    rng = random.Random(13)
    for _ in range(60):
        u = random_perm(rng, 3)
        word = u.reduced_word()
        assert len(word) == u.length()
        prod = AffinePerm.identity(3)
        for i in word:
            prod = prod.mul_gen_right(i)
        assert prod == AffinePerm(3, 0, u.window)


def test_coset_decompose():
    r = 3
    pi = ParabolicIndex.make(r, [1])
    s1, s2 = AffinePerm.s(r, 1), AffinePerm.s(r, 2)
    par, dist = coset_decompose(s1 * s2, pi, "left")
    assert (par, dist) == (s1, s2)
    # already parabolic / already distinguished
    assert coset_decompose(s1, pi, "left") == (s1, AffinePerm.identity(r))
    assert coset_decompose(s2, pi, "left") == (AffinePerm.identity(r), s2)
    # right-sided variant: w = d * a
    par, dist = coset_decompose(s2 * s1, pi, "right")
    assert par == s1 and dist == s2 and dist * par == s2 * s1


def test_coset_decompose_exhaustive():
    r = 3
    pi = ParabolicIndex.make(r, [1, 2])
    elems = enumerate_up_to_length(r, 4)
    for w in elems:
        par, dist = coset_decompose(w, pi, "left")
        assert par * dist == w
        assert par.length() + dist.length() == w.length()
        assert is_distinguished_right(dist, pi)
        assert all(i in pi.gens for i in par.reduced_word())


def test_decomposition_unique_on_truncation():
    r = 3
    pi = ParabolicIndex.make(r, [1])
    seen = {}
    for w in enumerate_up_to_length(r, 4):
        par, dist = coset_decompose(w, pi, "left")
        key = (par, dist)
        assert key not in seen
        seen[key] = w
    # and every (parabolic, distinguished) product is hit exactly once
    for a in enumerate_parabolic(pi):
        for d in {d for _, d in seen}:
            assert (a, d) in seen or (a * d).length() > 4


def test_distinguished_predicate_agrees_with_definition():
    r = 3
    pi = ParabolicIndex.make(r, [1, 2])
    members = enumerate_parabolic(pi)
    for d in enumerate_up_to_length(r, 4):
        if d.length() > 4:
            continue
        pred = is_distinguished_right(d, pi)
        defn = all((w * d).length() == w.length() + d.length() for w in members)
        assert pred == defn


def test_double_coset_min():
    r = 3
    pi = ParabolicIndex.make(r, [1])
    s1 = AffinePerm.s(r, 1)
    assert double_coset_min(s1, pi, pi).is_identity()
    rho = AffinePerm.rho(r)
    assert double_coset_min(rho, pi, pi) == rho  # already minimal
    # brute force: the returned element minimizes length over the double coset
    for w in enumerate_up_to_length(r, 4):
        d = double_coset_min(w, pi, pi)
        coset = enumerate_double_coset(pi, d, pi)
        assert w in coset
        assert d.length() == min(u.length() for u in coset)
        assert is_double_coset_min(d, pi, pi)


def _product_coset(pi1, d, pi2):
    """W_pi1 * d * W_pi2 from full products, without the cached enumerators."""
    def group(pi):
        gens = [AffinePerm.s(pi.r, i) for i in pi.gens]
        out = {AffinePerm.identity(pi.r)}
        frontier = list(out)
        while frontier:
            frontier = {u * g for u in frontier for g in gens} - out
            out |= frontier
        return out

    return {a * d * b for a in group(pi1) for b in group(pi2)}


@pytest.mark.parametrize("r", [3, 4])
def test_cached_double_coset_matches_products(r):
    subsets = [(), *((i,) for i in range(1, r + 1)),
               *((i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1))]
    pis = [ParabolicIndex.make(r, gens) for gens in subsets]
    short = list(enumerate_up_to_length(r, 2))
    short += [w.mul_rho_left(z) for w in short for z in (-1, 1)]
    checked = 0
    members: dict[AffinePerm, AffinePerm] = {}
    for pi1 in pis:
        for pi2 in pis:
            for d in short:
                if not is_double_coset_min(d, pi1, pi2):
                    continue
                coset = enumerate_double_coset(pi1, d, pi2)
                assert isinstance(coset, frozenset)
                assert coset == _product_coset(pi1, d, pi2), (pi1, d, pi2)
                assert enumerate_double_coset(pi1, d, pi2) is coset  # served from the cache
                # cosets share their members: one object per element
                assert all(members.setdefault(w, w) is w for w in coset)
                checked += 1
    assert checked > len(pis) ** 2


def test_enumerate_parabolic():
    assert enumerate_parabolic(ParabolicIndex.make(3, ())) == {AffinePerm.identity(3)}
    small = enumerate_parabolic(ParabolicIndex.make(3, [1]))
    assert small == {AffinePerm.identity(3), AffinePerm.s(3, 1)}
    assert len(enumerate_parabolic(ParabolicIndex.make(4, [1, 2]))) == 6
    assert len(enumerate_parabolic(ParabolicIndex.make(4, [1, 3]))) == 4
    # shifted parabolic can include the affine generator s_r
    assert len(enumerate_parabolic(ParabolicIndex.make(3, [3]))) == 2


def test_enumerate_up_to_length_matches_oracle():
    oracle = bfs_word_lengths(3, 4)
    ours = enumerate_up_to_length(3, 4)
    assert ours == oracle
    count = sum(1 for w, ell in ours.items() if ell <= 2 and w.z == 0)
    assert count == sum(1 for w, ell in oracle.items() if ell <= 2)


def test_semidirect_decompose():
    r = 3
    s1 = AffinePerm.s(r, 1)
    s, t = semidirect_decompose(s1)
    assert s == s1 and t.is_identity()
    # rho^r is the translation by r on every residue
    s, t = semidirect_decompose(AffinePerm.rho(r, r))
    assert s.is_identity()
    assert all(t.apply(x) == x + r for x in range(1, r + 1))
    rng = random.Random(17)
    for _ in range(100):
        w = random_perm(rng, r)
        s, t = semidirect_decompose(w)
        assert s.is_finite()
        assert all(t.apply(x) % r == x % r for x in range(1, r + 1))
        assert s * t == w


def test_parse_render_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        w = random_perm(rng, 4)
        assert AffinePerm.parse(w.render()) == w
    assert AffinePerm.parse("[2,1,3]") == AffinePerm.s(3, 1)
    assert AffinePerm.parse("rho^-2 * [1,2]") == AffinePerm.rho(2, -2)
