import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aschur.aweyl import (
    AffinePerm,
    ParabolicIndex,
    ascends_right,
    coset_decompose,
    distinguished_members,
    distinguished_tree,
    double_coset_min,
    enumerate_double_coset,
    enumerate_parabolic,
    enumerate_up_to_length,
    descends_left,
    is_distinguished_right,
    is_double_coset_min,
    left_slots,
    right_step,
    semidirect_decompose,
)
from aschur.hecke import young_parabolic
from aschur.weights import all_weights
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


@st.composite
def valid_perms(draw):
    """A random valid rho^z w: a permutation of 1..r, shifted by multiples
    of r that sum to zero."""
    r = draw(st.integers(2, 6))
    perm = draw(st.permutations(range(1, r + 1)))
    shifts = draw(st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1))
    shifts.append(-sum(shifts))
    window = tuple(x + r * k for x, k in zip(perm, shifts))
    return AffinePerm(r, draw(st.integers(-3, 3)), window)


@settings(max_examples=300, deadline=None)
@given(valid_perms(), st.integers(-7, 7))
def test_unchecked_one_sided_products_are_valid(u, k):
    # the one-sided products skip the window checks; each result must pass
    # them and agree with the general product
    r = u.r

    def checked(w):
        assert type(w.window) is tuple
        return AffinePerm(w.r, w.z, w.window)

    for i in range(1, r + 1):
        s = AffinePerm.s(r, i)
        assert checked(u.mul_gen_right(i)) == u.mul_gen_right(i) == u * s
        assert checked(u.mul_gen_left(i)) == u.mul_gen_left(i) == s * u
    rho = AffinePerm.rho(r, k)
    assert checked(u.mul_rho_right(k)) == u.mul_rho_right(k) == u * rho
    assert checked(u.mul_rho_left(k)) == u.mul_rho_left(k) == rho * u


def test_fused_step_and_descents_match_length_exhaustively():
    # right_step's window and direction, and the left descent test on the
    # generator's slot, against the general product and the length formula
    # (itself checked against BFS word lengths), for every l(w) <= 5 at
    # r = 2..6
    cases = 0
    for r in range(2, 7):
        gens = [AffinePerm.s(r, i) for i in range(1, r + 1)]
        for w in enumerate_up_to_length(r, 5):
            for z in range(-2, 3):
                u = w.mul_rho_left(z)
                ell = u.length()
                for i in range(1, r + 1):
                    us = u * gens[i - 1]
                    window, up = right_step(u.window, i)
                    assert window == us.window == u.mul_gen_right(i).window, (u, i)
                    assert up == (us.length() > ell), (u, i)
                    assert (not up) == (us.length() < ell), (u, i)
                    left = left_slots(frozenset({i}), u.z, r)
                    assert descends_left(u.window, left) == (
                        u.mul_gen_left(i).length() < ell), (u, i)
                    cases += 1
    assert cases > 20_000


def test_ascends_right_matches_right_step():
    # the direction bit alone, on the inputs of the exhaustive test above
    cases = 0
    for r in range(2, 7):
        for w in enumerate_up_to_length(r, 5):
            for z in range(-2, 3):
                window = w.mul_rho_left(z).window
                for i in range(1, r + 1):
                    assert ascends_right(window, i) == right_step(window, i)[1], (window, i)
                    cases += 1
    assert cases > 20_000
    with pytest.raises(ValueError, match="no generator"):
        ascends_right((1,), 1)


def test_public_constructors_reject_invalid_windows():
    for bad in ((1, 2), (1, 4, 3), (2, 1, 4)):
        with pytest.raises(ValueError):
            AffinePerm(3, 0, bad)
    with pytest.raises(ValueError):
        AffinePerm.parse("[1,4,3]")
    with pytest.raises(ValueError):
        AffinePerm.s(3, 4)


def test_generator_swaps_i_and_i_plus_1():
    # s_i by its definition: it swaps t and t + 1 for every t = i mod r
    # and fixes every other integer
    for r in range(2, 6):
        for i in range(1, r + 1):
            s = AffinePerm.s(r, i)
            for t in range(-r, 2 * r + 1):
                want = t + 1 if (t - i) % r == 0 else t - 1 if (t - i - 1) % r == 0 else t
                assert s.apply(t) == want, (r, i, t)


def test_no_generator_at_r_1():
    # W is trivial at r = 1: the extended group is generated by rho alone
    with pytest.raises(ValueError, match="no generator s_i"):
        AffinePerm.s(1, 1)
    with pytest.raises(ValueError, match="no generator s_i"):
        AffinePerm.rho(1).mul_gen_right(1)
    assert AffinePerm.rho(1, 2).apply(1) == 3


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
    # both sides at rho^-2..2 and every parabolic of one or two generators:
    # w = a*d (left) or d*a (right) with a in W_pi and lengths adding, and d
    # the shortest of the products a*w (or w*a) over a in W_pi
    cases = 0
    for r, max_length in ((2, 4), (3, 4), (4, 3)):
        pis = [ParabolicIndex.make(r, gens)
               for k in (1, 2) if k < r for gens in combinations(range(1, r + 1), k)]
        for w0 in enumerate_up_to_length(r, max_length):
            for z in range(-2, 3):
                w = w0.mul_rho_left(z)
                for pi in pis:
                    group = enumerate_parabolic(pi)
                    for side in ("left", "right"):
                        par, dist = coset_decompose(w, pi, side)
                        assert (par * dist if side == "left" else dist * par) == w, (w, pi, side)
                        assert par.length() + dist.length() == w.length(), (w, pi, side)
                        assert par in group, (w, pi, side)
                        coset = [a * w if side == "left" else w * a for a in group]
                        assert dist.length() == min(u.length() for u in coset), (w, pi, side)
                        if side == "left":
                            assert is_distinguished_right(dist, pi)
                        cases += 1
    assert cases > 5_000


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
    # the cached-coset cases (pi1 != pi2, nonzero rho powers): every member
    # of the product coset goes to its shortest member
    for r in (3, 4):
        for pi1, d, pi2 in _coset_cases(r):
            coset = _product_coset(pi1, d, pi2)
            shortest = min(coset, key=AffinePerm.length)
            assert d == shortest
            for w in coset:
                assert double_coset_min(w, pi1, pi2) == shortest, (pi1, w, pi2)


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


def _coset_cases(r):
    """(pi1, d, pi2) with d minimal.  At r <= 4: every pair of parabolics of at most two generators and every
    d of length <= 2 times rho^-1, 1 or rho.  At r = 5: a seeded sample of
    parabolics of up to three generators (the affine s_5 included) and d
    with rho powers up to 2."""
    if r <= 4:
        subsets = [(), *((i,) for i in range(1, r + 1)),
                   *((i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1))]
        pis = [ParabolicIndex.make(r, gens) for gens in subsets]
        short = list(enumerate_up_to_length(r, 2))
        short += [w.mul_rho_left(z) for w in short for z in (-1, 1)]
        cases = [(pi1, d, pi2) for pi1 in pis for pi2 in pis for d in short
                 if is_double_coset_min(d, pi1, pi2)]
        assert len(cases) > len(pis) ** 2
        return cases
    rng = random.Random(29)
    cases = []
    while len(cases) < 60:
        pi1, pi2 = (ParabolicIndex.make(r, rng.sample(range(1, r + 1), rng.randint(0, 3)))
                    for _ in range(2))
        d = double_coset_min(random_perm(rng, r, max_letters=8), pi1, pi2)
        cases.append((pi1, d, pi2))
    assert sum(d.z != 0 for _, d, _ in cases) > 20
    return cases


@pytest.mark.parametrize("r", [3, 4, 5])
def test_cached_double_coset_matches_products(r):
    members: dict[AffinePerm, AffinePerm] = {}
    for pi1, d, pi2 in _coset_cases(r):
        coset = enumerate_double_coset(pi1, d, pi2)
        assert isinstance(coset, frozenset)
        assert coset == _product_coset(pi1, d, pi2), (pi1, d, pi2)
        assert enumerate_double_coset(pi1, d, pi2) is coset  # served from the cache
        # cosets share their members: one object per element
        assert all(members.setdefault(w, w) is w for w in coset)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_distinguished_members_match_definition(r):
    # the tree from d against the definition: the members of the a*d*b
    # coset that are minimal in their right coset W_pi1 * b
    for pi1, d, pi2 in _coset_cases(r):
        coset = _product_coset(pi1, d, pi2)
        members = distinguished_members(pi1, d, pi2)
        expected = {b for b in coset if is_distinguished_right(b, pi1)}
        assert len(members) == len(set(members)) and set(members) == expected, (pi1, d, pi2)
        assert members[0] == d
        assert [b.length() for b in members] == sorted(b.length() for b in members)
        # any member names the same double coset
        top = max(coset, key=lambda w: (w.length(), w.window))
        assert distinguished_members(pi1, top, pi2) == members
        # the orbits W_pi1 * b are disjoint: the enumeration builds
        # |W_pi1| members per orbit, and none of them twice
        assert len(members) * len(enumerate_parabolic(pi1)) == len(
            enumerate_double_coset(pi1, d, pi2)
        )


def test_distinguished_tree_links_each_member_to_its_parent():
    # every (lam, mu, d) at (n, r) = (3, 3) with l(d) <= 3 and rho powers
    # -1..2: the tree holds the members, its root is the minimal member,
    # and every other member is its parent times s_letter, one longer, with
    # lengths and parents never going down along the members (the fold
    # drops a parent's state on that order)
    r = 3
    weights = all_weights(3, r)
    trees = 0
    for w in enumerate_up_to_length(r, 3):
        for z in range(-1, 3):
            d = w.mul_rho_left(z)
            for lam in weights:
                for mu in weights:
                    pi1, pi2 = young_parabolic(lam), young_parabolic(mu)
                    dmin = double_coset_min(d, pi1, pi2)
                    windows, parents, letters = distinguished_tree(
                        pi1.gens, dmin.z, dmin.window, pi2.gens)
                    members = distinguished_members(pi1, d, pi2)
                    assert tuple(b.window for b in members) == windows
                    assert all(b.z == d.z for b in members)
                    assert len(parents) == len(letters) == len(members)
                    assert [m for m, p in enumerate(parents) if p == -1] == [0]
                    assert members[0] == dmin
                    assert is_double_coset_min(members[0], pi1, pi2)
                    for m in range(1, len(members)):
                        b, parent = members[m], members[parents[m]]
                        assert letters[m] in pi2.gens
                        assert b == parent * AffinePerm.s(r, letters[m]), (d, lam, mu, m)
                        assert b.length() == parent.length() + 1
                    lengths = [b.length() for b in members]
                    assert lengths == sorted(lengths) and list(parents) == sorted(parents)
                    trees += 1
    assert trees == 19 * 4 * 100


def test_distinguished_tree_key_holds_the_rho_power():
    # at r = 3 with pi1 = {1} and pi2 = {1, 2}, the identity window is the
    # minimal member at rho powers 0 and 1; the left slot that s_1 tests
    # moves with the rho power, so the two trees, looked up by the same
    # window, have different members, each as the definition gives them
    r = 3
    pi1, pi2 = ParabolicIndex.make(r, [1]), ParabolicIndex.make(r, [1, 2])
    window = (1, 2, 3)
    trees = []
    for z in (0, 1):
        d = AffinePerm.rho(r, z)
        assert is_double_coset_min(d, pi1, pi2)
        windows = distinguished_tree(pi1.gens, z, window, pi2.gens)[0]
        expected = {b for b in _product_coset(pi1, d, pi2) if is_distinguished_right(b, pi1)}
        assert {AffinePerm(r, z, w) for w in windows} == expected, z
        assert len(windows) == len(expected) == 3
        trees.append(windows)
    assert set(trees[0]) != set(trees[1])


def test_distinguished_tree_is_cached_once_per_double_coset():
    # a non-minimal d is first taken to the minimal member: the same tree,
    # and no second cache entry; the cache itself takes minimal windows only
    r = 4
    pi1, pi2 = ParabolicIndex.make(r, [1, 2]), ParabolicIndex.make(r, [2, 4])
    d = double_coset_min(AffinePerm.s(r, 3).mul_rho_left(1), pi1, pi2)
    members = distinguished_members(pi1, d, pi2)
    size = distinguished_tree.cache_info().currsize
    top = max(_product_coset(pi1, d, pi2), key=lambda w: (w.length(), w.window))
    assert top != d and not is_double_coset_min(top, pi1, pi2)
    assert distinguished_members(pi1, top, pi2) == members
    assert distinguished_tree.cache_info().currsize == size
    assert distinguished_tree(pi1.gens, d.z, d.window, pi2.gens)[0] == tuple(
        b.window for b in members)
    with pytest.raises(ValueError, match="not minimal"):
        distinguished_tree(pi1.gens, top.z, top.window, pi2.gens)
    assert distinguished_tree.cache_info().currsize == size


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
        assert all(t.apply(x) % r == x % r for x in range(1, r + 1))
        assert s * t == w


def test_parse_render_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        w = random_perm(rng, 4)
        assert AffinePerm.parse(w.render()) == w
    assert AffinePerm.parse("[2,1,3]") == AffinePerm.s(3, 1)
    assert AffinePerm.parse("rho^-2 * [1,2]") == AffinePerm.rho(2, -2)
