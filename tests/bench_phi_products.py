"""Microbenchmarks of the phi-product layer (pytest-benchmark).

Not part of the tier-1 suite, whose files are named test_*.py; run it
on its own with

    PYTHONPATH=src python -m pytest tests/bench_phi_products.py -p no:cacheprovider

It times `schur._mul_basis` on 64 seeded basis pairs at (n, r) = (5, 4)
twice: with warm caches, and cold, with every cache of `aweyl` (the
window steps, the minimality test, the trees, the reduced words)
emptied before each round, as in the fresh interpreter of one benchmark
unit or one `aschur verify` call.  The warm case is the regime of one
long-running process.  It also times `SchurElement.__mul__` on two sums
over all weights at (5, 4), whose terms it pairs by middle weight, and
one build of the q17-19 suite at (5, 4), which computes every phi
product of its instances (after one warm-up build, and after a garbage
collection in each round's setup).
"""
from __future__ import annotations

import gc
import random

from aschur import present
from aschur.aweyl import AffinePerm, double_coset_min
from aschur.hecke import young_parabolic
from aschur.ring import LaurentPoly
from aschur.schur import SchurBasisIndex, SchurElement, _mul_basis, identity_element
from aschur.weights import all_weights
from conftest import clear_aweyl_caches

N, R = 5, 4
PAIRS = 64


def _pairs(seed: int = 15) -> list[tuple[SchurBasisIndex, SchurBasisIndex]]:
    """Composable (k1, k2) with weights drawn from all weights at (5, 4)
    and each d a two-letter word, reduced to its double coset's minimum."""
    rng = random.Random(seed)
    weights = all_weights(N, R)

    def index(lam, mu):
        w = AffinePerm.identity(R)
        for _ in range(2):
            w = w.mul_gen_right(rng.randint(1, R))
        w = w.mul_rho_left(rng.randint(-1, 1))
        return SchurBasisIndex(lam, mu, double_coset_min(w, young_parabolic(lam), young_parabolic(mu)))

    out = []
    for _ in range(PAIRS):
        lam, mu, nu = (rng.choice(weights) for _ in range(3))
        out.append((index(lam, mu), index(mu, nu)))
    return out


def _products(pairs):
    return [_mul_basis(k1, k2) for k1, k2 in pairs]


def test_mul_basis_pairs(benchmark):
    products = benchmark(_products, _pairs())
    assert len(products) == PAIRS and any(p.terms for p in products)


def test_mul_basis_pairs_cold(benchmark):
    products = benchmark.pedantic(
        _products, args=(_pairs(),), setup=clear_aweyl_caches, rounds=20, iterations=1
    )
    assert len(products) == PAIRS and any(p.terms for p in products)


def test_weight_summed_product(benchmark):
    # the unit times the sum over all lam of phi^1_{lam,lam_+}: 126 terms
    # each, of which every left term meets one right term
    e = AffinePerm.identity(R)
    x = SchurElement(N, R, {
        SchurBasisIndex(lam, lam.rotated(), e): LaurentPoly.one() for lam in all_weights(N, R)
    })
    unit = identity_element(N, R)
    assert benchmark(unit.__mul__, x) == x


def _collect_garbage():
    # before each round, so that no round pays for the cyclic garbage of the
    # one before it (`gc.collect` itself returns a count, which pedantic
    # would read as the round's arguments)
    gc.collect()


def test_q17_19_build(benchmark):
    insts = benchmark.pedantic(
        present.suite, args=("q17-19", N, R), setup=_collect_garbage, rounds=10, iterations=1,
        warmup_rounds=1,
    )
    assert insts and all(inst.domain == "phi" for inst in insts)
