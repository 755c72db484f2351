"""Microbenchmarks of the phi-product layer (pytest-benchmark).

Not part of the tier-1 suite, whose files are named test_*.py; run it
on its own with

    PYTHONPATH=src python -m pytest tests/bench_phi_products.py -p no:cacheprovider

It times `schur._mul_basis` on 64 seeded basis pairs at (n, r) = (5, 4),
with warm caches, and one build of the q17-19 suite at (5, 4), which
computes every phi product of its instances (after one warm-up build).
"""
from __future__ import annotations

import random

from aschur import present
from aschur.aweyl import AffinePerm, double_coset_min
from aschur.hecke import young_parabolic
from aschur.schur import SchurBasisIndex, _mul_basis
from aschur.weights import all_weights

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


def test_mul_basis_pairs(benchmark):
    pairs = _pairs()

    def run():
        return [_mul_basis(k1, k2) for k1, k2 in pairs]

    products = benchmark(run)
    assert len(products) == PAIRS and any(p.terms for p in products)


def test_q17_19_build(benchmark):
    insts = benchmark.pedantic(
        present.suite, args=("q17-19", N, R), rounds=10, iterations=1, warmup_rounds=1
    )
    assert insts and all(inst.domain == "phi" for inst in insts)
