"""Shared oracles for the test suite.

The breadth-first word oracle below is deliberately independent of the
length formula and of the optimized one-sided multiplications: it builds
group elements by full image composition only, so it can referee them.
"""
from __future__ import annotations

from aschur import aweyl
from aschur.aweyl import AffinePerm


def bfs_word_lengths(r: int, max_length: int) -> dict[AffinePerm, int]:
    """Minimal word length in s_1..s_r for every element reachable in
    at most max_length letters, via plain permutation composition."""
    gens = [AffinePerm.s(r, i) for i in range(1, r + 1)]
    out = {AffinePerm.identity(r): 0}
    frontier = list(out)
    for depth in range(1, max_length + 1):
        nxt = []
        for u in frontier:
            for g in gens:
                v = u * g
                if v not in out:
                    out[v] = depth
                    nxt.append(v)
        frontier = nxt
    return out


def clear_aweyl_caches() -> None:
    """Empty every cache of `aweyl`, as a fresh interpreter has them."""
    for f in vars(aweyl).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
