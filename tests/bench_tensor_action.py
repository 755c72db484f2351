"""Microbenchmarks of the tensor action (pytest-benchmark).

Not part of the tier-1 suite, whose files are named test_*.py; run it
on its own with

    PYTHONPATH=src python -m pytest tests/bench_tensor_action.py -p no:cacheprovider

It times `present.verify_identity` at (n, r) = (4, 2), with warm caches,
on four inputs: Q5[i=1,j=1] of qaffine (E_1 F_1 - F_1 E_1 against the
K quotient, on the whole box), R1-sum of idempotented (the sum of all
projectors, one multi-term word per weight), every instance of
hecke-tau (long multi-term words on the omega weight space), and all
230 instances of classical (many short words, mostly 0 = 0 checks).
classical is also timed on its 9,721 instances at (6, 4), where the
orbit reduction of present.verification_domain (no word has E or F)
has room to show: a faster pass there means a larger (n, r) in reach.
"""
from __future__ import annotations

import pytest

from aschur.present import suite, verify_identity

N, R = 4, 2


def _instance(name: str, row: str, params: dict):
    (inst,) = [i for i in suite(name, N, R) if (i.name, i.params) == (row, params)]
    return inst


@pytest.mark.parametrize("name,row,params", [
    ("qaffine", "Q5", {"i": 1, "j": 1}),
    ("idempotented", "R1-sum", {}),
])
def test_verify_row(benchmark, name, row, params):
    inst = _instance(name, row, params)
    verify_identity(N, R, inst)  # fills the one-step cache
    assert benchmark(verify_identity, N, R, inst).passed


@pytest.mark.parametrize("name,n,r", [
    ("hecke-tau", N, R), ("classical", N, R), ("classical", 6, 4),
], ids=["hecke-tau", "classical", "classical-6-4"])
def test_verify_suite(benchmark, name, n, r):
    insts = suite(name, n, r)
    for inst in insts:
        verify_identity(n, r, inst)

    def run():
        return [verify_identity(n, r, inst) for inst in insts]

    reports = benchmark(run)
    assert reports and all(rep.passed for rep in reports)
