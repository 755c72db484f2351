"""Golden outputs: exact text the program must keep producing.

`tests/golden/` holds the `aschur verify --format structured` records of
every suite at (3, 2) and (4, 2), and the `SchurElement.structured()` of
the generator products phi_{(r),(r-1,1)} phi_{(r-1,1),(r)} at r = 4, 5.
The tests compare the current outputs with them byte for byte, so a
change to the kernel's internals (its coefficient type, its accumulation,
its caches) is seen to keep every name, parameter, verdict and
coefficient.

Regenerate the files only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from aschur.aweyl import AffinePerm
from aschur.cli import main
from aschur.present import SUITE_NAMES
from aschur.schur import SchurBasisIndex, SchurElement
from aschur.weights import Weight

GOLDEN = Path(__file__).parent / "golden"
PRODUCTS_PATH = GOLDEN / "generator_products.jsonl"
SIZES = ((3, 2), (4, 2))
GENERATOR_N, GENERATOR_RS = 3, (4, 5)


def verify_records(suite: str, n: int, r: int) -> str:
    """stdout of `aschur verify --format structured`; the run must pass."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--suite", suite, "--n", str(n), "--r", str(r),
                     "--format", "structured"])
    assert code == 0, f"{suite} at ({n},{r}) exited {code}"
    return buf.getvalue()


def generator_products() -> str:
    """One JSON line per r: phi_{(r),(r-1,1)} phi_{(r-1,1),(r)}, structured."""
    lines = []
    for r in GENERATOR_RS:
        top = Weight((r,) + (0,) * (GENERATOR_N - 1))
        hook = Weight((r - 1, 1) + (0,) * (GENERATOR_N - 2))
        e = AffinePerm.identity(r)
        left = SchurElement.basis(SchurBasisIndex(top, hook, e))
        right = SchurElement.basis(SchurBasisIndex(hook, top, e))
        lines.append(json.dumps({"r": r, "terms": (left * right).structured()},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


def _verify_path(suite: str, n: int, r: int) -> Path:
    return GOLDEN / f"verify_{suite}_{n}_{r}.jsonl"


@pytest.mark.parametrize("n,r", SIZES, ids=[f"{n}-{r}" for n, r in SIZES])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_records_match_golden(suite, n, r):
    assert verify_records(suite, n, r) == _verify_path(suite, n, r).read_text()


def test_generator_products_match_golden():
    assert generator_products() == PRODUCTS_PATH.read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for n, r in SIZES:
        for suite in SUITE_NAMES:
            _verify_path(suite, n, r).write_text(verify_records(suite, n, r))
    PRODUCTS_PATH.write_text(generator_products())
