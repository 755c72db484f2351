"""Golden outputs: exact text the program must keep producing.

`tests/golden/` holds:

- the `aschur verify --format structured` records of every suite at
  (3, 2) and (4, 2), in full;
- a sha256 of those records for every suite at (4, 3), (5, 3) and
  (6, 4) (`verify_digests.json`; the full files would be about 12 MB);
- a sha256 of every suite's relation instances at (3, 2), (4, 2), (4, 3)
  and (5, 3) (`instance_digests.json`): the sorted records of name,
  description, params, domain and the rendered lhs and rhs, so a change
  to how the suites are built is seen to build the same operators;
- the `SchurElement.structured()` of the generator products
  phi_{(r),(r-1,1)} phi_{(r-1,1),(r)} at r = 4, 5.

(The demos' stdout, `demo_*.txt`, is pinned by `tests/test_demos.py`.)

The tests compare the current outputs with them byte for byte, so a
change to the kernel's internals (its coefficient type, its accumulation,
its caches, its relation table) is seen to keep every name, parameter,
verdict and coefficient.

Regenerate the files only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from aschur.aweyl import AffinePerm
from aschur.cli import main
from aschur.present import SUITE_NAMES, suite
from aschur.schur import SchurBasisIndex, SchurElement
from aschur.weights import Weight

GOLDEN = Path(__file__).parent / "golden"
PRODUCTS_PATH = GOLDEN / "generator_products.jsonl"
VERIFY_DIGESTS_PATH = GOLDEN / "verify_digests.json"
INSTANCE_DIGESTS_PATH = GOLDEN / "instance_digests.json"
SIZES = ((3, 2), (4, 2))
DIGEST_SIZES = ((4, 3), (5, 3), (6, 4))
INSTANCE_SIZES = SIZES + ((4, 3), (5, 3))
GENERATOR_N, GENERATOR_RS = 3, (4, 5)


def verify_records(suite: str, n: int, r: int) -> str:
    """stdout of `aschur verify --format structured`; the run must pass."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--suite", suite, "--n", str(n), "--r", str(r),
                     "--format", "structured"])
    assert code == 0, f"{suite} at ({n},{r}) exited {code}"
    return buf.getvalue()


def instance_records(name: str, n: int, r: int) -> str:
    """The suite's instances as sorted JSON lines; the domain of a
    phi-basis instance is "phi"."""
    lines = sorted(
        json.dumps({
            "name": inst.name,
            "description": inst.description,
            "params": {k: str(v) for k, v in inst.params.items()},
            "domain": inst.domain,
            "lhs": inst.lhs.render(),
            "rhs": inst.rhs.render(),
        }, sort_keys=True)
        for inst in suite(name, n, r)
    )
    return "\n".join(lines) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key(suite: str, n: int, r: int) -> str:
    return f"{suite}@{n},{r}"


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


@pytest.mark.parametrize("n,r", DIGEST_SIZES, ids=[f"{n}-{r}" for n, r in DIGEST_SIZES])
def test_verify_records_match_golden_digest(n, r):
    golden = json.loads(VERIFY_DIGESTS_PATH.read_text())
    for name in SUITE_NAMES:
        assert _sha256(verify_records(name, n, r)) == golden[_key(name, n, r)], name


def test_instances_match_golden_digest():
    golden = json.loads(INSTANCE_DIGESTS_PATH.read_text())
    for n, r in INSTANCE_SIZES:
        for name in SUITE_NAMES:
            key = _key(name, n, r)
            assert _sha256(instance_records(name, n, r)) == golden[key], key


def test_generator_products_match_golden():
    assert generator_products() == PRODUCTS_PATH.read_text()


def _digests(records, sizes) -> str:
    out = {_key(s, n, r): _sha256(records(s, n, r)) for n, r in sizes for s in SUITE_NAMES}
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for n, r in SIZES:
        for name in SUITE_NAMES:
            _verify_path(name, n, r).write_text(verify_records(name, n, r))
    VERIFY_DIGESTS_PATH.write_text(_digests(verify_records, DIGEST_SIZES))
    INSTANCE_DIGESTS_PATH.write_text(_digests(instance_records, INSTANCE_SIZES))
    PRODUCTS_PATH.write_text(generator_products())
