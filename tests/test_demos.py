"""Every narrative demo runs to completion and prints its pinned output.

`tests/golden/demo_<name>.txt` holds each demo's stdout.  The demos print
ring renders, specializations and verdicts, all exact, so their output is
deterministic and is compared byte for byte.

Regenerate the files only when an output is meant to change:

    PYTHONPATH=src python tests/test_demos.py
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


def _golden_path(demo: Path) -> Path:
    return GOLDEN / f"demo_{demo.stem}.txt"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _golden_path(demo).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            sys.exit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
        _golden_path(demo).write_text(proc.stdout)
