"""Check that the per-layer work counts repeat exactly across two traced passes.

    python3 perfbench/check_counts.py --workload verify-full --seed 1

Runs two traced passes with the same seed, each in a fresh interpreter,
and compares every per-layer metric whose unit is a count.  Exits 1 on
any difference, so that a later change can cite a count as a count.
"""
from __future__ import annotations

import argparse
import sys

from run import PER_LAYER, UNITS, BenchError, Runner, layer_metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(UNITS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed)
    try:
        first, second = (runner.pass_(traced=True) for _ in range(2))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    a, _ = layer_metrics(first, first)
    b, _ = layer_metrics(second, second)
    counts = [k for k, unit in PER_LAYER.items() if unit == "count"]
    differ = [k for k in counts if a[k] != b[k]]
    for k in counts:
        print(f"{k} {a[k]} {b[k]}{'  DIFFERS' if k in differ else ''}")
    print(f"{args.workload} seed={args.seed}: "
          + (f"{len(differ)} count(s) differ" if differ else f"all {len(counts)} counts repeat"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
