"""One unit of a workload in a fresh interpreter, stepped over its pipes.

    python3 perfbench/worker.py --unit NAME --seed N [--trace] [--setup-only]

A unit is one suite of a verify workload, the corrupted Q15, or the whole
of schur-products (see workloads.py).  A fresh interpreter per unit
means aschur's unbounded lru_caches start empty, as they do for one
`aschur verify` call.

The worker prints one JSON line when set-up (imports and inputs) is
done: the monotonic time it was done, so that the parent can measure
set-up from before it started this interpreter.  After that it answers
each line it reads on stdin with one JSON line: the first request builds
the unit ({"items": n}), the next n check one item each ({"item": ...}),
and the last one gets the unit's summary.  A "probe" line may come between
any two of these; the worker answers it with the time of `speed_probe`
({"probe": seconds}).  It never writes a line that was not asked for,
so the parent can wait for each answer in turn.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--unit", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads  # imports aschur

    inputs = workloads.make_inputs(args.unit, args.seed)
    _reply({"setup_done": time.monotonic()})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    unit = workloads.UnitRun(args.unit, inputs, tracer)
    _request()
    n = unit.build()
    _reply({"items": n})
    for _ in range(n):
        _request()
        _reply({"item": unit.step()})
    _request()
    res = unit.res
    out = {
        "wall_s": res.wall_s,
        "failures": res.failures,
        "build_s": res.build_s,
        "instances": res.instances,
        "words": res.words,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = {
            "totals": tracer.totals(),
            "items": tracer.items,
            "spans": tracer.spans,
            "missing_hooks": tracer.missing,
            "act_cache": _act_cache_info(),
        }
    _reply(out)
    return 0


def _request():
    """Wait for the next step, answering speed probes meanwhile."""
    while True:
        line = sys.stdin.readline()
        if not line:
            sys.exit("worker: stdin closed before the unit was done")
        if line.strip() != "probe":
            return
        _reply({"probe": speed_probe()})


def _reply(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class _Term:
    __slots__ = ("exp", "coeff")

    def __init__(self, exp: int, coeff: int):
        self.exp, self.coeff = exp, coeff

    def times(self, other: "_Term") -> "_Term":
        return _Term(self.exp + other.exp, self.coeff * other.coeff)


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work, about 10 ms.

    It does what aschur's hot loops do: products of integer-keyed
    polynomial dicts, counting under tuple keys, small objects and method
    calls.  It calls no aschur code, so a change to aschur cannot move
    it, while the host's speed moves it much as it moves aschur (the
    README says how closely).
    """
    t = time.perf_counter()
    a = {e: e * e - 3 for e in range(-6, 7)}
    for _ in range(24):
        prod = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                prod[ea + eb] = prod.get(ea + eb, 0) + ca * cb
        a = {e: c % 1009 for e, c in prod.items() if -6 <= e <= 6}
    seen = {}
    for i in range(24000):
        key = (i % 13, i % 11, i % 7)
        seen[key] = seen.get(key, 0) + 1
    terms = [_Term(i % 9, i) for i in range(300)]
    acc = 0
    for x in terms:
        for y in terms[:48]:
            acc += x.times(y).coeff
    return time.perf_counter() - t


def _act_cache_info():
    """[entries, hits, misses] of tensor._act_basis, or None without that cache."""
    from aschur import tensor

    info = getattr(getattr(tensor, "_act_basis", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return [ci.currsize, ci.hits, ci.misses]


if __name__ == "__main__":
    sys.exit(main())
