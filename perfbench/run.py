"""The aschur benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 40 --trace 0

Run from a source checkout; aschur is imported from ./src, nothing is
built or installed.  A workload is made of units, each run in a fresh
interpreter (worker.py).  A verify workload has one unit per suite and
size, as one `aschur verify --suite` call checks one suite: each suite
starts with empty caches.  A pass runs every unit once, closed loop, on
one core: only one worker computes at a time, and the items of the units
are interleaved, so that no suite is timed in only one stretch of the
pass.  The seed shuffles the order of the units.

--trace 0 runs passes while another one still fits in --seconds (at
least one; a pass is never cut).  wall_s and peak_rss_mb are medians
over passes.  The item metrics are taken over the items of one pass,
each item timed by its median over the passes: every pass checks the
same items in the same order, so the tail percentile does not depend
on how many passes fitted.  --trace 1 runs one untraced and one traced
pass and reports the per-layer metrics of the traced one;
`trace.overhead_s` is their difference in wall time.  With --trace 0
set-up is also sampled SETUP_SAMPLES times on its own, and `setup_s` is
the median of all samples.

The host's speed drifts by a third within minutes, which no amount of
repetition inside one run can average out.  So the workers also time a
fixed pure-Python probe (worker.speed_probe) between items, about every
PROBE_EVERY_S, and every time metric is scaled by REF_PROBE_S over the
median probe time of the run: times are reported at the host speed at
which the probe takes REF_PROBE_S.  The probe runs no aschur code.  The
unscaled values are printed above the last line.

Lines before the last are for people: the environment, each metric with
its unit, the error rate and the tail percentile used.  The last line is
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every verdict was right.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import sum_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_SAMPLES = 12
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it
PROBE_EVERY_S = 0.2  # a speed probe after the first item this long after the last one
REF_PROBE_S = 0.010  # the reference speed: the probe takes this long

END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SUITES = (
    "qaffine", "extended", "schur-presentation", "finite-schur", "q17-19",
    "hecke-tau", "idempotented", "zeta", "classical",
)

UNITS = {
    "verify-full": (
        "qaffine", "extended", "schur-presentation", "finite-schur",
        "idempotented", "classical", "Q15-corrupted",
    ),
    "verify-omega": ("hecke-tau", "zeta", "hecke-tau@3,2", "zeta@3,2"),
    "schur-products": ("schur-products",),
}

# name -> unit; the order is the order printed.
PER_LAYER = {
    "ring.mul_calls": "count",
    "ring.add_calls": "count",
    "ring.self_s": "s",
    "present.instances": "count",
    "present.vectors": "count",
    "present.nonzero_frac": "ratio",
    "present.verify_self_s": "s",
    "present.build_s": "s",
    **{f"present.suite_s.{s}": "s" for s in SUITES},
    "operators.mul_s": "s",
    "operators.words": "count",
    "tensor.act_calls": "count",
    "tensor.act_self_s": "s",
    "tensor.domain_s": "s",
    "tensor.cache_entries": "count",
    "tensor.cache_hit_frac": "ratio",
    "schur.mul_calls": "count",
    "schur.mul_self_s": "s",
    "schur.expand_s": "s",
    "schur.phi_value_calls": "count",
    "hecke.mul_calls": "count",
    "hecke.mul_self_s": "s",
    "aweyl.coset_enum_s": "s",
    "aweyl.coset_elems": "count",
    "aweyl.perm_ops": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts worker interpreters and keeps the run inside its deadline."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.units = list(UNITS[workload])
        random.Random(seed).shuffle(self.units)
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # Fixed string hashing, so that two passes with one seed do the same work.
        self.env["PYTHONHASHSEED"] = "0"
        self.setup_samples: list[float] = []
        self.probes: list[float] = []

    def _spawn(self, unit: str, *flags: str) -> subprocess.Popen:
        """A worker for `unit`, returned once its set-up is done."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--unit", unit, "--seed", str(self.seed), *flags]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.unit = unit
        try:
            self.setup_samples.append(self._read(proc)["setup_done"] - spawned)
        except BaseException:
            _stop(proc)
            raise
        return proc

    def _read(self, proc: subprocess.Popen) -> dict:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise BenchError(f"unit {proc.unit} did not finish within the deadline")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise BenchError(f"unit {proc.unit} exited with {proc.returncode}:\n"
                             f"{proc.stderr.read().strip()}")
        return json.loads(line)

    def _ask(self, proc: subprocess.Popen, request: str = "") -> dict:
        try:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has ended; _read says how
        return self._read(proc)

    def setup_probes(self, count: int):
        for k in range(count):
            _stop(self._spawn(self.units[k % len(self.units)], "--setup-only"))

    def pass_(self, traced: bool = False) -> dict:
        """All units once, their items interleaved; merged as one pass.

        The workers are started one after another, so that no two set-ups
        overlap.  Each step goes to the unit that has done the smallest
        share of its items, so every unit is timed all through the pass.
        Only one worker computes at a time.  Untraced, the worker that
        has just checked an item times the speed probe when PROBE_EVERY_S
        has passed since the last probe.
        """
        t0 = time.monotonic()
        procs = []
        try:
            for u in self.units:
                procs.append(self._spawn(u, *(["--trace"] if traced else [])))
            counts = [self._ask(p)["items"] for p in procs]
            done = [0] * len(procs)
            items = []
            probed = float("-inf")
            for _ in range(sum(counts)):
                k = min((k for k in range(len(procs)) if done[k] < counts[k]),
                        key=lambda k: done[k] / counts[k])
                items.append(self._ask(procs[k])["item"])
                done[k] += 1
                if not traced and time.monotonic() - probed >= PROBE_EVERY_S:
                    self.probes.append(self._ask(procs[k], "probe")["probe"])
                    probed = time.monotonic()
            outs = [self._ask(p) for p in procs]
            for p in procs:
                if p.wait() != 0:
                    raise BenchError(f"unit {p.unit} exited with {p.returncode}:\n"
                                     f"{p.stderr.read().strip()}")
        finally:
            for p in procs:
                _stop(p)
        build_s: dict[str, float] = {}  # a suite may run at two sizes
        for o in outs:
            for suite, dt in o["build_s"].items():
                build_s[suite] = build_s.get(suite, 0.0) + dt
        merged = {
            "wall_s": sum(o["wall_s"] for o in outs),
            "elapsed_s": time.monotonic() - t0,
            "items": items,
            "failures": [f for o in outs for f in o["failures"]],
            "build_s": build_s,
            "instances": sum(o["instances"] for o in outs),
            "words": sum(o["words"] for o in outs),
            "peak_rss_kb": max(o["peak_rss_kb"] for o in outs),
        }
        if traced:
            merged["trace"] = _merge_traces(self.units, [o["trace"] for o in outs])
        return merged

    def passes(self, seconds: float) -> list[dict]:
        """Closed loop: another pass only while one more still fits."""
        t0 = time.monotonic()
        done = [self.pass_()]
        while True:
            typical = statistics.median(p["elapsed_s"] for p in done)
            if time.monotonic() - t0 + typical > seconds:
                return done
            done.append(self.pass_())


def _stop(proc: subprocess.Popen):
    """Kill the worker if it still runs, wait for it and close its pipes."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for f in (proc.stdin, proc.stdout, proc.stderr):
        try:
            f.close()
        except BrokenPipeError:  # stdin may still hold a request the worker never read
            pass


def _merge_traces(units: list[str], traces: list[dict]) -> dict:
    """Sum the layer totals of the units; item ids become '<unit>:<id>'."""
    caches = [tr["act_cache"] for tr in traces]
    return {
        "totals": sum_layers(tr["totals"] for tr in traces),
        "items": {f"{u}:{i}": v for u, tr in zip(units, traces) for i, v in tr["items"].items()},
        "spans": [[f"{u}:{sp[0]}", *sp[1:]] for u, tr in zip(units, traces) for sp in tr["spans"]],
        "missing_hooks": sorted({h for tr in traces for h in tr["missing_hooks"]}),
        "act_cache": None if None in caches else [sum(col) for col in zip(*caches)],
    }


# -- metrics ---------------------------------------------------------------------------


def tail(seconds: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile with >= TAIL_BEYOND items above it.

    The value is the nearest-rank p-th percentile.  Below TAIL_BEYOND + 1
    items no percentile qualifies, and the maximum is given as p100.
    """
    xs = sorted(seconds)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    p = (100 * (n - TAIL_BEYOND)) // n
    return p, xs[max(math.ceil(p * n / 100) - 1, 0)]


def end_to_end(passes: list[dict], setup: list[float],
               probes: list[float]) -> tuple[dict, list[str]]:
    labels = [[it[1] for it in p["items"]] for p in passes]
    if any(ls != labels[0] for ls in labels):
        raise BenchError("passes checked different items")
    secs = [statistics.median(col) for col in zip(*([it[2] for it in p["items"]] for p in passes))]
    pct, tv = tail(secs)
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": statistics.median(secs) * 1e3,
        "item_tail_ms": tv * 1e3,
        "setup_s": statistics.median(setup),
    }
    probe = statistics.median(probes)
    metrics = {k: v * REF_PROBE_S / probe for k, v in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_kb"] for p in passes) / 1024
    metrics = {k: metrics[k] for k in END_TO_END}
    notes = [
        f"times are scaled by {REF_PROBE_S} s / {probe:.6f} s, the median of "
        f"{len(probes)} speed probes; unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"wall_s and peak_rss_mb are medians over {len(passes)} pass(es)",
        f"item_tail_ms is p{pct} of {len(secs)} items (>= {TAIL_BEYOND} above it), "
        f"each item its median over the passes",
        f"setup_s is the median of {len(setup)} set-ups",
    ]
    return metrics, notes


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    tr = traced["trace"]
    tot = tr["totals"]

    def g(layer: str, k: int):
        return tot.get(layer, [0, 0.0, 0.0, 0])[k]

    vectors = g("tensor.vec_sub", 0)
    m = {
        "ring.mul_calls": g("ring.mul", 0),
        "ring.add_calls": g("ring.add", 0),
        "ring.self_s": g("ring.mul", 1) + g("ring.add", 1),
        "present.instances": traced["instances"],
        "present.vectors": vectors,
        "present.nonzero_frac": g("tensor.vec_sub", 3) / vectors if vectors else 0.0,
        "present.verify_self_s": g("present.verify", 1),
        "present.build_s": g("present.build", 2),
        "operators.mul_s": g("operators.mul", 2),
        "operators.words": traced["words"],
        "tensor.act_calls": g("tensor.act_symbol", 0),
        "tensor.act_self_s": g("tensor.act", 1) + g("tensor.act_symbol", 1) + g("tensor.vec_sub", 1),
        "tensor.domain_s": g("tensor.domain", 2),
        "schur.mul_calls": g("schur.mul", 0),
        "schur.mul_self_s": g("schur.mul", 1),
        "schur.expand_s": g("schur.expand", 2),
        "schur.phi_value_calls": g("schur.phi_value", 0),
        "hecke.mul_calls": g("hecke.mul", 0),
        "hecke.mul_self_s": g("hecke.mul", 1),
        "aweyl.coset_enum_s": g("aweyl.coset_enum", 2),
        "aweyl.coset_elems": g("aweyl.coset_enum", 3),
        "aweyl.perm_ops": g("aweyl.perm_op", 0),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    # Suite times come from the untraced pass: they are item times, which
    # need no wrapper and so carry no tracing overhead.
    for s in SUITES:
        m[f"present.suite_s.{s}"] = untraced["build_s"].get(s, 0.0) + sum(
            it[2] for it in untraced["items"] if it[0] == s)
    notes = []
    cache = tr["act_cache"]
    if cache is None:
        m["tensor.cache_entries"], m["tensor.cache_hit_frac"] = 0, 0.0
        notes.append("tensor.cache_*: absent (tensor._act_basis has no cache_info)")
    else:
        entries, hits, misses = cache
        m["tensor.cache_entries"] = entries
        m["tensor.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    if tr["missing_hooks"]:
        notes.append("untraced (entry point missing): " + ", ".join(tr["missing_hooks"]))
    notes.append(f"traced wall_s {traced['wall_s']:.4f} s, untraced {untraced['wall_s']:.4f} s")
    return {k: m[k] for k in PER_LAYER}, notes


def environment() -> str:
    return (f"python={sys.version.split()[0]} nproc={os.cpu_count()} "
            f"commit={_commit()}")


def _commit() -> str:
    """HEAD of the checkout, if the checkout itself is a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


# -- main ------------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "aschur" / "__init__.py").is_file():
        print(f"aschur sources not found under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            untraced = runner.pass_()
            traced = runner.pass_(traced=True)
            passes = [untraced, traced]
        else:
            # Half the set-up samples before the passes and half after, so
            # that one slow stretch of the machine does not set the median.
            runner.setup_probes(SETUP_SAMPLES // 2)
            passes = runner.passes(args.seconds)
            runner.setup_probes(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics, notes = end_to_end(passes, runner.setup_samples, runner.probes)
            metric_units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(1 for p in passes for it in p["items"] if not it[3])
    if args.trace:
        metrics, notes = layer_metrics(traced, untraced)
        metric_units = PER_LAYER
        _write_trace(args, traced, metrics)

    print(f"# {args.workload} seed={args.seed} {environment()}")
    print(f"# {len(passes)} pass(es), {attempted} items, "
          f"{passes[0]['instances']} relation instances per pass")
    for k, v in metrics.items():
        print(f"{k} {v} {metric_units[k]}")
    print(f"error_rate {failed / attempted if attempted else 1.0} ratio "
          f"({failed} of {attempted} items wrong or raised)")
    for note in notes:
        print(f"# {note}")
    for p in passes:
        for f in p["failures"]:
            print(f"# wrong: {f}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 and attempted > 0 else 1


def _write_trace(args, traced: dict, metrics: dict):
    """Keep the traced pass's spans, per item and layer, next to the benchmark."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "metrics": metrics,
        "layers": traced["trace"]["totals"],
        "items": traced["trace"]["items"],
        "spans": traced["trace"]["spans"],
    }))


if __name__ == "__main__":
    sys.exit(main())
