"""The benchmark's use of aschur still works.

perfbench/ drives aschur only through names (present.suite,
present.q15_instance, present.verify_identity, the instances' lhs, rhs,
params and name, and for schur-products the schur, aweyl and hecke names
that workloads.py imports), and it knows the suite names.  This runs every
unit of the three workloads once, in process, as a worker would, so a
change that breaks one of those names, or a wrong phi product, fails here
and not only in a benchmark run.  perfbench/ is imported, never changed.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from aschur import present

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("run", "workloads", "tracer"):
            sys.modules.pop(name, None)


def test_bench_knows_every_suite(bench):
    run, _ = bench
    assert run.SUITES == present.SUITE_NAMES


@pytest.mark.parametrize("workload", ["verify-full", "verify-omega"])
def test_verify_units_run_clean(bench, workload):
    run, workloads = bench
    for unit in run.UNITS[workload]:
        ur = workloads.UnitRun(unit, workloads.make_inputs(unit, seed=1))
        count = ur.build()
        assert count > 0, unit
        for _ in range(count):
            ur.step()
        assert ur.res.failures == [], (unit, ur.res.failures[:3])
        assert all(ok for *_, ok in ur.res.items), unit


def test_negative_control_unit_fails_its_instance(bench):
    run, workloads = bench
    assert workloads.NEGATIVE_CONTROL in run.UNITS["verify-full"]
    ur = workloads.UnitRun(workloads.NEGATIVE_CONTROL, None)
    assert ur.build() == 1
    n, r, inst = ur.items[0].payload
    report = present.verify_identity(n, r, inst)
    assert not report.passed and report.counterexample


def test_schur_products_unit_runs_clean(bench):
    run, workloads = bench
    assert run.UNITS["schur-products"] == ("schur-products",)
    ur = workloads.UnitRun("schur-products", workloads.make_inputs("schur-products", seed=7))
    count = ur.build()
    kinds = [item.kind for item in ur.items]
    assert kinds.count("q17-19") == 1 and kinds.count("generator-product") == 2
    assert kinds.count("triple") == count - 3 > 0
    for _ in range(count):
        ur.step()
    assert ur.res.failures == [], ur.res.failures[:3]
    assert len(ur.res.items) == count and all(ok for *_, ok in ur.res.items)
    assert ur.res.instances > 0  # the q17-19 suite reported its instances


# Hooks of perfbench/tracer.py whose target is gone: the domain
# enumeration they timed is now present.verification_domain, and the
# tracer's update waits for a change to the benchmark itself.
STALE_HOOKS = {"aschur.present.window_basis", "aschur.present.omega_window_basis"}


def test_tracer_hooks_resolve(bench):
    # the tracer skips a hook whose target is missing, so a renamed entry
    # point would silently zero its per-layer metrics; resolve each one as
    # Tracer.install does, without installing anything
    tracer = importlib.import_module("tracer")
    missing = set()
    for module, attr, _layer, _mode in tracer.HOOKS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(f"{module}.{attr}")
    assert missing <= STALE_HOOKS, sorted(missing - STALE_HOOKS)
