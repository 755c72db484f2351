"""Spans around aschur's layer entry points, installed from outside.

The tracer replaces module attributes and class methods of aschur with
wrappers for the life of one worker process; aschur's own files are not
edited.  Calls inside a module resolve globals at call time, so a
replaced module attribute also sees the module's internal calls.

Each wrapper is a span: its duration counts for its layer, and its self
time is the duration minus the time of the spans it encloses.  Spans are
aggregated in memory per item, as calls, self time, total time and one
extra count per layer, because the ring alone opens millions of spans in
one pass.  Hooks whose target is missing are skipped, so a later aschur
that renames or removes an entry point still runs under the tracer.
"""
from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, layer, mode).  mode "span" records time, "leaf" is
# a cheaper span for calls that enclose no other span, "count" only
# counts calls (their time stays with the enclosing span).
HOOKS = (
    ("aschur.ring", "LaurentPoly.__mul__", "ring.mul", "leaf"),
    ("aschur.ring", "LaurentPoly.__rmul__", "ring.mul", "leaf"),
    ("aschur.ring", "LaurentPoly.__add__", "ring.add", "leaf"),
    ("aschur.ring", "LaurentPoly.__radd__", "ring.add", "leaf"),
    ("aschur.operators", "OperatorExpr.__mul__", "operators.mul", "span"),
    ("aschur.present", "suite", "present.build", "span"),
    ("aschur.present", "run_suite", "present.run", "span"),
    ("aschur.present", "verify_identity", "present.verify", "span"),
    ("aschur.present", "verify_schur_relation", "present.verify", "span"),
    ("aschur.present", "act_expr_basis", "tensor.act", "span"),
    ("aschur.present", "vec_sub", "tensor.vec_sub", "span"),
    ("aschur.present", "window_basis", "tensor.domain", "span"),
    ("aschur.present", "omega_window_basis", "tensor.domain", "span"),
    ("aschur.tensor", "act_symbol", "tensor.act_symbol", "span"),
    ("aschur.schur", "SchurElement.__mul__", "schur.mul", "span"),
    ("aschur.schur", "expand_in_basis", "schur.expand", "span"),
    ("aschur.schur", "phi_value", "schur.phi_value", "span"),
    ("aschur.schur", "enumerate_double_coset", "aweyl.coset_enum", "span"),
    ("aschur.hecke", "HeckeElement.__mul__", "hecke.mul", "span"),
    ("aschur.aweyl", "AffinePerm.__mul__", "aweyl.perm_op", "count"),
    ("aschur.aweyl", "AffinePerm.inverse", "aweyl.perm_op", "count"),
    ("aschur.aweyl", "AffinePerm.mul_gen_right", "aweyl.perm_op", "count"),
    ("aschur.aweyl", "AffinePerm.mul_gen_left", "aweyl.perm_op", "count"),
    ("aschur.aweyl", "AffinePerm.mul_rho_right", "aweyl.perm_op", "count"),
    ("aschur.aweyl", "AffinePerm.mul_rho_left", "aweyl.perm_op", "count"),
)


def _nonzero_image(args, result) -> int:
    """vec_sub(lhs image, rhs image): 1 when either image is nonzero."""
    return 1 if args[0] or args[1] else 0


def _coset_size(args, result) -> int:
    return len(result)


# Extra per-call counts, summed into the fourth slot of a layer record.
NOTES = {"tensor.vec_sub": _nonzero_image, "aweyl.coset_enum": _coset_size}


class Tracer:
    def __init__(self):
        self.stack = [0.0]  # time of enclosed spans, one slot per open span
        self.items: dict = {}  # item id -> {layer: [calls, self_s, total_s, extra]}
        self.spans: list = []  # [item id, label, start, end]
        self.cur: dict = {}
        self.missing: list = []

    def begin(self, item_id, label: str):
        """Attribute spans to a new item until the next call."""
        self.cur = self.items.setdefault(item_id, {})
        self.spans.append([item_id, label, perf_counter(), None])

    def end(self):
        self.spans[-1][3] = perf_counter()

    def _rec(self, layer: str) -> list:
        rec = self.cur.get(layer)
        if rec is None:
            rec = self.cur[layer] = [0, 0.0, 0.0, 0]
        return rec

    def install(self):
        for module, attr, layer, mode in HOOKS:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, name, getattr(self, "_" + mode)(layer, fn))

    def _span(self, layer, fn):
        stack, rec_of, note = self.stack, self._rec, NOTES.get(layer)

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                rec = rec_of(layer)
                rec[0] += 1
                rec[1] += dt - inner
                rec[2] += dt
            if note is not None:
                rec[3] += note(args, result)
            return result

        return span

    def _leaf(self, layer, fn):
        stack, rec_of = self.stack, self._rec

        def leaf(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            dt = perf_counter() - t0
            stack[-1] += dt
            rec = rec_of(layer)
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt
            return result

        return leaf

    def _count(self, layer, fn):
        rec_of = self._rec

        def count(*args, **kwargs):
            rec_of(layer)[0] += 1
            return fn(*args, **kwargs)

        return count

    def totals(self) -> dict:
        """{layer: [calls, self_s, total_s, extra]} summed over items."""
        return sum_layers(self.items.values())


def sum_layers(records) -> dict:
    """Sum {layer: [calls, self_s, total_s, extra]} records layer by layer."""
    out: dict = {}
    for layers in records:
        for layer, rec in layers.items():
            acc = out.setdefault(layer, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += rec[k]
    return out
