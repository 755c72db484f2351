"""The units of the benchmark's workloads: seeded inputs, items, verdicts.

A unit is what one fresh interpreter runs: one relation suite at
(n, r) = (4, 2) or at the size its name gives ("zeta@3,2"), the
corrupted Q15 at (4, 2), or the whole of schur-products.  run.py says
which units make up a workload.

A unit runs in two phases.  Set-up (`make_inputs`) draws everything the
seed decides.  The measured phase (`UnitRun`) makes the calls into
aschur and checks every verdict.

An *item* is one check whose time is recorded: one relation instance, one
associativity triple or one generator product.  The q17-19 suite is the
exception: `suite()` computes every phi product while it builds the
instances, so per-instance time cannot be seen from outside and the
whole suite is one item.

The program is driven only through names the tier-1 tests already
import, always through the module attribute, so that a traced pass sees
the calls.  No window radius is passed and ASCHUR_MAX_LENGTH is never
set, so changes to the verification domain need no edit here.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from aschur import present, schur
from aschur.aweyl import AffinePerm, double_coset_min
from aschur.hecke import young_parabolic
from aschur.ring import LaurentPoly
from aschur.weights import Weight

# Relation suites are checked at (n, r) = (4, 2).  At (4, 3) a pass of
# verify-full takes about 20 s and one of zeta alone 4.5 s, so a run
# could time each item only once or twice.  The corrupted Q15 must FAIL
# with a counterexample.
VERIFY_N, VERIFY_R = 4, 2
NEGATIVE_CONTROL = "Q15-corrupted"

# schur-products: the q17-19 suite and the triples at (5, 4); the
# generator products at r = 4 and r = 5 (n = 3 suffices for their
# weights).  r = 6 takes about 10 s, which would leave room for only two
# passes in a run.
SCHUR_N, SCHUR_R = 5, 4
GENERATOR_N, GENERATOR_RS = 3, (4, 5)
# Weight shapes for the triples.  The shape (4) is left out: its S_4
# double cosets make one triple cost up to 14 s, so a seed's total would
# swing by 2x.  The factorial growth shows from r = 4 to r = 5.
TRIPLE_SHAPES = ((3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
# Each d is a two-letter word in s_1 ... s_4, reduced by double_coset_min
# against the drawn weights.  Round k gives slot t the word WORDS[k + 5t],
# so every cell meets every word once in every slot.  Random words made the
# tail item of a pass differ by 20 % between seeds; the seed still places
# the parts, which moves d and the products.
WORDS = tuple((a, b) for a in range(1, SCHUR_R + 1) for b in range(1, SCHUR_R + 1))


@dataclass
class Item:
    kind: str  # the suite name, "triple" or "generator-product"
    label: str
    payload: object


@dataclass
class PassResult:
    wall_s: float = 0.0  # the build and the item times, not the waits between steps
    items: list = field(default_factory=list)  # [kind, label, seconds, ok]
    failures: list = field(default_factory=list)
    build_s: dict = field(default_factory=dict)  # suite -> seconds in suite()
    instances: int = 0
    words: int = 0


# -- set-up: everything the seed decides ----------------------------------------


def make_inputs(unit: str, seed: int) -> list[Item] | None:
    """The seeded inputs of one unit; the same seed gives the same inputs.

    A verify unit has none: aschur builds its instances in the measured
    phase, and the seed only orders the units (see run.py).
    """
    if unit != "schur-products":
        return None
    rng = random.Random(seed)
    items = [Item("q17-19", f"q17-19 at ({SCHUR_N},{SCHUR_R})", None)]
    items += _draw_triples(rng)
    items += [_generator_product(r) for r in GENERATOR_RS]
    # Spread each kind over the pass, so that no kind is timed only
    # during one stretch of the machine.
    rng.shuffle(items)
    return items


def _draw_triples(rng: random.Random) -> list[Item]:
    """(phi_A, phi_B, phi_C) with matching middle weights: 256 triples.

    Each of the 16 rounds visits the 16 cells of a Latin design over the
    shapes, so every shape sits equally often in each of the four weight
    slots.  The seed places the parts of each weight.
    """
    s = TRIPLE_SHAPES
    k = len(s)
    out = []
    for rnd in range(len(WORDS)):
        words = [WORDS[(rnd + 5 * t) % len(WORDS)] for t in range(3)]
        for i in range(k):
            for j in range(k):
                shapes = (s[i], s[j], s[(i + j) % k], s[(i + 3 * j) % k])
                lam, mu, nu, kap = (_arrange(rng, sh) for sh in shapes)
                triple = (_phi(lam, mu, words[0]), _phi(mu, nu, words[1]),
                          _phi(nu, kap, words[2]))
                out.append(Item("triple", f"triple {rnd}.{i}.{j}", triple))
    return out


def _arrange(rng: random.Random, shape: tuple[int, ...]) -> Weight:
    parts = list(shape) + [0] * (SCHUR_N - len(shape))
    rng.shuffle(parts)
    return Weight(tuple(parts))


def _phi(lam: Weight, mu: Weight, word: tuple[int, ...]) -> schur.SchurElement:
    w = AffinePerm.identity(SCHUR_R)
    for i in word:
        w = w.mul_gen_right(i)
    d = double_coset_min(w, young_parabolic(lam), young_parabolic(mu))
    return schur.SchurElement.basis(schur.SchurBasisIndex(lam, mu, d))


def _generator_product(r: int) -> Item:
    """phi_{(r),(r-1,1)} phi_{(r-1,1),(r)} and its closed form [r]_q phi_{(r),(r)}."""
    n = GENERATOR_N
    top = Weight((r,) + (0,) * (n - 1))
    hook = Weight((r - 1, 1) + (0,) * (n - 2))
    e = AffinePerm.identity(r)
    left = schur.SchurElement.basis(schur.SchurBasisIndex(top, hook, e))
    right = schur.SchurElement.basis(schur.SchurBasisIndex(hook, top, e))
    qint = LaurentPoly.zero()
    for k in range(r):
        qint = qint + LaurentPoly.q(k)
    expected = schur.SchurElement.basis(schur.SchurBasisIndex(top, top, e)).scaled(qint)
    return Item("generator-product", f"generator product r={r}", (left, right, expected))


# -- the measured phase ------------------------------------------------------------


class _Untraced:
    def begin(self, item_id, label: str):
        pass

    def end(self):
        pass


class UnitRun:
    """The measured phase of one unit, run one step at a time.

    The first step builds the unit's items, the later ones check one item
    each.  Stepping lets run.py interleave the items of the units of a
    pass, so that each unit is timed all through the pass, not in one
    stretch of it.  `tracer` is told where each step starts and ends.
    """

    def __init__(self, unit: str, inputs: list[Item] | None, tracer=None):
        self.unit = unit
        self.items = inputs
        self.tracer = tracer or _Untraced()
        self.res = PassResult()

    def build(self) -> int:
        """Make the unit's items (a verify unit calls suite()); their number."""
        if self.items is None:
            self.tracer.begin("build", "suite build")
            t = perf_counter()
            self.items = _build_verify(self.unit)
            dt = perf_counter() - t
            self.tracer.end()
            suite = unit_size(self.unit)[0]
            self.res.build_s[suite] = self.res.build_s.get(suite, 0.0) + dt
            self.res.wall_s += dt
        return len(self.items)

    def step(self) -> list:
        """Check the next item; [kind, label, seconds, ok]."""
        item_id = len(self.res.items)
        item = self.items[item_id]
        self.tracer.begin(item_id, item.label)
        t = perf_counter()
        try:
            bad = _check(item, self.res)
        except Exception as exc:  # an exception is a wrong verdict, not a crash
            bad = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t
        self.tracer.end()
        rec = [item.kind, item.label, dt, bad is None]
        self.res.items.append(rec)
        self.res.wall_s += dt
        if bad is not None:
            self.res.failures.append(f"{item.label}: {bad}")
        return rec


def unit_size(unit: str) -> tuple[str, int, int]:
    """(suite, n, r) of a verify unit: "zeta" is zeta at (VERIFY_N, VERIFY_R),
    "zeta@3,2" is zeta at (3, 2)."""
    name, _, size = unit.partition("@")
    if not size:
        return name, VERIFY_N, VERIFY_R
    n, r = (int(x) for x in size.split(","))
    return name, n, r


def _build_verify(unit: str) -> list[Item]:
    """The unit's instances, in the suite's own order."""
    name, n, r = unit_size(unit)
    if name == NEGATIVE_CONTROL:
        insts = [present.q15_instance(n, r, corrupt=True)]
    else:
        insts = present.suite(name, n, r)
    return [Item(name, f"{_label(inst)}@{n},{r}", (n, r, inst)) for inst in insts]


def _check(item: Item, res: PassResult) -> str | None:
    """Run one item; None when its verdict is right, else what went wrong."""
    if item.kind == "q17-19":
        reports = present.run_suite("q17-19", SCHUR_N, SCHUR_R)
        res.instances += len(reports)
        failed = [rep.line() for rep in reports if not rep.passed]
        if not reports or failed:
            return f"{len(failed)} of {len(reports)} instances FAIL; first: {failed[:1]}"
        return None
    if item.kind == "triple":
        a, b, c = item.payload
        return None if (a * b) * c == a * (b * c) else "(AB)C != A(BC)"
    if item.kind == "generator-product":
        left, right, expected = item.payload
        return None if left * right == expected else "product differs from [r]_q phi_{(r),(r)}"
    n, r, inst = item.payload
    res.instances += 1
    res.words += len(inst.lhs.terms) + len(inst.rhs.terms)
    report = present.verify_identity(n, r, inst)
    if item.kind == NEGATIVE_CONTROL:
        if report.passed or not report.counterexample:
            return "the negative control did not FAIL with a counterexample"
        return None
    return None if report.passed else f"FAIL {report.line()}"


def _label(inst) -> str:
    ps = ",".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    return f"{inst.name}[{ps}]" if ps else inst.name
