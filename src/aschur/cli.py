"""Command-line surface: computation and verification, batch only.

The grammar is one table, `COMMANDS`: each command (weyl, hecke, schur,
tensor, verify, which checks a relation suite of aschur.present at --n
and --r, monomial and matrix) has its help text, the dimensions it takes
(--n, --r) and its actions, and each action its handler, its required
flags and its optional ones.  `main` checks the required flags, runs the
handler and prints the `(text, record)` or `(text, record, exit code)`
it returns once, in the chosen format.  Exit status: 0 on success (all
checks pass), 1 on verification failure, 2 on usage errors (argparse's
own included), 3 on an internal error (any other exception); a 2 or a 3
is reported in one line on stderr.  A usage error is a `UsageError`: a
ValueError is one only while a flag's value is read (`_read`), and
anywhere else it is an internal error.  Structured output is
line-delimited JSON records, each carrying a "schema" field.
"""
from __future__ import annotations

import argparse
import json
import sys

from .aweyl import AffinePerm, ParabolicIndex, coset_decompose, double_coset_min
from .hecke import t_element, x_lambda
from .latmat import (
    PeriodicMatrix,
    coset_from_matrix,
    d_stat,
    is_aperiodic,
    matrix_from_coset,
)
from .present import (
    SUITE_NAMES,
    SUITES,
    build_M,
    build_M1,
    build_M2,
    build_M3,
    factor_En,
    mu_from_lambda,
    nu_from_mu,
    run_suite,
)
from .schur import SchurBasisIndex, SchurElement, hecke_embed, phi_value
from .tensor import act_expr_basis, render_vector, weight_space_basis
from .operators import Kinv, OperatorExpr, P, R, Rinv, Sym
from .weights import Weight, parse_weight


class UsageError(Exception):
    pass


def _read(flag: str, make, *args):
    """make(*args) on a value of flag: a ValueError there is the user's,
    a usage error that names the flag."""
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_word(text: str, n: int) -> tuple[Sym, ...]:
    """Words like 'E1 F2 K3 Kinv1 R Rinv P(1,1,0) e1 f2 H3'; indices in 1..n.
    K1^-1 and R^-1, the spellings of `Sym.render`, read as Kinv1 and Rinv."""
    syms: list[Sym] = []
    for tok in text.split():
        if tok == "R":
            syms.append(R)
        elif tok in ("Rinv", "R^-1"):
            syms.append(Rinv)
        elif tok.startswith("P(") and tok.endswith(")"):
            syms.append(P(parse_weight(tok[1:])))
        elif tok.startswith("Kinv"):
            syms.append(Kinv(int(tok[4:])))
        elif tok.startswith("K") and tok.endswith("^-1"):
            syms.append(Kinv(int(tok[1:-3])))
        elif tok[0] in "EFKefH":
            syms.append(Sym(tok[0], int(tok[1:])))
        else:
            raise UsageError(f"cannot parse word symbol {tok!r}")
        sym = syms[-1]
        bad_weight = sym.kind == "P" and sym.weight.n != n
        bad_index = sym.kind not in ("P", "R", "Rinv") and not 1 <= sym.index <= n
        if bad_weight or bad_index:
            raise UsageError(f"symbol {tok!r} does not fit n = {n}: indices lie in 1..{n}, "
                             f"weights have {n} parts")
    return tuple(syms)


def _require_affine(n: int, r: int):
    if n <= r:
        raise UsageError(
            f"this command needs n > r (got n={n}, r={r}); "
            "the affine presentation only covers that range"
        )


def _parse_weight(text: str, n: int, r: int, flag: str) -> Weight:
    """A weight with n parts summing to r."""
    lam = _read(flag, parse_weight, text)
    if lam.n != n or lam.r != r:
        raise UsageError(f"{flag} {text!r} must have {n} parts summing to {r}")
    return lam


def _parse_perm(text: str, r: int, flag: str) -> AffinePerm:
    """An affine permutation whose period must be r."""
    w = _read(flag, AffinePerm.parse, text)
    if w.r != r:
        raise UsageError(f"{flag} {text!r} has period {w.r}, but --r is {r}")
    return w


def _parabolic(r: int, text: str | None, flag: str) -> ParabolicIndex:
    """The generator indices in text, none without it."""
    return _read(flag, lambda: ParabolicIndex.make(r, _parse_ints(text) if text else ()))


def _parse_phi(n: int, r: int, text: str, flag: str) -> SchurBasisIndex:
    """'lam | d | mu' with weights as comma lists and d in rho^z*[...] form."""
    parts = [p.strip() for p in text.split("|")]
    if len(parts) != 3:
        raise UsageError("phi index must be 'lam | d | mu'")
    lam = _parse_weight(parts[0], n, r, f"{flag} weight")
    d = _parse_perm(parts[1], r, f"{flag} permutation")
    mu = _parse_weight(parts[2], n, r, f"{flag} weight")
    return _read(flag, SchurBasisIndex, lam, mu, d)


def _coset_data(args) -> tuple[Weight, Weight, AffinePerm]:
    """(lambda, mu, d) of --lambda, --mu and --d, read against --n and --r."""
    return (_parse_weight(args.lam, args.n, args.r, "--lambda"),
            _parse_weight(args.mu, args.n, args.r, "--mu"), _parse_perm(args.d, args.r, "--d"))


# -- action handlers: each returns (text, record) or (text, record, exit code) ------
# (verify's record is the list of its check records, one JSON line each)


def _flat(schema: str, x):
    """A permutation or a matrix as its rendering and its fields."""
    return x.render(), {"schema": schema, **x.structured()}


def _terms(schema: str, x):
    """A Hecke or Schur element as its rendering and its terms."""
    return x.render(), {"schema": schema, "terms": x.structured()}


def _element(args) -> AffinePerm:
    """The Weyl group element of --images or --perm."""
    if args.images:
        return _read("--images", lambda: AffinePerm.from_images(args.r, _parse_ints(args.images)))
    if args.perm:
        return _parse_perm(args.perm, args.r, "--perm")
    raise UsageError("give the element via --images or --perm")


def _compose(args):
    a, b = _parse_perm(args.a, args.r, "--a"), _parse_perm(args.b, args.r, "--b")
    return _flat("aschur.perm/1", a * b)


def _length(args):
    w = _element(args)
    return str(w.length()), {"schema": "aschur.length/1", "perm": w.structured(),
                             "length": w.length()}


def _reduced(args):
    w = _element(args)
    word = w.reduced_word()
    text = " ".join(f"s{i}" for i in word) if word else "(empty)"
    return f"rho^{w.z} ; {text}", {"schema": "aschur.word/1", "z": w.z, "word": list(word)}


def _coset(args):
    par, dist = coset_decompose(_element(args), _parabolic(args.r, args.pi, "--pi"), args.side)
    return (f"parabolic: {par.render()}  distinguished: {dist.render()}",
            {"schema": "aschur.coset/1", "parabolic": par.structured(),
             "distinguished": dist.structured()})


def _mincoset(args):
    w = _element(args)
    pi1, pi2 = _parabolic(args.r, args.pi1, "--pi1"), _parabolic(args.r, args.pi2, "--pi2")
    return _flat("aschur.perm/1", double_coset_min(w, pi1, pi2))


def _hecke_mul(args):
    a = t_element(_parse_perm(args.a, args.r, "--a"))
    b = t_element(_parse_perm(args.b, args.r, "--b"))
    return _terms("aschur.hecke/1", a * b)


def _xlambda(args):
    lam = _read("--lambda", parse_weight, args.lam)
    if lam.r != args.r:
        raise UsageError(f"--lambda {args.lam!r} must sum to --r = {args.r}")
    return _terms("aschur.hecke/1", x_lambda(lam, args.shift))


def _phi(args):
    return _terms("aschur.hecke/1", phi_value(_read("--d", SchurBasisIndex, *_coset_data(args))))


def _schur_mul(args):
    a = SchurElement.basis(_parse_phi(args.n, args.r, args.a, "--a"))
    b = SchurElement.basis(_parse_phi(args.n, args.r, args.b, "--b"))
    return _terms("aschur.schur/1", a * b)


def _embed(args):
    h = t_element(_parse_perm(args.perm, args.r, "--perm"))
    return _terms("aschur.schur/1", _read("--n", hecke_embed, h, args.n))


def _act(args):
    word = OperatorExpr.word(_read("--word", _parse_word, args.word, args.n))
    vec = act_expr_basis(args.n, word, _read("--vector", _parse_ints, args.vector))
    return render_vector(vec), {"schema": "aschur.vector/1", "terms": [
        {"basis": list(b), "coeff": c.structured()} for b, c in sorted(vec.items())]}


def _weightspace(args):
    hi = args.hi if args.hi is not None else args.n
    if hi < args.lo:
        raise UsageError(f"--lo {args.lo} is above --hi {hi}")
    lam = _read("--lambda", parse_weight, args.lam)
    basis = _read("--lambda", weight_space_basis, args.n, lam, args.lo, hi)
    text = "\n".join("e[" + ",".join(map(str, b)) + "]" for b in basis)
    return (text if basis else "(empty)",
            {"schema": "aschur.basis/1", "vectors": [list(b) for b in basis]})


def _verify(args):
    if SUITES[args.suite].needs_n_gt_r:
        _require_affine(args.n, args.r)
    reports = run_suite(args.suite, args.n, args.r)
    passed = sum(rep.passed for rep in reports)
    text = "\n".join([rep.line() for rep in reports] + [f"{passed}/{len(reports)} checks passed"])
    return text, [rep.structured() for rep in reports], 0 if passed == len(reports) else 1


def _affine_weight(args) -> Weight:
    """--lambda, for the transport monomials, which need n > r."""
    _require_affine(args.n, args.r)
    return _parse_weight(args.lam, args.n, args.r, "--lambda")


def _monomial(label: str, word, **weights):
    """A transport monomial after the weights it leads to."""
    text = "".join(f"{k}={w.render()}\n" for k, w in weights.items()) + f"{label} = {word.render()}"
    return text, {"schema": "aschur.monomial/1", "word": word.render(),
                  **{k: list(w.parts) for k, w in weights.items()}}


def _m1(args):
    m1, mu = _read("--lambda", build_M1, _affine_weight(args))
    return _monomial("M1", m1, mu=mu)


def _m2(args):
    m2, nu = _read("--lambda", build_M2, mu_from_lambda(_affine_weight(args)))
    return _monomial("M2", m2, nu=nu)


def _m3(args):
    nu = nu_from_mu(mu_from_lambda(_affine_weight(args)))
    return _monomial("M3", _read("--lambda", build_M3, nu))


def _m(args):
    return _monomial("M", _read("--lambda", build_M, _affine_weight(args)))


def _factor_en(args):
    n, r = args.n, args.r
    res = _read("--lambda", factor_En, n, r, _affine_weight(args))
    text = (f"E_{n} 1_lam = z * sigma(W) (E_{n} 1_omega) M\n"
            f"z = {res.render_z()}\nholds: {res.holds}\nwindow: {res.window}")
    return text, {"schema": "aschur.factor/1", "z_num": res.z_num.structured(),
                  "z_den": res.z_den.structured(), "holds": res.holds,
                  "window": res.window}, 0 if res.holds else 1


def _parse_entries(text: str) -> list[tuple[int, int, int]]:
    return [(i, j, v) for i, j, v in map(_parse_ints, text.split(";"))]


def _matrix(args) -> PeriodicMatrix:
    """The periodic matrix of --entries, at --n and --r."""
    return _read("--entries", lambda: PeriodicMatrix(
        args.n, args.r, tuple(sorted(_parse_entries(args.entries)))))


def _from_coset(args):
    return _flat("aschur.matrix/1", _read("--d", matrix_from_coset, *_coset_data(args)))


def _to_coset(args):
    lam, mu, d = _read("--entries", coset_from_matrix, _matrix(args))
    return (f"lambda={lam.render()} mu={mu.render()} d={d.render()}",
            {"schema": "aschur.coset/1", "lambda": list(lam.parts), "mu": list(mu.parts),
             "d": d.structured()})


def _dstat(args):
    d = d_stat(_matrix(args))
    return str(d), {"schema": "aschur.dstat/1", "d": d}


def _aperiodic(args):
    aperiodic = is_aperiodic(_matrix(args))
    return str(aperiodic).lower(), {"schema": "aschur.aperiodic/1", "aperiodic": aperiodic}


# -- the grammar -------------------------------------------------------------------

# command: (help, dimensions, {action: (handler, required flags, optional flags)});
# verify has no action, its one entry is keyed None
COMMANDS = {
    "weyl": ("extended affine Weyl group", ("--r",), {
        "compose": (_compose, ("--a", "--b"), ()),
        "length": (_length, (), ("--images", "--perm")),
        "reduced": (_reduced, (), ("--images", "--perm")),
        "coset": (_coset, (), ("--images", "--perm", "--pi", "--side")),
        "mincoset": (_mincoset, (), ("--images", "--perm", "--pi1", "--pi2")),
    }),
    "hecke": ("affine Hecke algebra", ("--r",), {
        "mul": (_hecke_mul, ("--a", "--b"), ()),
        "xlambda": (_xlambda, ("--lambda",), ("--shift",)),
    }),
    "schur": ("affine q-Schur algebra", ("--n", "--r"), {
        "mul": (_schur_mul, ("--a", "--b"), ()),
        "phi": (_phi, ("--lambda", "--mu", "--d"), ()),
        "embed": (_embed, ("--perm",), ()),
    }),
    "tensor": ("tensor space action", ("--n",), {
        "act": (_act, ("--word", "--vector"), ()),
        "weightspace": (_weightspace, ("--lambda",), ("--lo", "--hi")),
    }),
    "verify": ("relation suites", ("--n", "--r"), {None: (_verify, ("--suite",), ())}),
    "monomial": ("transport monomials and E_n factorization", ("--n", "--r"), {
        action: (handler, ("--lambda",), ()) for action, handler in
        (("m1", _m1), ("m2", _m2), ("m3", _m3), ("m", _m), ("factor-en", _factor_en))}),
    "matrix": ("periodic matrix indexing", ("--n", "--r"), {
        "from-coset": (_from_coset, ("--lambda", "--mu", "--d"), ()),
        "to-coset": (_to_coset, ("--entries",), ()),
        "dstat": (_dstat, ("--entries",), ()),
        "aperiodic": (_aperiodic, ("--entries",), ()),
    }),
}
# argparse settings of a flag beyond a plain optional string: help, type, choices, default
FLAGS = {
    "--images": dict(help="comma-separated images of 1..r"),
    "--perm": dict(help="rho^z * [w1,...,wr]"),
    "--pi": dict(help="parabolic generator indices, e.g. 1,2"),
    "--side": dict(choices=("left", "right"), default="left"),
    "--lambda": dict(help="weight, e.g. 2,1,0"),
    "--shift": dict(type=int, default=0),
    "--word": dict(help="operator word, e.g. 'E1 F2 R P(1,1,0)'"),
    "--vector": dict(help="basis tensor indices, e.g. 1,2"),
    "--lo": dict(type=int, default=1),
    "--hi": dict(type=int),
    "--suite": dict(choices=SUITE_NAMES),
    "--entries": dict(help="semicolon-separated i,j,v triples"),
}


def _dest(flag: str) -> str:
    # `lambda` is a keyword, so --lambda is read as args.lam
    return "lam" if flag == "--lambda" else flag[2:]


class _Parser(argparse.ArgumentParser):
    # argparse's own errors are usage errors too: exit 2 in one line, not a
    # SystemExit after a usage dump
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="aschur",
        description="Exact affine Weyl / Hecke / q-Schur computations and relation verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, dims, actions) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if None not in actions:
            p.add_argument("action", choices=tuple(actions))
        p.add_argument("--format", choices=("text", "structured"), default="text")
        for dim in dims:
            p.add_argument(dim, type=int, required=True)
        flags = [f for _, required, optional in actions.values() for f in required + optional]
        for flag in dict.fromkeys(flags):  # each once, in table order
            p.add_argument(flag, dest=_dest(flag), **FLAGS.get(flag, {}))
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, dims, actions = COMMANDS[args.command]
        for dim in dims:
            value = getattr(args, dim[2:])
            if value < 1:
                raise UsageError(f"{dim} must be positive (got {value})")
        action = getattr(args, "action", None)
        handler, required, _ = actions[action]
        if not all(getattr(args, _dest(flag)) for flag in required):
            *rest, last = required
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise UsageError(f"{action or args.command} needs {listed}")
        text, record, *code = handler(args)
        if args.format == "structured":
            for rec in record if isinstance(record, list) else [record]:
                print(json.dumps(rec, sort_keys=True))
        else:
            print(text)
        return code[0] if code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of aschur itself, such as a failed expansion
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
