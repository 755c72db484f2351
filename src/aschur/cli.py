"""Command-line surface: computation and verification, batch only.

Subcommands: weyl, hecke, schur, tensor, verify (a relation suite of
aschur.present at --n and --r), monomial and matrix.  Exit status: 0 on
success (all checks pass), 1 on verification failure, 2 on usage errors,
3 on an internal error (any other exception, reported in one line).  A
usage error is a `UsageError`: a ValueError is one only while a flag's
value is read (`_read`), and anywhere else it is an internal error.
Structured output is line-delimited JSON records, each carrying a
"schema" field.
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


def _emit(args, text: str, record: dict):
    if args.format == "structured":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


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


# -- subcommand handlers -----------------------------------------------------------


def _cmd_weyl(args) -> int:
    r = args.r
    if args.action == "compose":
        if not args.a or not args.b:
            raise UsageError("compose needs --a and --b")
        a = _parse_perm(args.a, r, "--a")
        b = _parse_perm(args.b, r, "--b")
        w = a * b
        _emit(args, w.render(), {"schema": "aschur.perm/1", **w.structured()})
        return 0
    if args.images:
        w = _read("--images", lambda: AffinePerm.from_images(r, _parse_ints(args.images)))
    elif args.perm:
        w = _parse_perm(args.perm, r, "--perm")
    else:
        raise UsageError("give the element via --images or --perm")
    if args.action == "length":
        _emit(args, str(w.length()),
              {"schema": "aschur.length/1", "perm": w.structured(), "length": w.length()})
    elif args.action == "reduced":
        word = w.reduced_word()
        text = " ".join(f"s{i}" for i in word) if word else "(empty)"
        _emit(args, f"rho^{w.z} ; {text}",
              {"schema": "aschur.word/1", "z": w.z, "word": list(word)})
    elif args.action == "coset":
        par, dist = coset_decompose(w, _parabolic(r, args.pi, "--pi"), args.side)
        _emit(args, f"parabolic: {par.render()}  distinguished: {dist.render()}",
              {"schema": "aschur.coset/1", "parabolic": par.structured(),
               "distinguished": dist.structured()})
    elif args.action == "mincoset":
        d = double_coset_min(w, _parabolic(r, args.pi1, "--pi1"), _parabolic(r, args.pi2, "--pi2"))
        _emit(args, d.render(), {"schema": "aschur.perm/1", **d.structured()})
    return 0


def _cmd_hecke(args) -> int:
    if args.action == "mul":
        if not args.a or not args.b:
            raise UsageError("mul needs --a and --b")
        a = t_element(_parse_perm(args.a, args.r, "--a"))
        b = t_element(_parse_perm(args.b, args.r, "--b"))
        h = a * b
        _emit(args, h.render(), {"schema": "aschur.hecke/1", "terms": h.structured()})
    elif args.action == "xlambda":
        if not args.lam:
            raise UsageError("xlambda needs --lambda")
        lam = _read("--lambda", parse_weight, args.lam)
        if lam.r != args.r:
            raise UsageError(f"--lambda {args.lam!r} must sum to --r = {args.r}")
        h = x_lambda(lam, args.shift)
        _emit(args, h.render(), {"schema": "aschur.hecke/1", "terms": h.structured()})
    return 0


def _parse_phi(n: int, r: int, text: str, flag: str) -> SchurBasisIndex:
    """'lam | d | mu' with weights as comma lists and d in rho^z*[...] form."""
    parts = [p.strip() for p in text.split("|")]
    if len(parts) != 3:
        raise UsageError("phi index must be 'lam | d | mu'")
    lam = _parse_weight(parts[0], n, r, f"{flag} weight")
    d = _parse_perm(parts[1], r, f"{flag} permutation")
    mu = _parse_weight(parts[2], n, r, f"{flag} weight")
    return _read(flag, SchurBasisIndex, lam, mu, d)


def _cmd_schur(args) -> int:
    n, r = args.n, args.r
    if args.action == "phi":
        if not (args.lam and args.mu and args.d):
            raise UsageError("phi needs --lambda, --mu and --d")
        idx = _read(
            "--d",
            SchurBasisIndex,
            _parse_weight(args.lam, n, r, "--lambda"),
            _parse_weight(args.mu, n, r, "--mu"),
            _parse_perm(args.d, r, "--d"),
        )
        h = phi_value(idx)
        _emit(args, h.render(), {"schema": "aschur.hecke/1", "terms": h.structured()})
    elif args.action == "mul":
        if not args.a or not args.b:
            raise UsageError("mul needs --a and --b")
        a = SchurElement.basis(_parse_phi(n, r, args.a, "--a"))
        b = SchurElement.basis(_parse_phi(n, r, args.b, "--b"))
        c = a * b
        _emit(args, c.render(), {"schema": "aschur.schur/1", "terms": c.structured()})
    elif args.action == "embed":
        if not args.perm:
            raise UsageError("embed needs --perm")
        h = t_element(_parse_perm(args.perm, r, "--perm"))
        s = _read("--n", hecke_embed, h, n)
        _emit(args, s.render(), {"schema": "aschur.schur/1", "terms": s.structured()})
    return 0


def _cmd_tensor(args) -> int:
    n = args.n
    if args.action == "act":
        if not args.word or not args.vector:
            raise UsageError("act needs --word and --vector")
        word = OperatorExpr.word(_read("--word", _parse_word, args.word, n))
        vec = act_expr_basis(n, word, _read("--vector", _parse_ints, args.vector))
        _emit(args, render_vector(vec),
              {"schema": "aschur.vector/1",
               "terms": [
                   {"basis": list(b), "coeff": c.structured()}
                   for b, c in sorted(vec.items())
               ]})
    elif args.action == "weightspace":
        if not args.lam:
            raise UsageError("weightspace needs --lambda")
        hi = args.hi if args.hi is not None else n
        if hi < args.lo:
            raise UsageError(f"--lo {args.lo} is above --hi {hi}")
        lam = _read("--lambda", parse_weight, args.lam)
        basis = _read("--lambda", weight_space_basis, n, lam, args.lo, hi)
        text = "\n".join("e[" + ",".join(map(str, b)) + "]" for b in basis)
        _emit(args, text if basis else "(empty)",
              {"schema": "aschur.basis/1", "vectors": [list(b) for b in basis]})
    return 0


def _cmd_verify(args) -> int:
    if SUITES[args.suite].needs_n_gt_r:
        _require_affine(args.n, args.r)
    reports = run_suite(args.suite, args.n, args.r)
    failures = 0
    for rep in reports:
        if args.format == "structured":
            print(json.dumps(rep.structured(), sort_keys=True))
        else:
            print(rep.line())
        failures += 0 if rep.passed else 1
    summary = f"{len(reports) - failures}/{len(reports)} checks passed"
    if args.format != "structured":
        print(summary)
    return 0 if failures == 0 else 1


def _cmd_monomial(args) -> int:
    n, r = args.n, args.r
    _require_affine(n, r)
    lam = _parse_weight(args.lam, n, r, "--lambda")
    if args.action == "m1":
        m1, mu = _read("--lambda", build_M1, lam)
        _emit(args, f"mu={mu.render()}\nM1 = {m1.render()}",
              {"schema": "aschur.monomial/1", "mu": list(mu.parts), "word": m1.render()})
    elif args.action == "m2":
        mu = mu_from_lambda(lam)
        m2, nu = _read("--lambda", build_M2, mu)
        _emit(args, f"nu={nu.render()}\nM2 = {m2.render()}",
              {"schema": "aschur.monomial/1", "nu": list(nu.parts), "word": m2.render()})
    elif args.action == "m3":
        nu = nu_from_mu(mu_from_lambda(lam))
        m3 = _read("--lambda", build_M3, nu)
        _emit(args, f"M3 = {m3.render()}",
              {"schema": "aschur.monomial/1", "word": m3.render()})
    elif args.action == "m":
        m = _read("--lambda", build_M, lam)
        _emit(args, f"M = {m.render()}",
              {"schema": "aschur.monomial/1", "word": m.render()})
    elif args.action == "factor-en":
        res = _read("--lambda", factor_En, n, r, lam)
        text = (f"E_{n} 1_lam = z * sigma(W) (E_{n} 1_omega) M\n"
                f"z = {res.render_z()}\nholds: {res.holds}\nwindow: {res.window}")
        _emit(args, text,
              {"schema": "aschur.factor/1", "z_num": res.z_num.structured(),
               "z_den": res.z_den.structured(), "holds": res.holds,
               "window": res.window})
        return 0 if res.holds else 1
    return 0


def _parse_entries(text: str) -> list[tuple[int, int, int]]:
    out = []
    for part in text.split(";"):
        i, j, v = _parse_ints(part)
        out.append((i, j, v))
    return out


def _cmd_matrix(args) -> int:
    n, r = args.n, args.r
    if args.action == "from-coset":
        if not (args.lam and args.mu and args.d):
            raise UsageError("from-coset needs --lambda, --mu and --d")
        a = _read(
            "--d",
            matrix_from_coset,
            _parse_weight(args.lam, n, r, "--lambda"),
            _parse_weight(args.mu, n, r, "--mu"),
            _parse_perm(args.d, r, "--d"),
        )
        _emit(args, a.render(), {"schema": "aschur.matrix/1", **a.structured()})
        return 0
    if not args.entries:
        raise UsageError(f"{args.action} needs --entries")
    entries = _read("--entries", _parse_entries, args.entries)
    a = _read("--entries", PeriodicMatrix, n, r, tuple(sorted(entries)))
    if args.action == "to-coset":
        lam, mu, d = _read("--entries", coset_from_matrix, a)
        _emit(args, f"lambda={lam.render()} mu={mu.render()} d={d.render()}",
              {"schema": "aschur.coset/1", "lambda": list(lam.parts),
               "mu": list(mu.parts), "d": d.structured()})
    elif args.action == "dstat":
        _emit(args, str(d_stat(a)),
              {"schema": "aschur.dstat/1", "d": d_stat(a)})
    elif args.action == "aperiodic":
        _emit(args, str(is_aperiodic(a)).lower(),
              {"schema": "aschur.aperiodic/1", "aperiodic": is_aperiodic(a)})
    return 0


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aschur",
        description="Exact affine Weyl / Hecke / q-Schur computations and relation verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, need_n=False, need_r=True):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        if need_n:
            p.add_argument("--n", type=int, required=True)
        if need_r:
            p.add_argument("--r", type=int, required=True)

    w = sub.add_parser("weyl", help="extended affine Weyl group")
    w.add_argument("action", choices=("compose", "length", "reduced", "coset", "mincoset"))
    common(w)
    w.add_argument("--images", help="comma-separated images of 1..r")
    w.add_argument("--perm", help="rho^z * [w1,...,wr]")
    w.add_argument("--a")
    w.add_argument("--b")
    w.add_argument("--pi", help="parabolic generator indices, e.g. 1,2")
    w.add_argument("--pi1")
    w.add_argument("--pi2")
    w.add_argument("--side", choices=("left", "right"), default="left")
    w.set_defaults(func=_cmd_weyl)

    h = sub.add_parser("hecke", help="affine Hecke algebra")
    h.add_argument("action", choices=("mul", "xlambda"))
    common(h)
    h.add_argument("--a", help="basis permutation for T_a")
    h.add_argument("--b", help="basis permutation for T_b")
    h.add_argument("--lambda", dest="lam", help="weight, e.g. 2,1,0")
    h.add_argument("--shift", type=int, default=0)
    h.set_defaults(func=_cmd_hecke)

    s = sub.add_parser("schur", help="affine q-Schur algebra")
    s.add_argument("action", choices=("mul", "phi", "embed"))
    common(s, need_n=True)
    s.add_argument("--a", help="basis index 'lam | d | mu'")
    s.add_argument("--b", help="basis index 'lam | d | mu'")
    s.add_argument("--lambda", dest="lam")
    s.add_argument("--mu")
    s.add_argument("--d")
    s.add_argument("--perm")
    s.set_defaults(func=_cmd_schur)

    t = sub.add_parser("tensor", help="tensor space action")
    t.add_argument("action", choices=("act", "weightspace"))
    common(t, need_n=True, need_r=False)
    t.add_argument("--word", help="operator word, e.g. 'E1 F2 R P(1,1,0)'")
    t.add_argument("--vector", help="basis tensor indices, e.g. 1,2")
    t.add_argument("--lambda", dest="lam")
    t.add_argument("--lo", type=int, default=1)
    t.add_argument("--hi", type=int)
    t.set_defaults(func=_cmd_tensor)

    v = sub.add_parser("verify", help="relation suites")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    common(v, need_n=True)
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("monomial", help="transport monomials and E_n factorization")
    m.add_argument("action", choices=("m1", "m2", "m3", "m", "factor-en"))
    common(m, need_n=True)
    m.add_argument("--lambda", dest="lam", required=True)
    m.set_defaults(func=_cmd_monomial)

    x = sub.add_parser("matrix", help="periodic matrix indexing")
    x.add_argument("action", choices=("from-coset", "to-coset", "dstat", "aperiodic"))
    common(x, need_n=True)
    x.add_argument("--lambda", dest="lam")
    x.add_argument("--mu")
    x.add_argument("--d")
    x.add_argument("--entries", help="semicolon-separated i,j,v triples")
    x.set_defaults(func=_cmd_matrix)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("n", "r"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(f"--{flag} must be positive (got {value})")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of aschur itself, such as a failed expansion
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
