"""Relation suites and the verification engine.

The presented algebra is never materialized abstractly: its elements are
operator words evaluated exactly on tensor-space basis vectors.  A
relation instance passes when lhs - rhs annihilates every basis tensor
with indices in [1, n], or for an omega-space relation the r! of them of
weight omega.  The action commutes with adding n to any single index
(see aschur.tensor), so a pass is equality on all of V^(x)r, or on the
omega weight space V_omega, and every report says so.

Also here: the weight idempotents, the rotation automorphism and the
E/F-swapping antiautomorphism, the commutation and cancellation rules
for idempotents, the distinguished-monomial analyzer, the zeta elements,
and the constructive monomials used to pull E_n across weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .aweyl import AffinePerm
from .hecke import young_parabolic
from .operators import (
    E,
    F,
    K,
    Kinv,
    OperatorExpr,
    P,
    R,
    Rinv,
    Sym,
    Word,
    chain,
    power,
)
from .ring import LaurentPoly, gauss_binom, quantum_fact, signed_quantum_int
from .schur import SchurBasisIndex, SchurElement
from .tensor import (
    act_expr_basis,
    render_basis,
    render_vector,
    tau,
    vec_sub,
    weight_space_basis,
)
from .weights import Weight, all_weights, omega

_V = LaurentPoly.v()
_ONE = LaurentPoly.one()
_Q = LaurentPoly.q()


# -- projectors -------------------------------------------------------------------


def projector(lam: Weight) -> OperatorExpr:
    """The weight idempotent 1_lambda as an operator word."""
    return OperatorExpr.word([P(lam)])


def k_binomial_projector(lam: Weight) -> "DiagonalOperator":
    """1_lambda as the product of quantum K-binomials [K_i; lambda_i].

    Each factor is diagonal, acting on a weight-mu vector by the Gaussian
    binomial [mu_i choose lambda_i]; the product recovers the projector.
    """
    return DiagonalOperator(lam)


class DiagonalOperator:
    """Product over i of [K_i; t_i], evaluated weightwise."""

    def __init__(self, lam: Weight):
        self.lam = lam

    def eigenvalue(self, mu: Weight) -> LaurentPoly:
        out = LaurentPoly.one()
        for i, t in enumerate(self.lam.parts, start=1):
            out = out * gauss_binom(mu.entry(i), t)
        return out


# -- relation instances and verification --------------------------------------------


@dataclass
class RelationInstance:
    name: str
    description: str
    lhs: OperatorExpr
    rhs: OperatorExpr
    params: dict = field(default_factory=dict)
    basis: str = "full"  # or "omega"


@dataclass
class SchurRelationInstance:
    name: str
    description: str
    lhs: SchurElement
    rhs: SchurElement
    params: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    name: str
    description: str
    params: dict
    window: str
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tail = f"  [{ps}]" if ps else ""
        extra = f"  counterexample: {self.counterexample}" if self.counterexample else ""
        return f"{status}  {self.name}{tail}  ({self.window}){extra}"

    def structured(self) -> dict:
        return {
            "schema": "aschur.check/1",
            "name": self.name,
            "description": self.description,
            "params": {k: str(v) for k, v in self.params.items()},
            "window": self.window,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def verify_identity(n: int, r: int, inst: RelationInstance) -> CheckReport:
    """Evaluate lhs - rhs on the residue fundamental domain [1, n]^r (its
    weight-omega part for an omega-space relation); exact zero means pass,
    on all of V^(x)r or V_omega by the shift lemma in aschur.tensor."""
    if inst.basis == "omega":
        vectors = weight_space_basis(n, omega(n, r), 1, n)
        window = f"omega weight space, indices in [1,{n}]; complete on V_omega"
    else:
        vectors = product(range(1, n + 1), repeat=r)
        window = f"all basis tensors with indices in [1,{n}]; complete on V^(x){r}"
    for b in vectors:
        diff = vec_sub(act_expr_basis(n, inst.lhs, b), act_expr_basis(n, inst.rhs, b))
        if diff:
            return CheckReport(
                inst.name,
                inst.description,
                inst.params,
                window,
                False,
                f"{render_basis(b)} -> {render_vector(diff)}",
            )
    return CheckReport(inst.name, inst.description, inst.params, window, True)


def verify_schur_relation(inst: SchurRelationInstance) -> CheckReport:
    diff = inst.lhs - inst.rhs
    if diff.is_zero():
        return CheckReport(
            inst.name, inst.description, inst.params, "phi-basis identity (exact)", True
        )
    return CheckReport(
        inst.name,
        inst.description,
        inst.params,
        "phi-basis identity (exact)",
        False,
        diff.render(),
    )


# -- index helpers ----------------------------------------------------------------


def _barn(i: int, n: int) -> int:
    return (i - 1) % n + 1


def _eps_plus(i: int, j: int, n: int) -> int:
    if (j - i) % n == 0:
        return 1
    if (j - (i - 1)) % n == 0:
        return -1
    return 0


def _eps_minus(i: int, j: int, n: int) -> int:
    return -_eps_plus(i, j, n)


def _adjacent_affine(i: int, j: int, n: int) -> bool:
    return (i - j) % n in (1, n - 1) and i != j


def _w(*syms: Sym) -> OperatorExpr:
    return OperatorExpr.word(syms)


def _commutator_rhs(n: int, r: int, j: int, classical: bool) -> OperatorExpr:
    """sum over weights of [lambda_j - lambda_{j+1}] 1_lambda (or the v=1 version)."""
    out = OperatorExpr.zero()
    for lam in all_weights(n, r):
        a = lam.entry(j) - lam.entry(j + 1)
        coeff = LaurentPoly.const(a) if classical else signed_quantum_int(a)
        if not coeff.is_zero():
            out = out + OperatorExpr.word([P(lam)], coeff)
    return out


# -- suites -------------------------------------------------------------------------


SUITE_NAMES = (
    "qaffine",
    "extended",
    "schur-presentation",
    "finite-schur",
    "q17-19",
    "hecke-tau",
    "idempotented",
    "zeta",
    "classical",
)


def suite(name: str, n: int, r: int) -> list:
    """All instances of a named relation suite for the given (n, r)."""
    builders = {
        "qaffine": _suite_qaffine,
        "extended": _suite_extended,
        "schur-presentation": _suite_schur_presentation,
        "finite-schur": _suite_finite_schur,
        "q17-19": _suite_q17_19,
        "hecke-tau": _suite_hecke_tau,
        "idempotented": _suite_idempotented,
        "zeta": _suite_zeta,
        "classical": _suite_classical,
    }
    if name not in builders:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    if name in ("qaffine", "extended", "schur-presentation", "q17-19",
                "hecke-tau", "idempotented", "zeta") and n <= r:
        raise ValueError(f"suite {name!r} requires n > r")
    return builders[name](n, r)


def run_suite(name: str, n: int, r: int) -> list[CheckReport]:
    reports = []
    for inst in suite(name, n, r):
        if isinstance(inst, SchurRelationInstance):
            reports.append(verify_schur_relation(inst))
        else:
            reports.append(verify_identity(n, r, inst))
    reports.sort(key=lambda rep: (rep.name, sorted(rep.params.items(), key=str)))
    return reports


def _quantum_serre(kind: str, i: int, j: int) -> OperatorExpr:
    X = Sym(kind, i)
    Y = Sym(kind, j)
    two = LaurentPoly.v(1) + LaurentPoly.v(-1)
    return (
        _w(X, X, Y)
        - OperatorExpr.word([X, Y, X], two)
        + _w(Y, X, X)
    )


def _classical_serre(kind: str, i: int, j: int) -> OperatorExpr:
    X = Sym(kind, i)
    Y = Sym(kind, j)
    return _w(X, X, Y) - OperatorExpr.word([X, Y, X], 2) + _w(Y, X, X)


def _q1_to_q9(n: int, r: int, e_range: range, adjacent, suffix: str) -> list[RelationInstance]:
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(RelationInstance(
                "Q1", "K_i K_j = K_j K_i", _w(K(i), K(j)), _w(K(j), K(i)),
                {"i": i, "j": j}))
    for i in range(1, n + 1):
        out.append(RelationInstance(
            "Q2", "K_i K_i^-1 = 1 = K_i^-1 K_i",
            _w(K(i), Kinv(i)) + _w(Kinv(i), K(i)),
            OperatorExpr.one().scaled(2), {"i": i}))
    for i in range(1, n + 1):
        for j in e_range:
            out.append(RelationInstance(
                "Q3", "K_i E_j = v^eps+(i,j) E_j K_i",
                _w(K(i), E(j)),
                OperatorExpr.word([E(j), K(i)], LaurentPoly.v(_eps_plus(i, j, n))),
                {"i": i, "j": j}))
            out.append(RelationInstance(
                "Q4", "K_i F_j = v^eps-(i,j) F_j K_i",
                _w(K(i), F(j)),
                OperatorExpr.word([F(j), K(i)], LaurentPoly.v(_eps_minus(i, j, n))),
                {"i": i, "j": j}))
    for i in e_range:
        for j in e_range:
            lhs = _w(E(i), F(j)) - _w(F(j), E(i))
            rhs = _commutator_rhs(n, r, i, classical=False) if i == j else OperatorExpr.zero()
            out.append(RelationInstance(
                "Q5", "E_i F_j - F_j E_i = delta_ij (K~_i - K~_i^-1)/(v - v^-1)",
                lhs, rhs, {"i": i, "j": j}))
    for i in e_range:
        for j in e_range:
            if j <= i:
                continue
            if not adjacent(i, j):
                out.append(RelationInstance(
                    "Q6", "E_i E_j = E_j E_i (non-adjacent)",
                    _w(E(i), E(j)), _w(E(j), E(i)), {"i": i, "j": j}))
                out.append(RelationInstance(
                    "Q7", "F_i F_j = F_j F_i (non-adjacent)",
                    _w(F(i), F(j)), _w(F(j), F(i)), {"i": i, "j": j}))
    for i in e_range:
        for j in e_range:
            if i != j and adjacent(i, j):
                out.append(RelationInstance(
                    "Q8", "E-Serre relation (adjacent)",
                    _quantum_serre("E", i, j), OperatorExpr.zero(), {"i": i, "j": j}))
                out.append(RelationInstance(
                    "Q9", "F-Serre relation (adjacent)",
                    _quantum_serre("F", i, j), OperatorExpr.zero(), {"i": i, "j": j}))
    for inst in out:
        inst.name += suffix
    return out


def _suite_qaffine(n: int, r: int) -> list[RelationInstance]:
    return _q1_to_q9(
        n, r, range(1, n + 1), lambda i, j: _adjacent_affine(i, j, n), suffix=""
    )


def _suite_extended(n: int, r: int) -> list[RelationInstance]:
    out = [
        RelationInstance("Q10", "R R^-1 = 1 = R^-1 R",
                         _w(R, Rinv) + _w(Rinv, R),
                         OperatorExpr.one().scaled(2)),
    ]
    for i in range(1, n + 1):
        i1 = _barn(i + 1, n)
        out.append(RelationInstance(
            "Q11", "R^-1 K_{i+1} R = K_i",
            _w(Rinv, K(i1), R), _w(K(i)), {"i": i}))
        out.append(RelationInstance(
            "Q12", "R^-1 K_{i+1}^-1 R = K_i^-1",
            _w(Rinv, Kinv(i1), R), _w(Kinv(i)), {"i": i}))
        out.append(RelationInstance(
            "Q13", "R^-1 E_{i+1} R = E_i",
            _w(Rinv, E(i1), R), _w(E(i)), {"i": i}))
        out.append(RelationInstance(
            "Q14", "R^-1 F_{i+1} R = F_i",
            _w(Rinv, F(i1), R), _w(F(i)), {"i": i}))
    return out


def q15_instance(n: int, r: int, corrupt: bool = False) -> RelationInstance:
    """K_1 ... K_n = v^r; the corrupted variant (v^{r+1}) is a negative control."""
    e = r + 1 if corrupt else r
    return RelationInstance(
        "Q15" + ("-corrupted" if corrupt else ""),
        f"K_1 ... K_n = v^{e}",
        _w(*[K(i) for i in range(1, n + 1)]),
        OperatorExpr.one().scaled(LaurentPoly.v(e)),
    )


def q16_instance(n: int, r: int, i: int) -> RelationInstance:
    prod = OperatorExpr.one()
    for s in range(r + 1):
        prod = prod * (_w(K(i)) - OperatorExpr.one().scaled(LaurentPoly.v(s)))
    return RelationInstance(
        "Q16", "(K_i - 1)(K_i - v)...(K_i - v^r) = 0",
        prod, OperatorExpr.zero(), {"i": i})


def _suite_schur_presentation(n: int, r: int) -> list[RelationInstance]:
    return [q15_instance(n, r)] + [q16_instance(n, r, i) for i in range(1, n + 1)]


def _suite_finite_schur(n: int, r: int) -> list[RelationInstance]:
    out = _q1_to_q9(
        n, r, range(1, n), lambda i, j: abs(i - j) == 1, suffix="f"
    )
    q15 = q15_instance(n, r)
    q15.name = "Q15f"
    out.append(q15)
    for i in range(1, n + 1):
        q16 = q16_instance(n, r, i)
        q16.name = "Q16f"
        out.append(q16)
    return out


def _suite_q17_19(n: int, r: int) -> list[SchurRelationInstance]:
    om = omega(n, r)
    e = AffinePerm.identity(r)
    out: list[SchurRelationInstance] = []
    weights = all_weights(n, r)
    for lam in weights:
        for mu in weights:
            lhs = SchurElement.basis(SchurBasisIndex(om, lam, e)) * SchurElement.basis(
                SchurBasisIndex(mu, om, e)
            )
            if lam == mu:
                rhs = SchurElement(n, r, {
                    SchurBasisIndex(om, om, d): LaurentPoly.one()
                    for d in _young_elements(lam)
                })
            else:
                rhs = SchurElement.zero(n, r)
            out.append(SchurRelationInstance(
                "Q17", "phi^1_{omega,lam} phi^1_{mu,omega} = delta sum_{d in W_lam} phi^d",
                lhs, rhs, {"lam": lam.render(), "mu": mu.render()}))
    for lam in weights:
        philam = SchurElement.basis(SchurBasisIndex(om, lam, e))
        lamphi = SchurElement.basis(SchurBasisIndex(lam, om, e))
        for i in sorted(young_parabolic(lam).gens):
            phis = SchurElement.basis(SchurBasisIndex(om, om, AffinePerm.s(r, i)))
            out.append(SchurRelationInstance(
                "Q18", "phi^s phi^1_{omega,lam} = q phi^1_{omega,lam}",
                phis * philam, philam.scaled(_Q), {"lam": lam.render(), "i": i}))
            out.append(SchurRelationInstance(
                "Q19", "phi^1_{lam,omega} phi^s = q phi^1_{lam,omega}",
                lamphi * phis, lamphi.scaled(_Q), {"lam": lam.render(), "i": i}))
    return out


def _young_elements(lam: Weight) -> list[AffinePerm]:
    from .aweyl import enumerate_parabolic

    return sorted(enumerate_parabolic(young_parabolic(lam)),
                  key=lambda w: (w.length(), w.window))


def _suite_hecke_tau(n: int, r: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    qm1 = _Q - 1
    for variant in ("with-R", "R-free"):
        tag = "tau" if variant == "with-R" else "tau'"
        ts = {i: tau(n, r, f"s{i}", variant) for i in range(1, r + 1)}
        trho = tau(n, r, "rho", variant)
        trhoi = tau(n, r, "rho-inv", variant)
        for i in range(1, r + 1):
            out.append(RelationInstance(
                f"{tag}-quadratic", "tau(s_i)^2 = (q-1) tau(s_i) + q",
                ts[i] * ts[i],
                ts[i].scaled(qm1) + OperatorExpr.one().scaled(_Q),
                {"i": i, "variant": variant}, basis="omega"))
        for i in range(1, r):
            for j in range(i + 1, r):
                if j - i > 1:
                    out.append(RelationInstance(
                        f"{tag}-commute", "tau(s_i) tau(s_j) = tau(s_j) tau(s_i), |i-j|>1",
                        ts[i] * ts[j], ts[j] * ts[i],
                        {"i": i, "j": j, "variant": variant}, basis="omega"))
                elif j - i == 1 and j <= r - 1:
                    out.append(RelationInstance(
                        f"{tag}-braid", "tau braid relation, |i-j|=1",
                        ts[i] * ts[j] * ts[i], ts[j] * ts[i] * ts[j],
                        {"i": i, "j": j, "variant": variant}, basis="omega"))
        for i in range(1, r - 1):
            out.append(RelationInstance(
                f"{tag}-rotate", "tau(rho) tau(s_{i+1}) = tau(s_i) tau(rho)",
                trho * ts[i + 1], ts[i] * trho,
                {"i": i, "variant": variant}, basis="omega"))
        rho_r = OperatorExpr.one()
        for _ in range(r):
            rho_r = rho_r * trho
        for i in range(1, r):
            out.append(RelationInstance(
                f"{tag}-period", "tau(rho)^r commutes with tau(s_i)",
                rho_r * ts[i], ts[i] * rho_r,
                {"i": i, "variant": variant}, basis="omega"))
        out.append(RelationInstance(
            f"{tag}-inverse", "tau(rho) tau(rho^-1) = id = tau(rho^-1) tau(rho)",
            trho * trhoi + trhoi * trho, OperatorExpr.one().scaled(2),
            {"variant": variant}, basis="omega"))
    out.append(RelationInstance(
        "tau-R-chain", "R agrees with F_1 F_2 ... F_r on the omega space",
        _w(R), _w(*chain("F", range(1, r + 1))), {}, basis="omega"))
    out.append(RelationInstance(
        "tau-Rinv-chain", "R^-1 agrees with (E_{r-1} ... E_1) E_n on the omega space",
        _w(Rinv), _w(*(chain("E", range(r - 1, 0, -1)) + [E(n)])), {}, basis="omega"))
    for name in ("rho", "rho-inv", f"s{r}"):
        out.append(RelationInstance(
            "tau-variants-agree", "with-R and R-free variants agree on the omega space",
            tau(n, r, name, "with-R"), tau(n, r, name, "R-free"),
            {"element": name}, basis="omega"))
    return out


def _suite_idempotented(n: int, r: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    weights = all_weights(n, r)
    for a, lam in enumerate(weights):
        for mu in weights[a:]:
            rhs = projector(lam) if lam == mu else OperatorExpr.zero()
            out.append(RelationInstance(
                "R1", "1_lam 1_mu = delta 1_lam",
                _w(P(lam), P(mu)), rhs,
                {"lam": lam.render(), "mu": mu.render()}))
    total = OperatorExpr.zero()
    for lam in weights:
        total = total + projector(lam)
    out.append(RelationInstance(
        "R1-sum", "sum of all 1_lam = 1", total, OperatorExpr.one()))
    for i in range(1, n + 1):
        for lam in weights:
            out.append(RelationInstance(
                "R2", "E_i 1_lam = 1_{lam+alpha_i} E_i if lam_{i+1}>0 else 0",
                _w(E(i), P(lam)), commute_projector("E", i, lam),
                {"i": i, "lam": lam.render()}))
            out.append(RelationInstance(
                "R3", "F_i 1_lam = 1_{lam-alpha_i} F_i if lam_i>0 else 0",
                _w(F(i), P(lam)), commute_projector("F", i, lam),
                {"i": i, "lam": lam.render()}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = _commutator_rhs(n, r, j, classical=False) if i == j else OperatorExpr.zero()
            out.append(RelationInstance(
                "R4", "E_i F_j - F_j E_i = delta_ij sum [lam_j - lam_{j+1}] 1_lam",
                _w(E(i), F(j)) - _w(F(j), E(i)), rhs, {"i": i, "j": j}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and _adjacent_affine(i, j, n):
                out.append(RelationInstance(
                    "R-serre-E", "E-Serre relation (adjacent)",
                    _quantum_serre("E", i, j), OperatorExpr.zero(), {"i": i, "j": j}))
                out.append(RelationInstance(
                    "R-serre-F", "F-Serre relation (adjacent)",
                    _quantum_serre("F", i, j), OperatorExpr.zero(), {"i": i, "j": j}))
            elif i < j and not _adjacent_affine(i, j, n):
                out.append(RelationInstance(
                    "R-commute-E", "E_i E_j = E_j E_i (non-adjacent)",
                    _w(E(i), E(j)), _w(E(j), E(i)), {"i": i, "j": j}))
                out.append(RelationInstance(
                    "R-commute-F", "F_i F_j = F_j F_i (non-adjacent)",
                    _w(F(i), F(j)), _w(F(j), F(i)), {"i": i, "j": j}))
    return out


def _suite_zeta(n: int, r: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    om = omega(n, r)
    zs = {i: zeta(n, r, f"s{i}") for i in range(1, r)}
    zsr = zeta(n, r, f"s{r}")
    zrho = zeta(n, r, "rho")
    zrhoi = zeta(n, r, "rho-inv")
    out.append(RelationInstance(
        "zeta-rho-inv-rewrite",
        "zeta(rho^-1) = F_n (F_1...F_{r-1}) (F_{n-1}...F_r) 1_omega",
        zrhoi,
        _w(*([F(n)] + chain("F", range(1, r)) + chain("F", range(n - 1, r - 1, -1)) + [P(om)]))))
    out.append(RelationInstance(
        "zeta-rho-rewrite",
        "zeta(rho) = (E_r...E_1) (E_{r+1}...E_n) 1_omega",
        zrho,
        _w(*(chain("E", range(r, 0, -1)) + chain("E", range(r + 1, n + 1)) + [P(om)]))))
    out.append(RelationInstance(
        "zeta-inverse-left", "zeta(rho^-1) zeta(rho) = 1_omega",
        zrhoi * zrho, projector(om)))
    out.append(RelationInstance(
        "zeta-inverse-right", "zeta(rho) zeta(rho^-1) = 1_omega",
        zrho * zrhoi, projector(om)))
    m_word = chain("E", range(r - 1, 0, -1)) + chain("E", range(r + 1, n + 1)) + [P(om)]
    m_expr = _w(*m_word)
    for i in range(2, r):
        lhs = (_w(F(i - 1), E(i - 1)).scaled(_V) - OperatorExpr.one()) * m_expr
        rhs = m_expr * (_w(F(i), E(i)).scaled(_V) - OperatorExpr.one())
        out.append(RelationInstance(
            "zeta-intertwine", "(v F_{i-1} E_{i-1} - 1) M = M (v F_i E_i - 1)",
            lhs, rhs, {"i": i}))
    for i in range(2, r):
        out.append(RelationInstance(
            "zeta-rotate", "zeta(s_{i-1}) zeta(rho) = zeta(rho) zeta(s_i)",
            zs[i - 1] * zrho, zrho * zs[i], {"i": i}))
    for i in range(1, r):
        out.append(RelationInstance(
            "zeta-ef-swap", "(v F_i E_i - 1) 1_omega = (v E_i F_i - 1) 1_omega",
            zs[i],
            _w(E(i), F(i), P(om)).scaled(_V) - projector(om),
            {"i": i}))
    ef_chain = chain("E", range(r, n + 1)) + chain("F", range(n, r - 1, -1))
    out.append(RelationInstance(
        "zeta-boundary-swap",
        "1_omega (v F_n...F_r E_r...E_n - 1) = 1_omega (v E_r...E_n F_n...F_r - 1)",
        zsr,
        OperatorExpr.word([P(om)] + ef_chain, _V) - projector(om)))
    out.append(RelationInstance(
        "zeta-en-transport", "(E_n F_n - v) E_1 E_n 1_omega = E_1 E_n (E_1 F_1 - v) 1_omega",
        (_w(E(n), F(n)) - OperatorExpr.one().scaled(_V)) * _w(E(1), E(n), P(om)),
        _w(E(1), E(n)) * (_w(E(1), F(1)) - OperatorExpr.one().scaled(_V)) * projector(om)))
    e_desc = chain("E", range(r, 0, -1))
    out.append(RelationInstance(
        "zeta-chain-transport",
        "1_om (F_{r-1} E_{r-1} - v^-1) E_r...E_1 = 1_om E_r...E_1 (F_r E_r - v^-1)",
        (projector(om) * (_w(F(r - 1), E(r - 1)) - OperatorExpr.one().scaled(_V.bar()))
         * _w(*e_desc)),
        (projector(om) * _w(*e_desc)
         * (_w(F(r), E(r)) - OperatorExpr.one().scaled(_V.bar())))))
    out.append(RelationInstance(
        "zeta-rot-sr-left", "zeta(rho) zeta(s_r) = zeta(s_{r-1}) zeta(rho)",
        zrho * zsr, (zs[r - 1] if r - 1 >= 1 else zsr) * zrho))
    out.append(RelationInstance(
        "zeta-rot-sr-right", "zeta(rho) zeta(s_1) = zeta(s_r) zeta(rho)",
        zrho * zs[1], zsr * zrho))
    return out


def _suite_classical(n: int, r: int) -> list[RelationInstance]:
    from .operators import cH, ce, cf

    out: list[RelationInstance] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(RelationInstance(
                "q1", "H_i H_j = H_j H_i",
                _w(cH(i), cH(j)), _w(cH(j), cH(i)), {"i": i, "j": j}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append(RelationInstance(
                "q2", "H_i e_j - e_j H_i = eps+(i,j) e_j",
                _w(cH(i), ce(j)) - _w(ce(j), cH(i)),
                OperatorExpr.word([ce(j)], _eps_plus(i, j, n)), {"i": i, "j": j}))
            out.append(RelationInstance(
                "q3", "H_i f_j - f_j H_i = eps-(i,j) f_j",
                _w(cH(i), cf(j)) - _w(cf(j), cH(i)),
                OperatorExpr.word([cf(j)], _eps_minus(i, j, n)), {"i": i, "j": j}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = (_w(cH(j)) - _w(cH(_barn(j + 1, n)))) if i == j else OperatorExpr.zero()
            out.append(RelationInstance(
                "q4", "e_i f_j - f_j e_i = delta_ij (H_j - H_{j+1})",
                _w(ce(i), cf(j)) - _w(cf(j), ce(i)), rhs, {"i": i, "j": j}))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not _adjacent_affine(i, j, n):
                out.append(RelationInstance(
                    "q5", "e_i e_j = e_j e_i (non-adjacent)",
                    _w(ce(i), ce(j)), _w(ce(j), ce(i)), {"i": i, "j": j}))
                out.append(RelationInstance(
                    "q6", "f_i f_j = f_j f_i (non-adjacent)",
                    _w(cf(i), cf(j)), _w(cf(j), cf(i)), {"i": i, "j": j}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and _adjacent_affine(i, j, n):
                out.append(RelationInstance(
                    "q7", "classical E-Serre relation",
                    _classical_serre("e", i, j), OperatorExpr.zero(), {"i": i, "j": j}))
                out.append(RelationInstance(
                    "q8", "classical F-Serre relation",
                    _classical_serre("f", i, j), OperatorExpr.zero(), {"i": i, "j": j}))
    total = OperatorExpr.zero()
    for i in range(1, n + 1):
        total = total + _w(cH(i))
    out.append(RelationInstance(
        "q9", "H_1 + ... + H_n = r", total, OperatorExpr.one().scaled(r)))
    for i in range(1, n + 1):
        prod = OperatorExpr.one()
        for s in range(r + 1):
            prod = prod * (_w(cH(i)) - OperatorExpr.one().scaled(s))
        out.append(RelationInstance(
            "q10", "H_i (H_i - 1) ... (H_i - r) = 0",
            prod, OperatorExpr.zero(), {"i": i}))
    weights = all_weights(n, r)
    for a, lam in enumerate(weights):
        for mu in weights[a:]:
            rhs = projector(lam) if lam == mu else OperatorExpr.zero()
            out.append(RelationInstance(
                "r1", "i_lam i_mu = delta i_lam",
                _w(P(lam), P(mu)), rhs,
                {"lam": lam.render(), "mu": mu.render()}))
    for i in range(1, n + 1):
        for lam in weights:
            up = lam.plus_alpha(i, 1)
            rhs = _w(P(up), ce(i)) if up is not None else OperatorExpr.zero()
            out.append(RelationInstance(
                "r2", "e_i i_lam = i_{lam+alpha_i} e_i if lam_{i+1}>0 else 0",
                _w(ce(i), P(lam)), rhs, {"i": i, "lam": lam.render()}))
            down = lam.plus_alpha(i, -1)
            rhs = _w(P(down), cf(i)) if down is not None else OperatorExpr.zero()
            out.append(RelationInstance(
                "r3", "f_i i_lam = i_{lam-alpha_i} f_i if lam_i>0 else 0",
                _w(cf(i), P(lam)), rhs, {"i": i, "lam": lam.render()}))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = _commutator_rhs(n, r, j, classical=True) if i == j else OperatorExpr.zero()
            out.append(RelationInstance(
                "r4", "e_i f_j - f_j e_i = delta_ij sum (lam_j - lam_{j+1}) i_lam",
                _w(ce(i), cf(j)) - _w(cf(j), ce(i)), rhs, {"i": i, "j": j}))
    return out


# -- automorphisms -------------------------------------------------------------------


def rotate_aut(n: int, x: OperatorExpr) -> OperatorExpr:
    """The index-rotation automorphism: E_i -> E_{i+1}, 1_lam -> 1_{lam+}."""
    out: dict[Word, LaurentPoly] = {}
    for word, c in x.terms.items():
        new = []
        for s in word:
            if s.kind in ("E", "F", "K", "Kinv", "e", "f", "H"):
                new.append(Sym(s.kind, _barn(s.index + 1, n)))
            elif s.kind == "P":
                new.append(P(s.weight.rotated()))
            else:
                new.append(s)
        key = tuple(new)
        acc = out.get(key, LaurentPoly.zero()) + c
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc
    return OperatorExpr(out)


def sigma_antiaut(x: OperatorExpr) -> OperatorExpr:
    """Reverse words and swap E_i <-> F_i; fixes K and projectors.

    Rejects words containing R or R^-1 (the swap is defined without them).
    """
    out: dict[Word, LaurentPoly] = {}
    swap = {"E": "F", "F": "E", "e": "f", "f": "e"}
    for word, c in x.terms.items():
        new = []
        for s in reversed(word):
            if s.kind in ("R", "Rinv"):
                raise ValueError("sigma is not defined on words containing R")
            if s.kind in swap:
                new.append(Sym(swap[s.kind], s.index))
            else:
                new.append(s)
        key = tuple(new)
        acc = out.get(key, LaurentPoly.zero()) + c
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc
    return OperatorExpr(out)


# -- idempotent commutation and cancellation -------------------------------------------


def commute_projector(kind: str, i: int, lam: Weight) -> OperatorExpr:
    """Rewrite E_i 1_lam (or F_i 1_lam) with the projector on the left.

    >>> commute_projector("E", 1, Weight((1, 1, 0))).render()
    '(1)*P(2,0,0) E1'
    """
    if kind == "E":
        up = lam.plus_alpha(i, 1)
        return _w(P(up), E(i)) if up is not None else OperatorExpr.zero()
    if kind == "F":
        down = lam.plus_alpha(i, -1)
        return _w(P(down), F(i)) if down is not None else OperatorExpr.zero()
    raise ValueError("kind must be 'E' or 'F'")


def cancellation(lam: Weight, i: int, c: int, direction: str) -> LaurentPoly:
    """The cancellation scalar z with F_i^c E_i^c 1_lam = z 1_lam (or mirror).

    direction 'FE' requires lam_i = 0 and returns ([c]!)^2 [lam_{i+1} choose c];
    direction 'EF' requires lam_{i+1} = 0 and returns ([c]!)^2 [lam_i choose c].
    Both vanish exactly when the threshold fails.

    >>> cancellation(Weight((0, 1, 1)), 1, 1, "FE").render()
    '1'
    """
    if c < 1:
        raise ValueError("c must be positive")
    if direction == "FE":
        if lam.entry(i) != 0:
            raise ValueError("FE cancellation requires lam_i = 0")
        m = lam.entry(i + 1)
    elif direction == "EF":
        if lam.entry(i + 1) != 0:
            raise ValueError("EF cancellation requires lam_{i+1} = 0")
        m = lam.entry(i)
    else:
        raise ValueError("direction must be 'FE' or 'EF'")
    fact = quantum_fact(c)
    return fact * fact * gauss_binom(m, c)


def cancellation_word(lam: Weight, i: int, c: int, direction: str) -> OperatorExpr:
    """The operator word F_i^c E_i^c 1_lam (or E_i^c F_i^c 1_lam)."""
    if direction == "FE":
        syms = power(F(i), c) + power(E(i), c) + [P(lam)]
    else:
        syms = power(E(i), c) + power(F(i), c) + [P(lam)]
    return _w(*syms)


# -- distinguished monomials -------------------------------------------------------------


@dataclass(frozen=True)
class DistTerm:
    kind: str  # 'E', 'F', or 'P' (bare idempotent, c = 0)
    index: int
    c: int
    weight: tuple[int, ...]  # weight of the term's own idempotent (on its right)

    def render(self) -> str:
        head = f"{self.kind}{self.index}^{self.c} " if self.c else ""
        return f"{head}P({','.join(map(str, self.weight))})"


@dataclass
class AnalyzeResult:
    is_strictly_distinguished: bool
    is_distinguished: bool
    parse: tuple[DistTerm, ...] | None
    strict_form: Word | None
    nonzero: bool
    reason: str = ""


def _entry(parts: tuple[int, ...], i: int) -> int:
    return parts[(i - 1) % len(parts)]


def _plus_alpha(parts: tuple[int, ...], i: int, c: int) -> tuple[int, ...]:
    n = len(parts)
    out = list(parts)
    out[(i - 1) % n] += c
    out[i % n] -= c
    return tuple(out)


def distinguished_analyze(word: Word) -> AnalyzeResult:
    """Parse a word over E/F/projector symbols into distinguished terms.

    A distinguished term is E_i^c 1_lam with lam_i = 0, or F_i^c 1_lam with
    lam_{i+1} = 0 (c >= 0).  A word parses strictly when every term boundary
    carries an explicit projector; omitting interior projectors gives a
    reduction, which this routine re-completes (the inserted weights are
    forced by the anchor projector).  The nonzero verdict chains the term
    thresholds; it agrees with operator evaluation on a window.
    """
    syms = tuple(word)
    if not syms:
        return AnalyzeResult(False, False, None, None, False, "empty word")
    for s in syms:
        if s.kind not in ("E", "F", "P"):
            return AnalyzeResult(False, False, None, None, False,
                                 f"symbol {s.render()} outside the E/F/projector alphabet")
    if syms[-1].kind != "P":
        return AnalyzeResult(False, False, None, None, False,
                             "word does not end with a projector")

    weight = syms[-1].weight.parts
    terms: list[DistTerm] = []
    strict: list[Sym] = [P(Weight(weight))]
    pending: tuple[str, int] | None = None
    pending_count = 0
    strictly = True
    nonzero = True

    def close_run() -> str:
        nonlocal weight, pending, pending_count, nonzero
        if pending is None:
            return ""
        kind, idx = pending
        if kind == "E":
            if _entry(weight, idx) != 0:
                return f"E{idx} run needs weight entry {idx} = 0 at {weight}"
            if _entry(weight, idx + 1) < pending_count:
                nonzero = False
            nxt = _plus_alpha(weight, idx, pending_count)
        else:
            if _entry(weight, idx + 1) != 0:
                return f"F{idx} run needs weight entry {idx + 1} = 0 at {weight}"
            if _entry(weight, idx) < pending_count:
                nonzero = False
            nxt = _plus_alpha(weight, idx, -pending_count)
        terms.append(DistTerm(kind, idx, pending_count, weight))
        strict.extend([Sym(kind, idx)] * pending_count)
        weight = nxt
        pending = None
        pending_count = 0
        return ""

    for s in reversed(syms[:-1]):
        if s.kind == "P":
            err = close_run()
            if err:
                return AnalyzeResult(False, False, None, None, False, err)
            if s.weight.parts != weight:
                return AnalyzeResult(
                    False, False, None, None, False,
                    f"projector {s.weight.render()} does not match the running weight {weight}")
            strict.append(P(s.weight))
        else:
            if pending is not None and pending != (s.kind, s.index):
                err = close_run()
                if err:
                    return AnalyzeResult(False, False, None, None, False, err)
                strictly = False
                if min(weight) >= 0:
                    strict.append(P(Weight(weight)))
            if pending is None:
                pending = (s.kind, s.index)
            pending_count += 1
    err = close_run()
    if err:
        return AnalyzeResult(False, False, None, None, False, err)

    if not terms:
        terms.append(DistTerm("P", 0, 0, syms[-1].weight.parts))
    strict_ok = all(
        min(t.weight) >= 0 for t in terms
    ) and min(weight) >= 0
    strict_word = tuple(reversed(strict)) if strict_ok else None
    return AnalyzeResult(
        strictly, True, tuple(reversed(terms)), strict_word, nonzero,
        "" if nonzero else "a term fails its nonvanishing threshold")


# -- zeta elements ----------------------------------------------------------------------


def zeta(n: int, r: int, name: str) -> OperatorExpr:
    """The omega-anchored images of the Hecke generators.

    zeta(s_i) = (v F_i E_i - 1) 1_omega for 1 <= i < r,
    zeta(rho^-1) = (F_n...F_{r+1})(F_1...F_r) 1_omega,
    zeta(rho) = (E_r...E_{n-1})(E_{r-1}...E_1) E_n 1_omega,
    zeta(s_r) = 1_omega (v F_n...F_r E_r...E_n - 1).
    """
    if n <= r:
        raise ValueError("zeta elements require n > r")
    om = omega(n, r)
    if name == "rho":
        syms = chain("E", range(r, n)) + chain("E", range(r - 1, 0, -1)) + [E(n), P(om)]
        return _w(*syms)
    if name == "rho-inv":
        syms = chain("F", range(n, r, -1)) + chain("F", range(1, r + 1)) + [P(om)]
        return _w(*syms)
    if name.startswith("s"):
        i = int(name[1:])
        if 1 <= i < r:
            return _w(F(i), E(i), P(om)).scaled(_V) - projector(om)
        if i == r:
            syms = [P(om)] + chain("F", range(n, r - 1, -1)) + chain("E", range(r, n + 1))
            return OperatorExpr.word(syms, _V) - projector(om)
    raise ValueError(f"unknown zeta element {name!r}")


# -- the constructive monomials ---------------------------------------------------------


def mu_from_lambda(lam: Weight) -> Weight:
    """The front-sorted companion of lambda: nonzero parts first, in order.

    >>> mu_from_lambda(Weight((2, 0, 0, 3, 0, 0, 0, 0, 2))).parts
    (2, 3, 2, 0, 0, 0, 0, 0, 0)
    """
    nz = [p for p in lam.parts if p > 0]
    return Weight(tuple(nz) + (0,) * (lam.n - len(nz)))


def nu_from_mu(mu: Weight) -> Weight:
    """Spread the parts of mu to the start of each segment.

    nu_a = mu_{i+1} at a = 1 + mu_1 + ... + mu_i (0 <= i < r), zero elsewhere.

    >>> nu_from_mu(Weight((2, 3, 2, 0, 0, 0, 0, 0, 0))).parts
    (2, 0, 3, 0, 0, 2, 0, 0, 0)
    """
    n, r = mu.n, mu.r
    parts = [0] * n
    acc = 0
    for i in range(r):
        a = 1 + acc
        val = mu.parts[i] if i < n else 0
        if a <= n:
            parts[a - 1] = val
        acc += val
    return Weight(tuple(parts))


def build_M1(lam: Weight) -> tuple[OperatorExpr, Weight]:
    """Bubble interior zeros of lambda to the right with E-moves.

    Returns (M1, mu) with M1 = 1_mu (word in E_2..E_{n-1}) 1_lam.
    """
    if lam.parts[0] <= 0:
        raise ValueError("requires lambda_1 > 0")
    cur = list(lam.parts)
    n = lam.n
    steps: list[tuple[int, int]] = []
    while True:
        for i in range(2, n):
            if cur[i - 1] == 0 and cur[i] > 0:
                c = cur[i]
                steps.append((i, c))
                cur[i - 1], cur[i] = c, 0
                break
        else:
            break
    mu = Weight(tuple(cur))
    syms: list[Sym] = [P(mu)]
    for i, c in reversed(steps):
        syms.extend(power(E(i), c))
    syms.append(P(lam))
    return _w(*syms), mu


def build_M2(mu: Weight) -> tuple[OperatorExpr, Weight]:
    """Spread the blocks of mu rightward with F-moves, rightmost block first.

    Returns (M2, nu) with M2 = 1_nu (word in F_2..F_{n-2}) 1_mu.
    """
    nu = nu_from_mu(mu)
    k = sum(1 for p in mu.parts if p > 0)
    targets = [a + 1 for a, p in enumerate(nu.parts) if p > 0]
    apps: list[tuple[int, int]] = []  # rightmost block travels first
    for b in range(k, 1, -1):
        c = mu.parts[b - 1]
        for q in range(b, targets[b - 1]):
            apps.append((q, c))
    syms: list[Sym] = [P(nu)]
    for q, c in reversed(apps):
        syms.extend(power(F(q), c))
    syms.append(P(mu))
    return _w(*syms), nu


def build_M3(nu: Weight) -> OperatorExpr:
    """Flatten each segment (c, 0^(c-1)) of nu to ones with F-moves.

    Returns M3 = 1_omega (word in F_1..F_{n-2}) 1_nu.
    """
    n, r = nu.n, nu.r
    om = omega(n, r)
    syms: list[Sym] = [P(om)]
    for a, c in enumerate(nu.parts, start=1):
        if c <= 1:
            continue
        for idx in range(a + c - 2, a - 1, -1):
            syms.extend(power(F(idx), a + c - 1 - idx))
    syms.append(P(nu))
    return _w(*syms)


def build_M(lam: Weight) -> OperatorExpr:
    """The full transport monomial M = 1_om M3 1_nu M2 1_mu M1 1_lam."""
    m1, mu = build_M1(lam)
    m2, nu = build_M2(mu)
    m3 = build_M3(nu)
    ((w3, c3),) = m3.terms.items()
    ((w2, c2),) = m2.terms.items()
    ((w1, c1),) = m1.terms.items()
    word: list[Sym] = []
    for sym in w3 + w2[1:] + w1[1:]:
        if word and sym.kind == "P" == word[-1].kind and sym.weight == word[-1].weight:
            continue
        word.append(sym)
    return OperatorExpr.word(word, c3 * c2 * c1)


def m_word_conditions(lam: Weight, m: OperatorExpr) -> dict[str, bool]:
    """The word-level requirements on the transport monomial."""
    ((word, _),) = m.terms.items()
    n = lam.n
    gens = [s for s in word if s.kind != "P"]
    banned = {("E", n), ("F", n), ("E", 1), ("F", n - 1)}
    cond_ii = all((s.kind, s.index) not in banned for s in gens)

    def consecutive(kind: str, index: int) -> bool:
        hits = [k for k, s in enumerate(gens) if (s.kind, s.index) == (kind, index)]
        return not hits or hits[-1] - hits[0] + 1 == len(hits)

    f1_count = sum(1 for s in gens if (s.kind, s.index) == ("F", 1))
    return {
        "no_banned_generators": cond_ii,
        "f1_consecutive": consecutive("F", 1),
        "en1_consecutive": consecutive("E", n - 1),
        "f1_count_ok": f1_count <= lam.parts[0] - 1,
    }


# -- the E_n factorization ----------------------------------------------------------------


@dataclass
class ScalarFraction:
    """An exact scalar num/den in the Laurent ring."""

    num: LaurentPoly
    den: LaurentPoly

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def simplified(self) -> "ScalarFraction":
        try:
            return ScalarFraction(self.num.exact_div(self.den), LaurentPoly.one())
        except (ValueError, ZeroDivisionError):
            return self


@dataclass
class FactorEnResult:
    z: ScalarFraction
    m: OperatorExpr
    holds: bool
    window: str


def factor_En(n: int, r: int, lam: Weight, lo: int | None = None, hi: int | None = None) -> FactorEnResult:
    """Factor E_n 1_lam = z * sigma(W) E_n M on the lambda weight space,
    where M is the transport monomial and W its projector-stripped word.

    The antiautomorphism is applied to the bare generator word (the
    projector-decorated form would be annihilated by the weight shift of
    the middle E_n).  z is returned as an exact ratio and the identity is
    verified by cross-multiplication on every window vector.
    """
    if lam.parts[0] <= 0:
        raise ValueError("requires lambda_1 > 0")
    if n <= r:
        raise ValueError("requires n > r")
    m = build_M(lam)
    ((m_word, m_coeff),) = m.terms.items()
    bare = tuple(s for s in m_word if s.kind != "P")
    sigma_bare = tuple(
        Sym("F" if s.kind == "E" else "E", s.index) for s in reversed(bare)
    )
    rhs = OperatorExpr.word(sigma_bare + (E(n),) + m_word, m_coeff)
    lhs = _w(E(n), P(lam))
    lo = 1 if lo is None else lo
    hi = n if hi is None else hi
    vectors = weight_space_basis(n, lam, lo, hi)
    window = f"lambda weight space, indices in [{lo},{hi}]"
    num: LaurentPoly | None = None
    den: LaurentPoly | None = None
    pairs = []
    for b in vectors:
        lv = act_expr_basis(n, lhs, b)
        rv = act_expr_basis(n, rhs, b)
        pairs.append((lv, rv))
        if num is None and rv:
            key = sorted(rv)[0]
            num = lv.get(key, LaurentPoly.zero())
            den = rv[key]
    if num is None or num.is_zero():
        return FactorEnResult(ScalarFraction(LaurentPoly.zero(), LaurentPoly.one()), m, False, window)
    holds = True
    for lv, rv in pairs:
        keys = set(lv) | set(rv)
        for k in keys:
            left = lv.get(k, LaurentPoly.zero()) * den
            right = rv.get(k, LaurentPoly.zero()) * num
            if left != right:
                holds = False
                break
        if not holds:
            break
    return FactorEnResult(ScalarFraction(num, den).simplified(), m, holds, window)
