"""The affine q-Schur algebra on the phi basis.

Basis symbols phi^d_{lambda,mu} are indexed by pairs of weights and a
minimal-length double coset representative d.  The defining data is the
Hecke element

    phi^d_{lambda,mu}(x_mu) = sum of T_w over the double coset
                              S_lambda * d * S_mu
                            = x_lambda * h,

with h, the right generator, the sum of T_b over the distinguished
members b of the coset (those minimal in S_lambda b; `aweyl`).  So
phi_A phi_B (x_nu) = x_lambda h_A h_B lies in the right module
x_lambda H, whose basis is x_lambda T_b over the b in D_lambda, and a
product is computed there: x_lambda T_b for the members of h_A, folded
along the tree of the members of h_B by Deodhar's three cases
(`hecke.fold_tree`), a state |S_lambda| times smaller than the coset
sum.  The value is re-expanded on distinguished members: phi^d
contributes its coefficient to each distinguished member of its coset
and to nothing else.  The expansion reads each coefficient off the
minimal member of its double coset and removes all its members at once;
a value that is not such a combination is an internal error and raises.
`phi_value`, the Hecke product and the expansion on whole cosets stay as
the independent route that the tests compare with.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .aweyl import (
    AffinePerm,
    _shared,
    _trusted,
    distinguished_members,
    distinguished_tree,
    double_coset_min,
    enumerate_double_coset,
    is_double_coset_min,
    left_slots,
    rho_conjugate,
)
from .hecke import HeckeElement, fold_tree, young_parabolic
from .ring import ONE, Combination, LaurentPoly, add_term
from .weights import Weight, all_weights, omega


class BasisExpansionError(RuntimeError):
    """The value is not a combination of double-coset sums."""


@dataclass(frozen=True)
class SchurBasisIndex:
    """(lambda, mu, d) with d minimal in S_lambda d S_mu."""

    lam: Weight
    mu: Weight
    d: AffinePerm

    def __post_init__(self):
        if self.lam.n != self.mu.n or self.lam.r != self.mu.r:
            raise ValueError("weights must share (n, r)")
        if self.lam.r != self.d.r:
            raise ValueError("permutation period must equal r")
        if not is_double_coset_min(self.d, young_parabolic(self.lam), young_parabolic(self.mu)):
            raise ValueError("d is not minimal in its double coset")

    @classmethod
    def make(cls, lam: Weight, mu: Weight, d: AffinePerm) -> SchurBasisIndex:
        """Build with d replaced by the minimal representative of its coset."""
        dmin = double_coset_min(d, young_parabolic(lam), young_parabolic(mu))
        return cls(lam, mu, dmin)

    @classmethod
    def _trusted(cls, lam: Weight, mu: Weight, d: AffinePerm) -> SchurBasisIndex:
        """The index for a d its caller has checked: the frozen fields are
        set directly and __post_init__ is not run."""
        idx = object.__new__(cls)
        fields = idx.__dict__
        fields["lam"] = lam
        fields["mu"] = mu
        fields["d"] = d
        return idx

    def render(self) -> str:
        return f"phi[{self.lam.render()} | {self.d.render()} | {self.mu.render()}]"


@lru_cache(maxsize=None)
def _space(n: int, r: int) -> tuple[int, int]:
    """One shared (n, r) tuple per space, so that the thousands of elements
    a q17-19 build holds at once do not each hold a tuple of their own."""
    return (n, r)


class SchurElement(Combination):
    """A finite map from SchurBasisIndex to LaurentPoly, in the space (n, r)."""

    __slots__ = ()

    def __init__(self, n: int, r: int, terms: dict[SchurBasisIndex, LaurentPoly] | None = None):
        if terms:
            for k in terms:
                if k.lam.n != n or k.lam.r != r:
                    raise ValueError("index does not match (n, r)")
        Combination.__init__(self, _space(n, r), terms)

    @property
    def n(self) -> int:
        return self.space[0]

    @property
    def r(self) -> int:
        return self.space[1]

    @classmethod
    def basis(cls, idx: SchurBasisIndex) -> SchurElement:
        return cls(idx.lam.n, idx.lam.r, {idx: LaurentPoly.one()})

    def support(self) -> list[SchurBasisIndex]:
        return sorted(
            self.terms,
            key=lambda k: (k.lam.parts, k.mu.parts, k.d.length(), k.d.z, k.d.window),
        )

    # -- multiplication -----------------------------------------------------------

    def __mul__(self, other: SchurElement) -> SchurElement:
        self._check_space(other)
        out: dict[SchurBasisIndex, LaurentPoly] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1.mu != k2.lam:
                    continue
                c = c1 * c2
                unit = c.is_one()
                for k, x in _mul_basis(k1, k2).terms.items():
                    add_term(out, k, x if unit else x * c)
        return self._like(out)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[k].render()}) * {k.render()}" for k in self.support()
        )

    def structured(self) -> list[dict]:
        return [
            {
                "lambda": list(k.lam.parts),
                "mu": list(k.mu.parts),
                "d": k.d.structured(),
                "coeff": self.terms[k].structured(),
            }
            for k in self.support()
        ]


def phi_value(idx: SchurBasisIndex) -> HeckeElement:
    """The Hecke element phi^d_{lambda,mu}(x_mu): the double-coset sum.

    >>> from .aweyl import AffinePerm
    >>> w = Weight((2, 0, 0)); om = Weight((1, 1, 0))
    >>> idx = SchurBasisIndex(w, w, AffinePerm.identity(2))
    >>> sorted(t.length() for t in phi_value(idx).terms)
    [0, 1]
    """
    coset = enumerate_double_coset(
        young_parabolic(idx.lam), idx.d, young_parabolic(idx.mu)
    )
    return HeckeElement(idx.d.r, dict.fromkeys(coset, ONE))


def _mul_basis(k1: SchurBasisIndex, k2: SchurBasisIndex) -> SchurElement:
    """Expand phi_{k1} . phi_{k2} in the phi basis (middle weights match).

    Its value on x_nu is x_lambda h_1 h_2 for the right generators h_1, h_2
    of k1 and k2, computed in the module x_lambda H: the members of h_1
    (rho power z) are folded along the tree of the members of h_2 (rho
    power k) by `hecke.fold_tree`, from their windows conjugated by rho^k,
    and the result, at rho power z + k, is expanded on distinguished
    members.
    """
    pil = young_parabolic(k1.lam)
    r, z, k = k1.d.r, k1.d.z, k2.d.z
    start = {
        rho_conjugate(b.window, k): ONE
        for b in distinguished_members(pil, k1.d, young_parabolic(k1.mu))
    }
    tree = distinguished_tree(young_parabolic(k2.lam), k2.d, young_parabolic(k2.mu))
    folded = fold_tree(start, tree, left_slots(pil.gens, z + k, r))
    value = HeckeElement(r, {_trusted(r, z + k, w): c for w, c in folded.items()})
    return expand_in_basis(k1.lam, k2.mu, value, distinguished=True)


def expand_in_basis(
    lam: Weight, mu: Weight, value: HeckeElement, distinguished: bool = False
) -> SchurElement:
    """Write a Hecke element as a combination of double-coset sums.

    Every support element d that is the minimal representative of its
    double coset S_lambda d S_mu is a pivot, in any order: its coefficient
    c is the coefficient of phi^d, every member of that coset must carry
    exactly c, and the whole coset is removed from the remainder, one
    working dict updated in place.  A missing coset member or a member
    with another coefficient raises BasisExpansionError, and so does a
    term left over at the end: no pivot's coset holds it, so the minimal
    member of its own coset is missing.  The value is accepted exactly
    when it is a combination of coset sums.

    With distinguished, value is an element of the module x_lambda H, by
    its coefficients on the basis x_lambda T_b (b in D_lambda), and phi^d
    is x_lambda times the sum of T_b over the distinguished members b of
    the coset: the same loop reads those members only.
    """
    # Checked here and each pivot d below, so that the index needs no
    # check of its own.
    if lam.n != mu.n or lam.r != mu.r or value.r != lam.r:
        raise ValueError("weights and value must share (n, r)")
    pil, pim = young_parabolic(lam), young_parabolic(mu)
    members = distinguished_members if distinguished else enumerate_double_coset
    out: dict[SchurBasisIndex, LaurentPoly] = {}
    rem = dict(value.terms)
    for d in value.terms:
        if d not in rem or not is_double_coset_min(d, pil, pim):
            continue  # removed with an earlier pivot's coset, or not a pivot
        # The coset cache and the index keep d alive: hold the copy that
        # the cached cosets share, not a fresh one from each product.
        d = _shared(d)
        c = rem[d]
        coeffs = c._c  # compared as dicts: LaurentPoly equality less its type checks
        for w in members(pil, d, pim):
            x = rem.pop(w, None)
            if x is None or x._c != coeffs:
                raise BasisExpansionError(
                    f"coset of {d.render()}: {w.render()} has coefficient "
                    f"{'none' if x is None else x.render()}, not {c.render()}"
                )
        out[SchurBasisIndex._trusted(lam, mu, d)] = c
    if rem:
        w = next(iter(rem))
        raise BasisExpansionError(f"support element {w.render()} is not coset-minimal")
    return SchurElement(lam.n, lam.r)._like(out)


def identity_element(n: int, r: int) -> SchurElement:
    """The unit: sum over all weights of phi^1_{lambda,lambda}.

    >>> len(identity_element(3, 2).terms)
    6
    """
    e = AffinePerm.identity(r)
    terms = {
        SchurBasisIndex(lam, lam, e): LaurentPoly.one() for lam in all_weights(n, r)
    }
    return SchurElement(n, r, terms)


def hecke_embed(h: HeckeElement, n: int) -> SchurElement:
    """T_d -> phi^d_{omega,omega}, extended linearly; requires n >= r."""
    r = h.r
    if n < r:
        raise ValueError("the omega weight needs n >= r")
    om = omega(n, r)
    terms = {SchurBasisIndex(om, om, w): c for w, c in h.terms.items()}
    return SchurElement(n, r, terms)
