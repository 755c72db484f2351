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
From the trees (cached on plain values, `aweyl.distinguished_tree`) to
the expansion a product runs on bare windows at one rho power.  S^a is
block-sparse, the sum of the 1_lambda S^a 1_mu, and so are the data: an
index is the tuple (lambda, mu, rho power of d, window of d), every field a
tuple or an int that hashes in C (a `Weight` is the validated tuple of its
parts), and a product pairs terms only through their middle weight.
`phi_value`, the Hecke product and the expansion on whole cosets stay as
the independent route that the tests compare with.
"""
from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .aweyl import (
    AffinePerm,
    Window,
    _trusted,
    _window_length,
    distinguished_tree,
    double_coset_min,
    enumerate_double_coset,
    is_double_coset_min,
    is_min_window,
    left_slots,
    rho_conjugate,
)
from .hecke import HeckeElement, fold_tree, young_parabolic
from .ring import ONE, Combination, LaurentPoly, add_term
from .weights import Weight, all_weights, omega


class BasisExpansionError(RuntimeError):
    """The value is not a combination of double-coset sums."""


class SchurBasisIndex(tuple):
    """(lambda, mu, d) with d minimal in S_lambda d S_mu, held as the tuple
    (lambda, mu, rho power of d, window of d); lam, mu and d are read-only
    views."""

    __slots__ = ()

    def __new__(cls, lam: Weight, mu: Weight, d: AffinePerm) -> SchurBasisIndex:
        if lam.n != mu.n or lam.r != mu.r:
            raise ValueError("weights must share (n, r)")
        if lam.r != d.r:
            raise ValueError("permutation period must equal r")
        if not is_double_coset_min(d, young_parabolic(lam), young_parabolic(mu)):
            raise ValueError("d is not minimal in its double coset")
        return tuple.__new__(cls, (lam, mu, d.z, d.window))

    @classmethod
    def make(cls, lam: Weight, mu: Weight, d: AffinePerm) -> SchurBasisIndex:
        """Build with d replaced by the minimal representative of its coset."""
        dmin = double_coset_min(d, young_parabolic(lam), young_parabolic(mu))
        return cls(lam, mu, dmin)

    @classmethod
    def _trusted(cls, lam: Weight, mu: Weight, z: int, window: Window) -> SchurBasisIndex:
        """The index of rho^z w from values its caller has checked."""
        return tuple.__new__(cls, (lam, mu, z, window))

    lam = property(itemgetter(0))
    mu = property(itemgetter(1))
    d = property(lambda self: _trusted(len(self[3]), self[2], self[3]))

    def __getnewargs__(self):  # copy and pickle rebuild through the checks
        return self.lam, self.mu, self.d

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
        if terms and any(len(k[0]) != n or sum(k[0]) != r for k in terms):
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
        return sorted(self.terms, key=lambda k: (k[0], k[1], _window_length(k[3]), k[2], k[3]))

    # -- multiplication -----------------------------------------------------------

    def __mul__(self, other: SchurElement) -> SchurElement:
        self._check_space(other)
        # phi_A phi_B = 0 unless A's second weight is B's first: pair by it
        blocks: dict[Weight, list[tuple[SchurBasisIndex, LaurentPoly]]] = {}
        for k2, c2 in other.terms.items():
            blocks.setdefault(k2[0], []).append((k2, c2))
        out: dict[SchurBasisIndex, LaurentPoly] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in blocks.get(k1[1], ()):
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
                "lambda": list(k.lam),
                "mu": list(k.mu),
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
    of k1 and k2, computed in the module x_lambda H on bare windows: the
    member windows of h_1 (rho power z), conjugated by rho^k, are folded
    along the tree of the members of h_2 (rho power k) by
    `hecke.fold_tree`, and the folded {window: coefficient} dict, at rho
    power z + k, is expanded on distinguished members.  Everything is read
    off the plain fields of the indices: both trees are looked up by plain
    values (`aweyl.distinguished_tree`), as the d of an index is minimal,
    and the generator sets by the weights.
    """
    lam, mu, z, w1 = k1
    mid, nu, k, w2 = k2
    gens = young_parabolic(lam).gens
    members = distinguished_tree(gens, z, w1, young_parabolic(mu).gens)[0]
    start = dict.fromkeys((rho_conjugate(w, k) for w in members) if k else members, ONE)
    tree = distinguished_tree(young_parabolic(mid).gens, k, w2, young_parabolic(nu).gens)
    folded = fold_tree(start, tree, left_slots(gens, z + k, len(w1)))
    return expand_in_basis(lam, nu, folded, True, z + k)


def expand_in_basis(
    lam: Weight,
    mu: Weight,
    value: HeckeElement | dict[Window, LaurentPoly],
    distinguished: bool = False,
    z: int = 0,
) -> SchurElement:
    """Write a Hecke element as a combination of double-coset sums.

    value is a HeckeElement, or the {window: coefficient} dict of one at
    the single rho power z, which the expansion empties (the product path
    passes its folded dict so).  Every double coset lies at one rho power,
    so the terms are expanded one rho power at a time, on windows.

    Every support element d that is the minimal representative of its
    double coset S_lambda d S_mu (`aweyl.is_min_window`, cached on the
    window) is a pivot, in any order: its coefficient c is the
    coefficient of phi^d, every member of that coset must carry exactly
    c, and the whole coset is removed from the remainder, one
    working dict updated in place.  A missing coset member or a member
    with another coefficient raises BasisExpansionError, and so does a
    term left over at the end: no pivot's coset holds it, so the minimal
    member of its own coset is missing.  The value is accepted exactly
    when it is a combination of coset sums.  Each pivot kept becomes an
    index straight from its plain values; an element is built only for
    the one an error message names.

    With distinguished, value is an element of the module x_lambda H, by
    its coefficients on the basis x_lambda T_b (b in D_lambda), and phi^d
    is x_lambda times the sum of T_b over the distinguished members b of
    the coset: the same loop reads those members only, the windows of the
    cached tree of d.
    """
    # Checked here and each pivot d below, so that the index needs no
    # check of its own.
    r = lam.r
    hecke = isinstance(value, HeckeElement)
    if lam.n != mu.n or mu.r != r or (hecke and value.r != r):
        raise ValueError("weights and value must share (n, r)")
    groups: dict[int, dict[Window, LaurentPoly]] = {} if hecke else {z: value}
    if hecke:
        for w, c in value.terms.items():
            groups.setdefault(w.z, {})[w.window] = c
    pil, pim = young_parabolic(lam), young_parabolic(mu)
    gens1, gens2 = pil.gens, pim.gens
    out: dict[SchurBasisIndex, LaurentPoly] = {}
    for z, rem in groups.items():
        left = left_slots(gens1, z, r)
        for w in list(rem):
            if w not in rem or not is_min_window(w, left, gens2):
                continue  # removed with an earlier pivot's coset, or not a pivot
            c = rem[w]
            coeffs = c._c  # compared as dicts: LaurentPoly equality less its type checks
            if distinguished:
                members = distinguished_tree(gens1, z, w, gens2)[0]
            else:
                members = [b.window for b in enumerate_double_coset(pil, _trusted(r, z, w), pim)]
            for b in members:
                x = rem.pop(b, None)
                if x is None or x._c != coeffs:
                    raise BasisExpansionError(
                        f"coset of {_trusted(r, z, w).render()}: {_trusted(r, z, b).render()} "
                        f"has coefficient {'none' if x is None else x.render()}, not {c.render()}"
                    )
            out[SchurBasisIndex._trusted(lam, mu, z, w)] = c
        if rem:
            w = next(iter(rem))
            raise BasisExpansionError(
                f"support element {_trusted(r, z, w).render()} is not coset-minimal"
            )
    return SchurElement(lam.n, r)._like(out)


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
