"""Periodic integer matrices indexing the affine Schur basis.

A matrix A = (a_{i,j}) over ZZ x ZZ with a_{i+n,j+n} = a_{i,j} and total
entry sum r over one period of rows is stored as its rows 1..n with
absolute column positions (finite band).  The correspondence with pairs
of weights and a minimal double-coset representative d is

    a_{i,j} = #(B_i^lambda  intersect  (B_j^mu) d),

where B_i^lambda is the i-th block of [1, r] cut by lambda, periodized
by +r for each +n of block index.  Row sums recover lambda, column sums
recover mu, and the inverse map fills any member of the double coset
W_lambda d W_mu from the entries and takes d from aweyl.double_coset_min.
A matrix keeps its entries in one order, sorted by (row, column), so
equal matrices compare equal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .aweyl import AffinePerm, double_coset_min, is_double_coset_min
from .hecke import young_parabolic
from .ring import LaurentPoly
from .weights import Weight


@dataclass(frozen=True)
class PeriodicMatrix:
    n: int
    r: int
    entries: tuple[tuple[int, int, int], ...]  # (row in 1..n, column, value), sorted

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        for i, j, v in self.entries:
            if not 1 <= i <= self.n:
                raise ValueError("row index outside the stored period")
            if v <= 0:
                raise ValueError("only positive entries are stored")
        if sum(v for _, _, v in self.entries) != self.r:
            raise ValueError("entries must sum to r over one period of rows")
        if len({(i, j) for i, j, _ in self.entries}) != len(self.entries):
            raise ValueError("duplicate positions")

    @classmethod
    def from_dict(cls, n: int, r: int, d: dict[tuple[int, int], int]) -> PeriodicMatrix:
        return cls(n, r, tuple((i, j, v) for (i, j), v in d.items() if v))

    def value(self, i: int, j: int) -> int:
        """a_{i,j} for any integers i, j (periodic lookup)."""
        k = (i - 1) // self.n
        i0, j0 = i - k * self.n, j - k * self.n
        for a, b, v in self.entries:
            if (a, b) == (i0, j0):
                return v
        return 0

    def band(self) -> tuple[int, int]:
        cols = [j for _, j, _ in self.entries]
        return (min(cols), max(cols)) if cols else (0, 0)

    def render(self) -> str:
        lo, hi = self.band()
        lines = [f"columns {lo}..{hi}"]
        for i in range(1, self.n + 1):
            row = [str(self.value(i, j)) for j in range(lo, hi + 1)]
            lines.append(f"row {i}: [" + " ".join(row) + "]")
        return "\n".join(lines)

    def structured(self) -> dict:
        lo, hi = self.band()
        return {
            "n": self.n,
            "r": self.r,
            "band": [lo, hi],
            "entries": [[i, j, v] for i, j, v in self.entries],
        }


def row_col_sums(a: PeriodicMatrix) -> tuple[Weight, Weight]:
    """Row sums and column sums over one period, as weights.

    >>> m = PeriodicMatrix.from_dict(3, 2, {(1, 2): 2})
    >>> row_col_sums(m)[0].parts, row_col_sums(m)[1].parts
    ((2, 0, 0), (0, 2, 0))
    """
    rows = [0] * a.n
    cols = [0] * a.n
    for i, j, v in a.entries:
        rows[i - 1] += v
        cols[(j - 1) % a.n] += v
    return Weight(rows), Weight(cols)


def d_stat(a: PeriodicMatrix) -> int:
    """The pair statistic: sum of a_{ij} a_{kl} over i >= k, j < l, 1 <= i <= n.

    The second entry ranges over all integer translates (k, l) =
    (i2 + qn, j2 + qn) of a stored one.  i >= k and j < l hold exactly for
    the q from qmin = floor((j - j2) / n) + 1 to qmax = floor((i - i2) / n),
    so each pair of stored entries counts qmax - qmin + 1 times, or none.
    """
    total = 0
    for i1, j1, v1 in a.entries:
        for i2, j2, v2 in a.entries:
            qmax = (i1 - i2) // a.n
            qmin = (j1 - j2) // a.n + 1
            total += v1 * v2 * max(0, qmax - qmin + 1)
    return total


def is_aperiodic(a: PeriodicMatrix) -> bool:
    """True when every nonzero diagonal j - i = p has a vanishing slot.

    >>> is_aperiodic(PeriodicMatrix.from_dict(2, 2, {(1, 2): 1, (2, 3): 1}))
    False
    """
    diagonals = {j - i for i, j, v in a.entries if j != i}
    for p in diagonals:
        if all(a.value(k, k + p) > 0 for k in range(1, a.n + 1)):
            return False
    return True


def bracket_coefficient(a: PeriodicMatrix) -> LaurentPoly:
    """The rescaling scalar v^(-d_A) relating the two natural bases."""
    return LaurentPoly.v(-d_stat(a))


def _blocks(lam: Weight) -> list[tuple[int, int]]:
    """Half-open block extents (lo, hi] of [1, r] cut by lambda."""
    out = []
    acc = 0
    for p in lam:
        out.append((acc, acc + p))
        acc += p
    return out


def _block_index(lam: Weight, x: int) -> int:
    """The block of lambda containing x, for any integer x (periodic)."""
    r = lam.r
    k = (x - 1) // r
    x0 = x - k * r
    for i, (lo, hi) in enumerate(_blocks(lam), start=1):
        if lo < x0 <= hi:
            return i + k * lam.n
    raise AssertionError("block lookup fell through")


def matrix_from_coset(lam: Weight, mu: Weight, d: AffinePerm) -> PeriodicMatrix:
    """The matrix a_{i,j} = #{x in B_i^lambda : (x)d in B_j^mu}.

    The orientation (d rather than its inverse) is the one that is
    injective on minimal representatives; the tests calibrate this on an
    enumerated range, as well as the row-sum/column-sum transport.

    >>> from .weights import omega
    >>> om = omega(3, 2)
    >>> matrix_from_coset(om, om, AffinePerm.identity(2)).entries
    ((1, 1, 1), (2, 2, 1))
    """
    if lam.r != mu.r or lam.n != mu.n:
        raise ValueError("weights must share (n, r)")
    if not is_double_coset_min(d, young_parabolic(lam), young_parabolic(mu)):
        raise ValueError("d is not the minimal element of its double coset")
    counts: dict[tuple[int, int], int] = {}
    for x in range(1, lam.r + 1):
        i = _block_index(lam, x)
        j = _block_index(mu, d.apply(x))
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return PeriodicMatrix.from_dict(lam.n, lam.r, counts)


def coset_from_matrix(a: PeriodicMatrix) -> tuple[Weight, Weight, AffinePerm]:
    """Invert matrix_from_coset: recover (lambda, mu, d).

    Row by row, each entry a_{i,j} sends the next a_{i,j} points of block
    i of lambda to the next a_{i,j} free points of block (j mod n) of mu,
    shifted by r for each n of column period.  That fills a member of the
    double coset W_lambda d W_mu, and d is its minimal member
    (aweyl.double_coset_min).  The result is validated by round-trip.

    >>> coset_from_matrix(PeriodicMatrix(2, 2, ((2, 1, 1), (1, 1, 1))))[2].render()
    'rho^0 * [1,2]'
    """
    lam, mu = row_col_sums(a)
    free = [lo for lo, _ in _blocks(mu)]  # the last point taken in each block of mu
    images: list[int] = []
    for _, j, v in a.entries:  # by row, so the points of lambda's blocks in order
        k, j0 = divmod(j - 1, a.n)
        images += range(free[j0] + k * a.r + 1, free[j0] + k * a.r + v + 1)
        free[j0] += v
    w = AffinePerm.from_images(a.r, images)
    d = double_coset_min(w, young_parabolic(lam), young_parabolic(mu))
    if matrix_from_coset(lam, mu, d).entries != a.entries:
        raise ValueError("matrix does not come from a double coset")
    return lam, mu, d
