"""Periodic integer matrices indexing the affine Schur basis.

A matrix A = (a_{i,j}) over ZZ x ZZ with a_{i+n,j+n} = a_{i,j} and total
entry sum r over one period of rows is stored as its rows 1..n with
absolute column positions (finite band).  The correspondence with pairs
of weights and a minimal double-coset representative d is

    a_{i,j} = #(B_i^lambda  intersect  (B_j^mu) d),

where B_i^lambda is the i-th block of [1, r] cut by lambda, periodized
by +r for each +n of block index.  Row sums recover lambda, column sums
recover mu, and the inverse map rebuilds d by order-preserving filling.
"""
from __future__ import annotations

from dataclasses import dataclass

from .aweyl import AffinePerm, is_double_coset_min
from .hecke import young_parabolic
from .ring import LaurentPoly
from .weights import Weight


@dataclass(frozen=True)
class PeriodicMatrix:
    n: int
    r: int
    entries: tuple[tuple[int, int, int], ...]  # (row in 1..n, column, value)

    def __post_init__(self):
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
        ent = tuple(sorted((i, j, v) for (i, j), v in d.items() if v))
        return cls(n, r, ent)

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

    Targets within each row block and sources within each column block are
    paired in increasing order, which lands on the minimal double-coset
    representative; the result is validated by round-trip.
    """
    lam, mu = row_col_sums(a)
    r = a.r
    lam_blocks = _blocks(lam)
    mu_blocks = _blocks(mu)

    def col_offset(i: int, j: int) -> int:
        # entries of the full column j strictly above row i, via translates
        off = 0
        for i2, j2, v2 in a.entries:
            if (j - j2) % a.n == 0:
                q = (j - j2) // a.n
                if i2 + q * a.n < i:
                    off += v2
        return off

    images = [0] * r
    for i in range(1, a.n + 1):
        row = sorted((j, v) for (ii, j, v) in a.entries if ii == i)
        x = lam_blocks[i - 1][0] + 1
        for j, v in row:
            k, j0 = divmod(j - 1, a.n)
            j0 += 1
            base = mu_blocks[j0 - 1][0] + k * r
            start = col_offset(i, j)
            for s in range(start, start + v):
                images[x - 1] = base + s + 1
                x += 1
    d = AffinePerm.from_images(r, images)
    if matrix_from_coset(lam, mu, d).entries != a.entries:
        raise ValueError("matrix does not come from a double coset")
    return lam, mu, d
