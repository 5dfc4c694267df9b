"""Determinantal singularity data model: matrix, minors, strata, classification.

A singularity of type (m, n, t) is cut out in C^N by the vanishing of all
t x t minors of an m x n matrix of polynomials vanishing at the origin.
Types are normalized to m <= n by transposing, with a record of whether a
transpose happened (it swaps the roles of the two Grassmannian resolutions
in the index conversions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import List, Sequence, Tuple

from .rings import Poly, RingContext, _add_term, mono_mul
from .standard_bases import INFINITE, Ideal, colength


@dataclass(frozen=True)
class OneForm:
    """1-form sum A_i dx_i, one polynomial coefficient per variable."""

    coefficients: Tuple[Poly, ...]

    def __init__(self, coefficients: Sequence[Poly]):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a 1-form needs at least one coefficient")
        ring = coeffs[0].ring
        for c in coeffs:
            if c.ring != ring:
                raise ValueError("mixed ring contexts in 1-form coefficients")
        if len(coeffs) != ring.nvars:
            raise ValueError("1-form needs one coefficient per variable")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def ring(self) -> RingContext:
        return self.coefficients[0].ring

    @classmethod
    def differential(cls, f: Poly) -> "OneForm":
        """df, the gradient of a polynomial as a 1-form."""
        return cls([f.partial_derivative(i) for i in range(f.ring.nvars)])

    @classmethod
    def coordinate(cls, ring: RingContext, index) -> "OneForm":
        """dx_index, the variable given by position or by name."""
        return cls.differential(ring.variable(index))


def _det(rows: Sequence[Sequence[dict]], cols: Tuple[int, ...]) -> dict:
    """The determinant of the given rows at the columns cols, of integer
    term dicts {monomial: int}, by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][cols[0]]
    first, rest = rows[0], rows[1:]
    terms: dict = {}  # summed in place from zero
    for k, c in enumerate(cols):
        entry = first[c]
        if not entry:
            continue
        minor = _det(rest, cols[:k] + cols[k + 1:])
        for ma, ca in entry.items():
            if k % 2:
                ca = -ca
            for mb, cb in minor.items():
                _add_term(terms, mono_mul(ma, mb), ca * cb)
    return terms


def minors(matrix: Sequence[Sequence[Poly]], size: int) -> List[Poly]:
    """All size x size minors, in lexicographic (row set, column set)
    order."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if not 1 <= size <= min(nrows, ncols):
        raise ValueError("minor size out of range")
    ring = matrix[0][0].ring
    # each row times the least common denominator of its entries
    scales = [lcm(*(c.denominator for entry in row for c in entry.terms.values())) for row in matrix]
    rows = [[{m: c.numerator * (scale // c.denominator) for m, c in entry.terms.items()} for entry in row]
            for row, scale in zip(matrix, scales)]
    out = []
    for I in combinations(range(nrows), size):
        scale = prod(scales[i] for i in I)
        selected = [rows[i] for i in I]
        for J in combinations(range(ncols), size):
            out.append(Poly(ring, {m: Fraction(c, scale) for m, c in _det(selected, J).items()}))
    return out


@dataclass(frozen=True)
class DetSingularity:
    """Type (m, n, t) singularity with defining matrix F, F(0) = 0, m <= n."""

    ring: RingContext
    m: int
    n: int
    t: int
    matrix: Tuple[Tuple[Poly, ...], ...]
    transposed: bool = False

    @classmethod
    def create(cls, ring: RingContext, matrix: Sequence[Sequence[Poly]], t: int) -> "DetSingularity":
        rows = [tuple(row) for row in matrix]
        if not rows or not rows[0]:
            raise ValueError("defining matrix must be nonempty")
        ncols = len(rows[0])
        if any(len(row) != ncols for row in rows):
            raise ValueError("defining matrix must be rectangular")
        for row in rows:
            for entry in row:
                if entry.ring != ring:
                    raise ValueError("matrix entry from a different ring")
                if entry.constant_term():
                    raise ValueError("matrix entries must vanish at the origin")
        m, n = len(rows), ncols
        transposed = False
        if m > n:
            rows = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
            m, n = n, m
            transposed = True
        if not 1 <= t <= m:
            raise ValueError("need 1 <= t <= min(m, n)")
        d = ring.nvars - (m - t + 1) * (n - t + 1)
        if d <= 0:
            raise ValueError("expected dimension N - (m-t+1)(n-t+1) must be positive")
        return cls(ring, m, n, t, tuple(tuple(r) for r in rows), transposed)

    @property
    def ambient_dim(self) -> int:
        return self.ring.nvars

    @property
    def codim(self) -> int:
        return (self.m - self.t + 1) * (self.n - self.t + 1)

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.codim

    def defining_minors(self) -> List[Poly]:
        return minors(self.matrix, self.t)


@dataclass(frozen=True)
class SingularityClass:
    """Isolation and smoothability flags with per-stratum dimensions.

    sing_stratum_colength is the colength of the ideal of (t-1)-minors,
    an int or INFINITE (being finite is necessary for isolation); None
    when t = 1 (no deeper stratum).
    """

    smoothable: bool
    isolated: bool
    stratum_dims: Tuple[int, ...]
    sing_stratum_colength: object


def isolation_bound(m: int, n: int, t: int) -> int:
    """(m-t+2)(n-t+2): `classify` calls a type (m, n, t) germ in C^N
    isolated when N is at most this bound, and smoothable below it."""
    return (m - t + 2) * (n - t + 2)


def stratum_dim(m: int, n: int, i: int, ambient_dim: int) -> int:
    """Dimension of the locus where the matrix has rank below i."""
    return max(0, ambient_dim - (m - i + 1) * (n - i + 1))


def stratum_ideal(sing: DetSingularity, i: int) -> Ideal:
    """Ideal of i x i minors, cutting out the rank < i locus."""
    if not 1 <= i <= sing.t:
        raise ValueError("stratum index out of range")
    return Ideal(minors(sing.matrix, i))


def classify(sing: DetSingularity) -> SingularityClass:
    m, n, t, N = sing.m, sing.n, sing.t, sing.ambient_dim
    bound = isolation_bound(m, n, t)
    dims = tuple(stratum_dim(m, n, i, N) for i in range(1, t + 1))
    return SingularityClass(
        smoothable=N < bound,
        isolated=N <= bound,
        stratum_dims=dims,
        sing_stratum_colength=colength(stratum_ideal(sing, t - 1)) if t >= 2 else None,
    )


def chi_singular_stratum(sing: DetSingularity) -> int:
    """Number of rank-deficient points on a generic deformation, computed
    as the colength of the ideal of (t-1)-minors.

    Only defined in the isolated non-smoothable case N = (m-t+2)(n-t+2)
    with t >= 2.
    """
    m, n, t, N = sing.m, sing.n, sing.t, sing.ambient_dim
    if t < 2:
        raise ValueError("no singular stratum below the top one for t = 1")
    bound = isolation_bound(m, n, t)
    if N != bound:
        raise ValueError(
            "formula applies only when N = (m-t+2)(n-t+2); got N=%d, bound=%d" % (N, bound)
        )
    value = classify(sing).sing_stratum_colength
    if value is INFINITE:
        raise ValueError("infinite colength: the input is not an isolated determinantal singularity")
    return value
