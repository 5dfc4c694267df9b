"""Closed-form combinatorics relating the different indices of a 1-form.

Everything here is exact integer arithmetic on user-supplied topological
data (radial indices and Euler characteristics per rank stratum); nothing
is derived from the defining equations.  Stratum dimensions are always
recomputed from (m, n, t, N) and never taken as input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .determinantal import isolation_bound, stratum_dim


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


@dataclass(frozen=True)
class StrataIndexData:
    """Per-stratum topological inputs for the conversion formulas.

    radial[i-1] is the radial index of the form on the rank < i locus
    X_i, chi[i-1] the Euler characteristic of an essential smoothing of
    X_i, for i = 1..t.  The deepest slot X_0 = {origin} is a convention
    (radial index 1, Euler characteristic 0), not an input.
    """

    m: int
    n: int
    t: int
    ambient_dim: int
    radial: Tuple[int, ...]
    chi: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "radial", tuple(self.radial))
        object.__setattr__(self, "chi", tuple(self.chi))
        if not 1 <= self.t <= self.m <= self.n:
            raise ValueError("need 1 <= t <= m <= n")
        if len(self.radial) != self.t or len(self.chi) != self.t:
            raise ValueError("radial and chi vectors must have length t")

    def dims(self) -> Tuple[int, ...]:
        return tuple(
            stratum_dim(self.m, self.n, i, self.ambient_dim) for i in range(1, self.t + 1)
        )


@dataclass(frozen=True)
class CoeffMatrices:
    """The upper-triangular conversion matrix and its integer inverse."""

    nmat: Tuple[Tuple[int, ...], ...]
    mmat: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        t = len(self.nmat)
        nmat, mmat = self.nmat, self.mmat
        if any(nmat[i][j] or mmat[i][j] for i in range(t) for j in range(i)):
            raise AssertionError("coefficient matrices are not upper triangular")
        # The product of two upper-triangular matrices is upper triangular,
        # and its entry (i, j) sums over k from i to j alone.
        for i in range(t):
            for j in range(i, t):
                s = sum(nmat[i][k] * mmat[k][j] for k in range(i, j + 1))
                if s != (1 if i == j else 0):
                    raise AssertionError("coefficient matrices are not inverse to each other")


def chi_fiber(i: int, k: int, m: int, n: int, t: int) -> int:
    """Euler characteristic of the resolution fiber over a rank i-1 point."""
    if not 1 <= i <= t:
        raise ValueError("stratum index out of range")
    if k not in (1, 2, 3):
        raise ValueError("resolution index must be 1, 2 or 3")
    chi1 = math.comb(n - i + 1, t - i)
    chi2 = math.comb(m - i + 1, t - i)
    if k == 1:
        return chi1
    if k == 2:
        return chi2
    return chi1 * chi2


def chi_bar_hyperplane(m: int, n: int, t: int) -> int:
    """Reduced Euler characteristic of a generic hyperplane section of the
    space of m x n matrices of rank below t."""
    if not 1 <= t <= m <= n:
        raise ValueError("need t <= m <= n")
    return _sign(t) * math.comb(m - 1, t - 1)


def _coefficient(eps: int, m: int, i: int, j: int) -> int:
    """Entry (i, j), counted from 1, of the conversion matrix of sign eps:
    nmat has eps = (-1)^(m+n), mmat eps = (-1)^(m+n+1)."""
    return eps ** (j - i) * math.comb(m - i, m - j) if j >= i else 0


def coeff_matrices(m: int, n: int, t: int) -> CoeffMatrices:
    """Conversion coefficients between radial and Nash-bundle indices."""
    if t < 1:
        raise ValueError("t must be at least 1")

    def triangular(eps):
        return tuple(
            tuple(_coefficient(eps, m, i, j) for j in range(1, t + 1)) for i in range(1, t + 1)
        )

    return CoeffMatrices(triangular(_sign(m + n)), triangular(_sign(m + n + 1)))


def _ph_sum(dims: Sequence[int], radial: Sequence[int], chi: Sequence[int], fibers: Sequence[int]) -> int:
    """Core alternating sum; the deepest stratum convention slots are
    radial 1, chi 0, dimension 0."""
    t = len(radial)
    rad = (1,) + tuple(radial)
    chis = (0,) + tuple(chi)
    dd = (0,) + tuple(dims)
    total = 0
    for i in range(1, t + 1):
        bracket = (
            _sign(dd[i]) * rad[i]
            - _sign(dd[i - 1]) * rad[i - 1]
            + (chis[i] - chis[i - 1])
        )
        total += bracket * fibers[i - 1]
    return _sign(dd[t]) * total


def ph_index(data: StrataIndexData, k: int) -> int:
    """Index of the form pulled to resolution k of an essential smoothing."""
    dims = data.dims()
    fibers = [chi_fiber(i, k, data.m, data.n, data.t) for i in range(1, data.t + 1)]
    return _ph_sum(dims, data.radial, data.chi, fibers)


def phn_from_radial(
    radial: Sequence[int], chibar: Sequence[int], m: int, n: int, t: int, ambient_dim: int
) -> int:
    """Nash-bundle index of the form from per-stratum radial data.

    radial[i-1] and chibar[i-1] refer to the rank < i locus X_i; chibar is
    the reduced Euler characteristic of its essential smoothing.
    """
    if len(radial) != t or len(chibar) != t:
        raise ValueError("radial and chibar vectors must have length t")
    eps = _sign(m + n + 1)  # the last column of mmat
    total = 0
    for i in range(1, t + 1):
        d_i = stratum_dim(m, n, i, ambient_dim)
        total += _coefficient(eps, m, i, t) * (radial[i - 1] + _sign(d_i) * chibar[i - 1])
    return total


def radial_from_phn(
    phn: Sequence[int], m: int, n: int, t: int, ambient_dim: int, chibar: int
) -> int:
    """Radial index of the form from the Nash-bundle indices of all strata.

    phn[i-1] is the Nash-bundle index on the rank < i locus X_i; chibar is
    the reduced Euler characteristic of the essential smoothing of X = X_t.
    """
    if len(phn) != t:
        raise ValueError("phn vector must have length t")
    eps = _sign(m + n)  # the last column of nmat
    total = sum(_coefficient(eps, m, i, t) * phn[i - 1] for i in range(1, t + 1))
    d = stratum_dim(m, n, t, ambient_dim)
    return total + _sign(d - 1) * chibar


def isolated_indices(
    m: int, n: int, t: int, ambient_dim: int, rad: int, chibar: int, chi_sing: int, k: int
) -> Tuple[int, int]:
    """(resolution-k index, Nash-bundle index) for an isolated
    non-smoothable singularity, i.e. N = (m-t+2)(n-t+2).

    chi_sing counts the rank-deficient points on an essential smoothing
    (the colength of the ideal of (t-1)-minors)."""
    bound = isolation_bound(m, n, t)
    if ambient_dim != bound:
        raise ValueError(
            "isolated non-smoothable case requires N = (m-t+2)(n-t+2); got N=%d, bound=%d"
            % (ambient_dim, bound)
        )
    if k not in (1, 2, 3):
        raise ValueError("resolution index must be 1, 2 or 3")
    d = stratum_dim(m, n, t, ambient_dim)
    if k == 1:
        chibar_fiber = n - t + 1
    elif k == 2:
        chibar_fiber = m - t + 1
    else:
        chibar_fiber = bound - 1
    ph = rad + _sign(d) * (chibar + chi_sing * chibar_fiber)
    phn = rad + _sign(d) * chibar + _sign(m + n + 1) * (m - t + 1) * chi_sing
    return ph, phn


def smoothable_index(rad: int, chibar: int, dim_x: int) -> int:
    """The common value of all the indices on a smoothable isolated
    singularity: radial index plus signed reduced Euler characteristic."""
    return rad + _sign(dim_x) * chibar
