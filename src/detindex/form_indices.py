"""Algebraic indices of a holomorphic 1-form with an isolated zero.

Three colength-style indices are computed from explicit ideals or module
presentations:

* the minors-algebra dimension for a determinantal singularity (and its
  complete-intersection and space-curve specializations), cut out by the
  defining equations together with the maximal minors of the matrix whose
  rows are the gradients of the equations and the form's coefficients;

* the dimension of the top differential forms of the germ modulo wedging
  with the form, presented by generators over the ambient free module of
  alternating forms.

An infinite colength is the operational signal that the zero of the form
is not isolated on the germ (or the germ is not what the formula assumes);
callers receive INFINITE rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

from .determinantal import DetSingularity, OneForm, minors
from .rings import Poly, RingContext
from .standard_bases import FreeModuleElement, Ideal, colength, module_colength


def _augmented_jacobian(defs: Sequence[Poly], form: OneForm) -> List[Tuple[Poly, ...]]:
    """Rows: the gradients of the defining polynomials, then the form."""
    ring = form.ring
    rows = []
    for f in defs:
        if f.ring != ring:
            raise ValueError("defining polynomial from a different ring")
        rows.append(tuple(f.partial_derivative(i) for i in range(ring.nvars)))
    rows.append(tuple(form.coefficients))
    return rows


def algebra_ideal(sing: DetSingularity, form: OneForm) -> Ideal:
    """Defining minors plus the (codim+1)-minors of the augmented Jacobian."""
    if form.ring != sing.ring:
        raise ValueError("form and singularity live in different rings")
    defs = sing.defining_minors()
    return Ideal(defs + minors(_augmented_jacobian(defs, form), sing.codim + 1))


def algebra_index(sing: DetSingularity, form: OneForm):
    """Dimension of the minors algebra of the pair; INFINITE when the form
    has a non-isolated zero on the germ."""
    return colength(algebra_ideal(sing, form))


def icis_ideal(defs: Sequence[Poly], form: OneForm) -> Ideal:
    """Complete-intersection case: equations plus (k+1)-minors of the
    Jacobian of the k equations with the form's row appended."""
    defs = list(defs)
    k = len(defs)
    if k == 0:
        raise ValueError("need at least one defining equation")
    if k >= form.ring.nvars:
        raise ValueError("need fewer equations than variables")
    return Ideal(defs + minors(_augmented_jacobian(defs, form), k + 1))


def icis_index(defs: Sequence[Poly], form: OneForm):
    return colength(icis_ideal(defs, form))


def gmvs_ideal(sing: DetSingularity, form: OneForm) -> Ideal:
    """Space-curve case: the curve is cut out by the maximal minors of an
    m x (m+1) matrix in three variables.  Its codimension is 2, so this is
    the algebra ideal, with the 3x3 minors of the gradients-plus-form
    matrix."""
    if sing.ring.nvars != 3:
        raise ValueError("space-curve index needs a three-variable ring")
    if sing.n != sing.m + 1 or sing.t != sing.m:
        raise ValueError("space-curve index needs type (m, m+1, m)")
    return algebra_ideal(sing, form)


def gmvs_index(sing: DetSingularity, form: OneForm):
    return colength(gmvs_ideal(sing, form))


@dataclass(frozen=True)
class DifferentialFormPresentation:
    """Degree-p differential forms of the germ, as a quotient of the free
    module with basis indexed by sorted p-subsets of the variables.

    Relation generators are equation multiples of each basis form and
    wedges of the equations' differentials with each basis (p-1)-form.
    Sign convention: dx_j wedged onto the sorted (p-1)-subset K lands on
    the sorted union with sign (-1)^(number of elements of K below j).
    """

    ring: RingContext
    degree: int
    basis: Tuple[Tuple[int, ...], ...]
    relations: Tuple[FreeModuleElement, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @classmethod
    def build(cls, ring: RingContext, equations: Sequence[Poly], degree: int) -> "DifferentialFormPresentation":
        if not 0 <= degree <= ring.nvars:
            raise ValueError("form degree out of range")
        basis = tuple(combinations(range(ring.nvars), degree))
        index = {J: pos for pos, J in enumerate(basis)}
        rank = len(basis)
        zero = ring.zero_poly()
        relations: List[FreeModuleElement] = []
        for g in equations:
            if g.ring != ring:
                raise ValueError("equation from a different ring")
            for J in basis:
                comps = [zero] * rank
                comps[index[J]] = g
                relations.append(FreeModuleElement(rank, comps))
        if degree >= 1:
            for g in equations:
                dg = [g.partial_derivative(i) for i in range(ring.nvars)]
                for K in combinations(range(ring.nvars), degree - 1):
                    relations.append(_wedge(ring, dg, K, basis, index))
        return cls(ring, degree, basis, tuple(relations))

    def wedge_generators(self, form: OneForm) -> List[FreeModuleElement]:
        """The form wedged with every basis (degree-1)-form."""
        if self.degree < 1:
            raise ValueError("cannot wedge into degree-0 forms")
        index = {J: pos for pos, J in enumerate(self.basis)}
        return [
            _wedge(self.ring, list(form.coefficients), K, self.basis, index)
            for K in combinations(range(self.ring.nvars), self.degree - 1)
        ]


def _wedge(ring, coeffs, K, basis, index) -> FreeModuleElement:
    zero = ring.zero_poly()
    comps = [zero] * len(basis)
    for j in range(ring.nvars):
        if j in K or not coeffs[j]:
            continue
        target = tuple(sorted(K + (j,)))
        below = sum(1 for k in K if k < j)
        term = coeffs[j] if below % 2 == 0 else -coeffs[j]
        pos = index[target]
        comps[pos] = comps[pos] + term
    return FreeModuleElement(len(basis), comps)


def omega_quotient_generators(
    sing: DetSingularity, form: OneForm
) -> Tuple[int, List[FreeModuleElement]]:
    """Rank and relation generators presenting top-degree forms of the germ
    modulo wedging with the given 1-form."""
    if form.ring != sing.ring:
        raise ValueError("form and singularity live in different rings")
    pres = DifferentialFormPresentation.build(sing.ring, sing.defining_minors(), sing.dim)
    gens = list(pres.relations) + pres.wedge_generators(form)
    return pres.rank, gens


def omega_quotient_dim(sing: DetSingularity, form: OneForm):
    """Dimension of top-degree forms modulo the form's wedge; for an
    isolated determinantal singularity with an isolated zero of the form
    this is the homological index."""
    rank, gens = omega_quotient_generators(sing, form)
    return module_colength(rank, gens)
