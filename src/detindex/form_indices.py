"""Algebraic indices of a holomorphic 1-form with an isolated zero.

Colength-style indices are computed from explicit ideals or module
presentations:

* the minors-algebra dimension for a determinantal singularity (and its
  complete-intersection and space-curve specializations), cut out by the
  defining equations together with the maximal minors of the matrix whose
  rows are the gradients of the equations and the form's coefficients;

* the dimension of the top differential forms of the germ modulo wedging
  with the form, presented by `omega_quotient_generators` over the free
  module of ambient alternating forms of the germ's dimension.

An infinite colength is the operational signal that the zero of the form
is not isolated on the germ (or the germ is not what the formula assumes);
callers receive INFINITE rather than an error.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import List, Sequence, Tuple

from .determinantal import DetSingularity, OneForm, minors
from .rings import Poly
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


def omega_quotient_generators(
    sing: DetSingularity, form: OneForm
) -> Tuple[int, List[FreeModuleElement]]:
    """Rank and relation generators presenting top-degree forms of the germ
    modulo wedging with the given 1-form.

    The free module has one basis form per sorted dim-subset of the
    variables, in lexicographic order.  The generators are each defining
    minor times each basis form, then each minor's differential wedged
    with each sorted (dim-1)-subset, then the form wedged with each
    (dim-1)-subset.  Sign convention: dx_j wedged onto the sorted subset K
    lands on the sorted union with sign (-1)^(number of elements of K
    below j).
    """
    if form.ring != sing.ring:
        raise ValueError("form and singularity live in different rings")
    nvars = sing.ring.nvars
    basis = list(combinations(range(nvars), sing.dim))
    index = {J: pos for pos, J in enumerate(basis)}
    rank = len(basis)
    zero = sing.ring.zero_poly()

    def wedge(coeffs: Sequence[Poly], K: Tuple[int, ...]) -> FreeModuleElement:
        # each j lands on its own subset K + {j}, so entries are assigned
        comps = [zero] * rank
        for j, c in enumerate(coeffs):
            if c and j not in K:
                below = bisect_left(K, j)
                comps[index[K[:below] + (j,) + K[below:]]] = -c if below % 2 else c
        return FreeModuleElement(rank, comps)

    defs = sing.defining_minors()
    gens = [FreeModuleElement(rank, [g if i == pos else zero for i in range(rank)])
            for g in defs for pos in range(rank)]
    # the rows are the minors' gradients, then the form
    for row in _augmented_jacobian(defs, form):
        gens.extend(wedge(row, K) for K in combinations(range(nvars), sing.dim - 1))
    return rank, gens


def omega_quotient_dim(sing: DetSingularity, form: OneForm):
    """h_n = dim Ω^n_X / ω∧Ω^(n-1)_X for n = dim X: the top homology of
    the complex 0 → O_X → Ω^1_X → … → Ω^n_X → 0 with the map ∧ω.  The
    homological index is the complex's Euler characteristic, so it equals
    h_n only where the lower homology vanishes; on
    manifests/generic-232-c6.json h = (0, 0, 0, 1, 6), χ = 5 against 6."""
    rank, gens = omega_quotient_generators(sing, form)
    return module_colength(rank, gens)
