import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from detindex import (
    INFINITE,
    DetSingularity,
    Ideal,
    OneForm,
    RingContext,
    chi_singular_stratum,
    classify,
    colength,
    minors,
    parse_poly,
    stabilized_colength,
    standard_basis,
    stratum_dim,
    stratum_ideal,
)

from detindex.rings import Poly, mono_mul

from conftest import random_poly


def P(src, ring):
    return parse_poly(src, ring)


def surface_232(ring):
    return DetSingularity.create(
        ring,
        [[P("z", ring), P("y+u", ring), P("x", ring)],
         [P("u", ring), P("x", ring), P("y", ring)]],
        2,
    )


def generic_232():
    ring = RingContext(tuple("abcdef"))
    rows = [[ring.variable(i) for i in range(3)], [ring.variable(i) for i in range(3, 6)]]
    return DetSingularity.create(ring, rows, 2)


# -- minors ---------------------------------------------------------------------

def test_minors_of_surface_matrix(ring_xyzu):
    sing = surface_232(ring_xyzu)
    polys = minors(sing.matrix, 2)
    expected = {
        P("z*x - u*(y+u)", ring_xyzu),
        P("z*y - u*x", ring_xyzu),
        P("(y+u)*y - x^2", ring_xyzu),
    }
    assert set(polys) == expected


def test_minors_size_one_lists_entries(ring_xyzu):
    sing = surface_232(ring_xyzu)
    polys = minors(sing.matrix, 1)
    assert polys == [entry for row in sing.matrix for entry in row]


def test_minors_diagonal(ring_xy):
    mat = [[P("x", ring_xy), P("0", ring_xy)], [P("0", ring_xy), P("y", ring_xy)]]
    assert minors(mat, 2) == [P("x*y", ring_xy)]


def test_minors_size_out_of_range(ring_xy):
    with pytest.raises(ValueError):
        minors([[P("x", ring_xy)]], 2)


def _fraction_minor(matrix, rows, cols):
    """The minor at rows and cols by Laplace expansion along the first row,
    term by term in Fractions."""
    if len(rows) == 1:
        return dict(matrix[rows[0]][cols[0]].terms)
    out = {}
    for k, c in enumerate(cols):
        sign = -1 if k % 2 else 1
        rest = _fraction_minor(matrix, rows[1:], cols[:k] + cols[k + 1:])
        for ma, ca in matrix[rows[0]][c].terms.items():
            for mb, cb in rest.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def test_minors_match_the_term_by_term_fraction_laplace_expansion(ring_xyz):
    # minors clears denominators once per row and expands on integers:
    # rows scaled by 7/3 or with mixed denominators come out exact.
    rng = random.Random(34)
    scaled = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = []
        for _ in range(nrows):
            scale = rng.choice((Fraction(1), Fraction(7, 3), Fraction(-5, 6)))
            row = [random_poly(ring_xyz, rng, 3, 2) for _ in range(ncols)]
            row = [Poly(ring_xyz, {m: c * scale / rng.choice((1, 1, 2, 5)) for m, c in e.terms.items()})
                   for e in row]
            matrix.append(row)
            scaled += scale != 1
        for size in range(1, min(nrows, ncols) + 1):
            expected = [Poly(ring_xyz, _fraction_minor(matrix, I, J))
                        for I, J in minor_keys(nrows, ncols, size)]
            got = minors(matrix, size)
            assert got == expected
            assert all(type(c) is Fraction for p in got for c in p.terms.values())
    assert scaled > 20


def minor_keys(nrows, ncols, size):
    """(row set, column set) of each minor, in the order `minors` lists them."""
    return [(I, J) for I in combinations(range(nrows), size) for J in combinations(range(ncols), size)]


def test_minors_indexed_lexicographic_order(ring_xyzu):
    sing = surface_232(ring_xyzu)
    keys = minor_keys(2, 3, 2)
    assert keys == sorted(keys)
    mat = sing.matrix
    assert minors(mat, 2) == [
        mat[i0][j0] * mat[i1][j1] - mat[i0][j1] * mat[i1][j0] for (i0, i1), (j0, j1) in keys
    ]
    assert minors(mat, 2) == [
        P("z*x - (y+u)*u", ring_xyzu), P("z*y - x*u", ring_xyzu), P("(y+u)*y - x^2", ring_xyzu),
    ]


def test_minors_alternating_under_row_swap(ring_xyz):
    rng = random.Random(3)
    keys = minor_keys(3, 3, 2)
    for _ in range(10):
        mat = [[random_poly(ring_xyz, rng, max_terms=3, max_deg=2) for _ in range(3)] for _ in range(3)]
        swapped = [mat[1], mat[0], mat[2]]
        original = dict(zip(keys, minors(mat, 2)))
        flipped = dict(zip(keys, minors(swapped, 2)))
        # minors whose row set contains both swapped rows change sign
        assert flipped[((0, 1), (0, 1))] == -original[((0, 1), (0, 1))]
        assert flipped[((0, 1), (1, 2))] == -original[((0, 1), (1, 2))]
        # minors missing one of the swapped rows move place but keep value
        assert flipped[((1, 2), (0, 1))] == original[((0, 2), (0, 1))]


def test_higher_minors_lie_in_lower_minor_ideal(ring_xyz):
    # Laplace expansion: each (i+1)-minor is a combination of i-minors
    rng = random.Random(11)
    for _ in range(5):
        mat = [[random_poly(ring_xyz, rng, max_terms=2, max_deg=1, allow_constant=False)
                for _ in range(3)] for _ in range(3)]
        for i in (1, 2):
            gens = [p for p in minors(mat, i) if p]
            if not gens:
                continue
            basis = standard_basis(Ideal(gens))
            for bigger in minors(mat, i + 1):
                assert basis.contains(bigger)


# -- the data model ----------------------------------------------------------------

def test_entries_must_vanish_at_origin(ring_xy):
    with pytest.raises(ValueError, match="vanish"):
        DetSingularity.create(ring_xy, [[P("1 + x", ring_xy)]], 1)


def test_expected_dimension_must_be_positive(ring_xy):
    # 2x2 of a 2x2 matrix in two variables: d = 2 - 1 = 1 fine; t = 1: d = 2 - 4 < 0
    mat = [[P("x", ring_xy), P("y", ring_xy)], [P("y", ring_xy), P("x", ring_xy)]]
    with pytest.raises(ValueError, match="positive"):
        DetSingularity.create(ring_xy, mat, 1)
    assert DetSingularity.create(ring_xy, mat, 2).dim == 1


def test_transpose_normalization(ring_xyzu):
    tall = [[P("z", ring_xyzu), P("u", ring_xyzu)],
            [P("y+u", ring_xyzu), P("x", ring_xyzu)],
            [P("x", ring_xyzu), P("y", ring_xyzu)]]
    sing = DetSingularity.create(ring_xyzu, tall, 2)
    assert sing.transposed
    assert (sing.m, sing.n) == (2, 3)
    wide = surface_232(ring_xyzu)
    assert not wide.transposed
    assert set(sing.defining_minors()) == set(wide.defining_minors())


# -- strata ------------------------------------------------------------------------

def test_stratum_ideal_rank_one_is_entry_ideal(ring_xyzu):
    sing = surface_232(ring_xyzu)
    gens = stratum_ideal(sing, 1).generators
    assert [p.render() for p in gens] == ["z", "y + u", "x", "u", "x", "y"]


def test_stratum_ideal_top_is_defining_ideal(ring_xyzu):
    sing = surface_232(ring_xyzu)
    assert list(stratum_ideal(sing, sing.t).generators) == sing.defining_minors()


def test_stratum_ideal_generic_rank_one_is_maximal_ideal():
    sing = generic_232()
    assert colength(stratum_ideal(sing, 1)) == 1


def test_stratum_index_range(ring_xyzu):
    sing = surface_232(ring_xyzu)
    with pytest.raises(ValueError):
        stratum_ideal(sing, 0)
    with pytest.raises(ValueError):
        stratum_ideal(sing, 3)


# -- classification ------------------------------------------------------------------

def test_classify_surface_example(ring_xyzu):
    cls = classify(surface_232(ring_xyzu))
    assert cls.smoothable and cls.isolated
    assert cls.stratum_dims == (0, 2)
    assert cls.sing_stratum_colength == 1


def test_classify_generic_boundary_case():
    cls = classify(generic_232())
    assert not cls.smoothable
    assert cls.isolated
    assert cls.stratum_dims == (0, 4)
    assert cls.sing_stratum_colength == 1


def test_classify_complete_intersection_format(ring_xyz):
    # one row, t = 1: a complete intersection of codimension n
    sing = DetSingularity.create(ring_xyz, [[P("x^2+y^2+z^2", ring_xyz)]], 1)
    cls = classify(sing)
    assert cls.smoothable and cls.isolated
    assert cls.sing_stratum_colength is None


def test_classify_smoothability_never_appears_when_enlarging_ambient():
    # the surface matrix in C^N, the variables past x, y, z, u unused:
    # the isolation bound of type (2, 3, 2) is 6, and enlarging N can only
    # destroy smoothability, never create it
    was_smoothable = True
    for ambient in range(4, 9):
        ring = RingContext(("x", "y", "z", "u") + tuple("v%d" % i for i in range(ambient - 4)))
        cls = classify(surface_232(ring))
        assert cls.smoothable == (ambient < 6)
        assert cls.isolated == (ambient <= 6)
        assert was_smoothable or not cls.smoothable
        was_smoothable = cls.smoothable
        # the entries generate the maximal ideal only in C^4
        assert cls.sing_stratum_colength == (1 if ambient == 4 else INFINITE)


def test_stratum_dim_formula():
    assert stratum_dim(2, 3, 1, 4) == 0
    assert stratum_dim(2, 3, 2, 4) == 2
    assert stratum_dim(2, 3, 2, 6) == 4
    assert stratum_dim(3, 3, 1, 5) == 0


# -- the count of rank-deficient points ------------------------------------------------

def test_chi_singular_stratum_generic():
    sing = generic_232()
    assert chi_singular_stratum(sing) == 1
    report = stabilized_colength(stratum_ideal(sing, 1))
    assert report.stabilized and report.value == 1


def test_chi_singular_stratum_squared_entry():
    ring = RingContext(tuple("abcdef"))
    rows = [[ring.variable(0), ring.variable(1), ring.variable(2)],
            [ring.variable(3), ring.variable(4), ring.variable(5) ** 2]]
    sing = DetSingularity.create(ring, rows, 2)
    assert chi_singular_stratum(sing) == 2
    report = stabilized_colength(stratum_ideal(sing, 1))
    assert report.stabilized and report.value == 2


def test_chi_singular_stratum_preconditions(ring_xyzu):
    # smoothable case (N=4 < 6): the formula does not apply
    with pytest.raises(ValueError, match="N ="):
        chi_singular_stratum(surface_232(ring_xyzu))
    ring = RingContext(("x", "y"))
    hyper = DetSingularity.create(ring, [[P("x*y", ring)]], 1)
    with pytest.raises(ValueError, match="t = 1"):
        chi_singular_stratum(hyper)


def test_one_form_validation(ring_xy):
    with pytest.raises(ValueError):
        OneForm([ring_xy.variable(0)])  # wrong length
    form = OneForm.differential(P("x^2 + y^2", ring_xy))
    assert [c.render() for c in form.coefficients] == ["2*x", "2*y"]
    dz = OneForm.coordinate(ring_xy, "y")
    assert [c.render() for c in dz.coefficients] == ["0", "1"]


def test_one_form_coordinate_checks_the_variable(ring_xyz):
    for index, name in enumerate(ring_xyz.variables):
        assert OneForm.coordinate(ring_xyz, index) == OneForm.coordinate(ring_xyz, name)
        assert OneForm.coordinate(ring_xyz, index) == OneForm.differential(ring_xyz.variable(index))
    for index in (-1, ring_xyz.nvars):
        with pytest.raises(IndexError, match="variable index out of range"):
            OneForm.coordinate(ring_xyz, index)
    with pytest.raises(KeyError):
        OneForm.coordinate(ring_xyz, "w")


XY, XYZ = RingContext(("x", "y")), RingContext(("x", "y", "z"))
X, Y = XY.variable(0), XY.variable(1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: OneForm([]), "a 1-form needs at least one coefficient", id="form-empty"),
    pytest.param(lambda: OneForm([X, XYZ.variable(1)]), "mixed ring contexts in 1-form coefficients",
                 id="form-mixed-rings"),
    pytest.param(lambda: DetSingularity.create(XY, [], 1), "defining matrix must be nonempty", id="matrix-empty"),
    pytest.param(lambda: DetSingularity.create(XY, [[X, Y], [X]], 1), "defining matrix must be rectangular",
                 id="matrix-ragged"),
    pytest.param(lambda: DetSingularity.create(XY, [[X, XYZ.variable(2)]], 1), "matrix entry from a different ring",
                 id="entry-other-ring"),
    pytest.param(lambda: DetSingularity.create(XY, [[X, Y]], 2), "need 1 <= t <= min(m, n)", id="t-too-large"),
])
def test_rejected_data_names_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
