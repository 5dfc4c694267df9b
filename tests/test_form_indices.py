import os
import random
import re
from fractions import Fraction

import pytest

from detindex import (
    INFINITE,
    DetSingularity,
    FreeModuleElement,
    Ideal,
    OneForm,
    Poly,
    RingContext,
    algebra_ideal,
    algebra_index,
    colength,
    gmvs_ideal,
    gmvs_index,
    icis_ideal,
    icis_index,
    module_colength,
    omega_quotient_dim,
    omega_quotient_generators,
    parse_poly,
    stabilized_colength,
    stabilized_module_colength,
)
from detindex.cli import ManifestData, load_manifest

MANIFEST_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


def P(src, ring):
    return parse_poly(src, ring)


@pytest.fixture
def surface(ring_xyzu):
    return DetSingularity.create(
        ring_xyzu,
        [[P("z", ring_xyzu), P("y+u", ring_xyzu), P("x", ring_xyzu)],
         [P("u", ring_xyzu), P("x", ring_xyzu), P("y", ring_xyzu)]],
        2,
    )


@pytest.fixture
def du(ring_xyzu):
    return OneForm.coordinate(ring_xyzu, "u")


# -- the minors algebra ------------------------------------------------------------

def test_algebra_index_surface_example(surface, du):
    assert algebra_index(surface, du) == 5


def test_algebra_index_surface_oracle_confirmed(surface, du):
    report = stabilized_colength(algebra_ideal(surface, du))
    assert report.stabilized and report.value == 5


def test_algebra_index_simple_zero_on_smooth_line(ring_xy):
    sing = DetSingularity.create(ring_xy, [[P("x", ring_xy)]], 1)
    form = OneForm([P("0", ring_xy), P("y", ring_xy)])
    assert algebra_index(sing, form) == 1


def test_algebra_index_node(ring_xy):
    sing = DetSingularity.create(ring_xy, [[P("x^2 + y^2", ring_xy)]], 1)
    form = OneForm.coordinate(ring_xy, "x")
    assert algebra_index(sing, form) == 2
    report = stabilized_colength(algebra_ideal(sing, form))
    assert report.stabilized and report.value == 2


def test_algebra_index_infinite_for_nonisolated_zero(ring_xy):
    # a double line: dy restricted to it vanishes identically on no isolated set
    sing = DetSingularity.create(ring_xy, [[P("x^2", ring_xy)]], 1)
    form = OneForm.coordinate(ring_xy, "y")
    assert algebra_index(sing, form) == INFINITE


def test_algebra_index_invariant_under_unit_times_form(surface, du, ring_xyzu):
    unit = ring_xyzu.one_poly() + ring_xyzu.variable(0)
    scaled = OneForm([unit * c for c in du.coefficients])
    assert algebra_index(surface, scaled) == 5


def test_algebra_index_invariant_under_constant_conjugation(surface, du, ring_xyzu):
    rng = random.Random(19)
    ring = ring_xyzu
    for _ in range(3):
        while True:
            a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if a[0][0] * a[1][1] - a[0][1] * a[1][0] != 0:
                break
        while True:
            b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            det_b = (
                b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
                - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
                + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
            )
            if det_b != 0:
                break
        f = surface.matrix
        zero = ring.zero_poly()
        af = [[sum((ring.constant(a[i][k]) * f[k][j] for k in range(2)), zero)
               for j in range(3)] for i in range(2)]
        afb = [[sum((af[i][k] * ring.constant(b[k][j]) for k in range(3)), zero)
                for j in range(3)] for i in range(2)]
        conjugated = DetSingularity.create(ring, afb, 2)
        assert algebra_index(conjugated, du) == 5


# -- complete intersections -----------------------------------------------------------

def test_icis_index_quadric_surface(ring_xyz):
    f = P("x^2 + y^2 + z^2", ring_xyz)
    assert icis_index([f], OneForm.coordinate(ring_xyz, "z")) == 2


def test_icis_index_cusp(ring_xy):
    f = P("x^3 + y^2", ring_xy)
    assert icis_index([f], OneForm.coordinate(ring_xy, "x")) == 3


def test_icis_index_smooth_point(ring_xy):
    f = P("x", ring_xy)
    form = OneForm([P("0", ring_xy), P("y", ring_xy)])
    assert icis_index([f], form) == 1


def test_icis_requires_fewer_equations_than_variables(ring_xy):
    with pytest.raises(ValueError):
        icis_ideal([P("x", ring_xy), P("y", ring_xy)], OneForm.coordinate(ring_xy, "x"))


def test_icis_matches_determinantal_route(ring_xyz):
    # a one-row matrix is the complete-intersection format
    f = P("x^2 + y^3 + z^2", ring_xyz)
    sing = DetSingularity.create(ring_xyz, [[f]], 1)
    form = OneForm.coordinate(ring_xyz, "z")
    assert algebra_index(sing, form) == icis_index([f], form)


# -- space curves -----------------------------------------------------------------------

def test_gmvs_simple_zero_on_coordinate_axis(ring_xyz):
    sing = DetSingularity.create(ring_xyz, [[P("x", ring_xyz), P("y", ring_xyz)]], 1)
    form = OneForm([P("0", ring_xyz), P("0", ring_xyz), P("z", ring_xyz)])
    assert gmvs_index(sing, form) == 1


def test_gmvs_order_two_zero_on_axis(ring_xyz):
    sing = DetSingularity.create(ring_xyz, [[P("x", ring_xyz), P("y", ring_xyz)]], 1)
    form = OneForm([P("0", ring_xyz), P("0", ring_xyz), P("z^2", ring_xyz)])
    assert gmvs_index(sing, form) == 2


def test_gmvs_agrees_with_algebra_index_on_space_curve(ring_xyz):
    mat = [[P("z", ring_xyz), P("y", ring_xyz), P("x", ring_xyz)],
           [P("0", ring_xyz), P("x", ring_xyz), P("y", ring_xyz)]]
    sing = DetSingularity.create(ring_xyz, mat, 2)
    form = OneForm([P("1", ring_xyz), P("0", ring_xyz), P("1", ring_xyz)])
    value = gmvs_index(sing, form)
    assert value == algebra_index(sing, form)
    report = stabilized_colength(gmvs_ideal(sing, form))
    assert report.stabilized and report.value == value


def test_gmvs_format_validation(ring_xyzu, ring_xyz):
    square = DetSingularity.create(ring_xyz, [[P("x", ring_xyz)]], 1)
    with pytest.raises(ValueError, match="type"):
        gmvs_ideal(square, OneForm.coordinate(ring_xyz, "z"))
    wide = DetSingularity.create(
        ring_xyzu,
        [[P("z", ring_xyzu), P("y+u", ring_xyzu), P("x", ring_xyzu)],
         [P("u", ring_xyzu), P("x", ring_xyzu), P("y", ring_xyzu)]],
        2,
    )
    with pytest.raises(ValueError, match="three-variable"):
        gmvs_ideal(wide, OneForm.coordinate(ring_xyzu, "u"))


def test_icis_and_gmvs_ideals_are_algebra_ideals():
    # the two special cases are the minors algebra under extra hypotheses:
    # same generators, in the same order
    curve = ManifestData(load_manifest(os.path.join(MANIFEST_DIR, "space-curve-233.json")))
    sing = curve.singularity()
    assert gmvs_ideal(sing, curve.form).generators == algebra_ideal(sing, curve.form).generators
    icis = ManifestData(load_manifest(os.path.join(MANIFEST_DIR, "icis-a1-surface.json")))
    row = icis.matrix[0]
    one_row = DetSingularity.create(icis.ring, [row], 1)
    assert icis_ideal(row, icis.form).generators == algebra_ideal(one_row, icis.form).generators


# -- top differential forms modulo the wedge ----------------------------------------------

def test_omega_quotient_surface_example(surface, du):
    assert omega_quotient_dim(surface, du) == 6


def test_omega_quotient_surface_oracle_confirmed(surface, du):
    rank, gens = omega_quotient_generators(surface, du)
    report = stabilized_module_colength(rank, gens)
    assert report.stabilized and report.value == 6


# -- the benchmark germs (values certified by the truncation oracle) -----------------

def test_benchmark_threefold_indices():
    ring = RingContext(("x", "y", "z", "u", "v"))
    rows = [["x", "y", "z"], ["u", "v", "x+y^2"]]
    threefold = DetSingularity.create(ring, [[P(e, ring) for e in row] for row in rows], 2)
    form = OneForm.differential(P("v + u^2 + z^3", ring))
    assert algebra_index(threefold, form) == 8
    assert omega_quotient_dim(threefold, form) == 8


def test_benchmark_surface_quartic_form_indices(surface, ring_xyzu):
    form = OneForm.differential(P("x^4 + y^4 + z^4 + u^4 + x*y*z", ring_xyzu))
    assert algebra_index(surface, form) == 30
    assert omega_quotient_dim(surface, form) == 32


def test_omega_quotient_smooth_curve(ring_xy):
    sing = DetSingularity.create(ring_xy, [[P("x", ring_xy)]], 1)
    form = OneForm([P("0", ring_xy), P("y", ring_xy)])
    assert omega_quotient_dim(sing, form) == 1


def test_omega_quotient_matches_icis_on_quadric(ring_xyz):
    f = P("x^2 + y^2 + z^2", ring_xyz)
    sing = DetSingularity.create(ring_xyz, [[f]], 1)
    form = OneForm.coordinate(ring_xyz, "z")
    assert omega_quotient_dim(sing, form) == 2
    assert icis_index([f], form) == 2


def test_semicontinuity_bounds_on_surface_example(surface, du):
    # the resolution index of this form is 3; both algebraic indices dominate it
    assert algebra_index(surface, du) >= 3
    assert omega_quotient_dim(surface, du) >= 3


def renders(gens):
    return [[c.render() for c in g.components] for g in gens]


def test_omega_generators_hand_written(ring_xyz):
    # [[x]] in C^3 with dz: basis forms dx^dy, dx^dz, dy^dz
    sing = DetSingularity.create(ring_xyz, [[P("x", ring_xyz)]], 1)
    rank, gens = omega_quotient_generators(sing, OneForm.coordinate(ring_xyz, "z"))
    assert rank == 3
    assert renders(gens) == [
        ["x", "0", "0"], ["0", "x", "0"], ["0", "0", "x"],  # x times each basis form
        ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],  # dx wedged with dx, dy, dz
        ["0", "-1", "0"], ["0", "0", "-1"], ["0", "0", "0"],  # dz wedged with dx, dy, dz
    ]


def test_wedge_generators_flip_sign_with_equation(ring_xyz):
    f = P("x*y + z^2", ring_xyz)
    form = OneForm.coordinate(ring_xyz, "z")
    rank_plus, plus = omega_quotient_generators(DetSingularity.create(ring_xyz, [[f]], 1), form)
    rank_minus, minus = omega_quotient_generators(DetSingularity.create(ring_xyz, [[-f]], 1), form)
    assert rank_plus == rank_minus == 3
    assert len(plus) == len(minus) == 9
    for a, b in zip(plus[:6], minus[:6]):
        assert [-c for c in a.components] == list(b.components)
    assert plus[6:] == minus[6:]


def test_wedge_sign_convention(ring_xyz):
    sing = DetSingularity.create(ring_xyz, [[P("x", ring_xyz)]], 1)
    _, gens = omega_quotient_generators(sing, OneForm.coordinate(ring_xyz, "z"))
    # the last three wedge dz with dx, dy, dz; basis 2-subsets in
    # lexicographic order: (0,1), (0,2), (1,2)
    by_k = dict(zip(((0,), (1,), (2,)), gens[-3:]))
    # dz wedge dx = -e_{(0,2)}
    assert [c.render() for c in by_k[(0,)].components] == ["0", "-1", "0"]
    # dz wedge dy = -e_{(1,2)}
    assert [c.render() for c in by_k[(1,)].components] == ["0", "0", "-1"]
    # dz wedge dz = 0
    assert not any(by_k[(2,)].components)


def test_wedge_sign_flip_leaves_colength(surface, ring_xyzu):
    plus = OneForm.coordinate(ring_xyzu, "u")
    minus = OneForm([-c for c in plus.coefficients])
    assert omega_quotient_dim(surface, plus) == omega_quotient_dim(surface, minus)


ICIS_COINCIDENCE_CASES = []
for k in range(1, 5):
    ICIS_COINCIDENCE_CASES.append(("y^2 + x^%d" % (k + 1), ("x", "y"), "x"))
    ICIS_COINCIDENCE_CASES.append(("y^2 + x^%d" % (k + 1), ("x", "y"), "y"))
ICIS_COINCIDENCE_CASES.append(("x^2 + y^2 + z^2", ("x", "y", "z"), "z"))
ICIS_COINCIDENCE_CASES.append(("x^2 + y^2 + z^2", ("x", "y", "z"), "x"))


@pytest.mark.parametrize("equation, variables, direction", ICIS_COINCIDENCE_CASES)
def test_icis_coincidence(equation, variables, direction):
    ring = RingContext(variables)
    f = P(equation, ring)
    sing = DetSingularity.create(ring, [[f]], 1)
    form = OneForm.coordinate(ring, direction)
    hom = omega_quotient_dim(sing, form)
    alg = icis_index([f], form)
    assert hom == alg
    assert hom != INFINITE


XY, XYZ = RingContext(("x", "y")), RingContext(("x", "y", "z"))
XYZU = RingContext(("x", "y", "z", "u"))
SURFACE_232 = DetSingularity.create(
    XYZU, [[parse_poly(e, XYZU) for e in row] for row in (("z", "y+u", "x"), ("u", "x", "y"))], 2)
DZ = OneForm.coordinate(XYZ, "z")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: icis_ideal([], DZ), "need at least one defining equation", id="icis-no-equation"),
    pytest.param(lambda: icis_ideal([XY.variable(0)], DZ), "defining polynomial from a different ring",
                 id="icis-other-ring"),
    pytest.param(lambda: algebra_ideal(SURFACE_232, DZ), "form and singularity live in different rings",
                 id="algebra-other-ring"),
    pytest.param(lambda: omega_quotient_generators(SURFACE_232, DZ), "form and singularity live in different rings",
                 id="omega-other-ring"),
])
def test_rejected_inputs_name_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
