import copy
import pickle

import pytest

from detindex import (
    INFINITE,
    FreeModuleElement,
    Ideal,
    RingContext,
    colength,
    minors,
    monomials_up_to,
    parse_poly,
    standard_basis,
    stabilized_colength,
    stabilized_module_colength,
    truncated_colength_oracle,
    truncated_module_colength,
)

from conftest import chi_bar_sum, truncated_dims


def P(src, ring):
    return parse_poly(src, ring)


def test_chi_bar_sum_examples():
    assert chi_bar_sum(2, 2) == 1
    for m in range(1, 8):
        assert chi_bar_sum(m, 1) == -1
    assert chi_bar_sum(5, 3) == -6


def test_chi_bar_sum_precondition():
    with pytest.raises(ValueError):
        chi_bar_sum(2, 3)


def test_truncated_ideal_simple(ring_xy):
    report = truncated_colength_oracle(Ideal([P("x", ring_xy), P("y", ring_xy)]), 3)
    assert report.stabilized
    assert report.value == 1


def test_truncated_ideal_staircase(ring_xy):
    I = Ideal([P("x^2", ring_xy), P("y^3", ring_xy)])
    report = truncated_colength_oracle(I, 8)
    assert report.stabilized
    assert report.value == 6
    report = truncated_colength_oracle(I, 5)
    assert report.per_degree == ((1, 1), (2, 3), (3, 5), (4, 6), (5, 6))


def test_per_degree_dimensions_monotone(ring_xy):
    report = truncated_colength_oracle(Ideal([P("x^2 - y^3", ring_xy)]), 7)
    dims = [dim for _, dim in report.per_degree]
    assert all(b >= a for a, b in zip(dims, dims[1:]))
    assert not report.stabilized  # a plane curve: infinite colength


def test_stabilized_flag_requires_two_equal_caps(ring_xy):
    I = Ideal([P("x", ring_xy), P("y^2", ring_xy)])
    report = truncated_colength_oracle(I, 4)
    assert report.stabilized
    assert report.per_degree[-1][1] == report.per_degree[-2][1] == 2


def test_doubling_driver_gives_up_honestly(ring_xy):
    I = Ideal([P("x*y", ring_xy)])
    report = stabilized_colength(I, ceiling=8)
    assert not report.stabilized
    assert report.agrees_with(INFINITE)
    assert not report.agrees_with(5)


def test_infinite_is_a_sentinel_not_a_float(ring_xy):
    assert not isinstance(INFINITE, float)
    assert copy.copy(INFINITE) is INFINITE
    assert copy.deepcopy(INFINITE) is INFINITE
    assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE
    I = Ideal([P("x*y", ring_xy)])
    assert colength(I) is INFINITE
    report = stabilized_colength(I, ceiling=8)
    assert not report.stabilized
    assert report.agrees_with(INFINITE)
    assert not report.agrees_with(float("inf"))


def test_truncated_module_matches_engine(ring_xy):
    x, y = ring_xy.variable("x"), ring_xy.variable("y")
    zero = ring_xy.zero_poly()
    gens = [
        FreeModuleElement(2, [x, zero]),
        FreeModuleElement(2, [zero, y]),
        FreeModuleElement(2, [y * y, x]),
    ]
    report = truncated_module_colength(2, gens, 6)
    assert report.stabilized
    from detindex import module_colength

    assert module_colength(2, gens) == report.value


def test_module_rank_counts_components(ring_xy):
    x, y = ring_xy.variable("x"), ring_xy.variable("y")
    gens = [
        FreeModuleElement(2, [x, ring_xy.zero_poly()]),
        FreeModuleElement(2, [y, ring_xy.zero_poly()]),
        FreeModuleElement(2, [ring_xy.zero_poly(), x]),
        FreeModuleElement(2, [ring_xy.zero_poly(), y]),
    ]
    report = truncated_module_colength(2, gens, 4)
    assert report.stabilized
    assert report.value == 2  # one copy of the residue field per component


def test_oracle_matches_engine_on_mixed_corpus(ring_xy, ring_xyz):
    corpus = [
        Ideal([P("x^3", ring_xy), P("y^2", ring_xy)]),
        Ideal([P("x^2 + y^2", ring_xy), P("x*y", ring_xy)]),
        Ideal([P("x - y^2", ring_xy), P("y^4", ring_xy)]),
        Ideal([P("x^2 + y^2 + z^2", ring_xyz), P("x*y", ring_xyz), P("z^3", ring_xyz)]),
    ]
    for ideal in corpus:
        report = stabilized_colength(ideal)
        assert report.stabilized
        assert colength(ideal) == report.value


def test_degree_cap_validation(ring_xy):
    with pytest.raises(ValueError):
        truncated_colength_oracle(Ideal([P("x", ring_xy)]), 0)


def test_ceiling_below_start_cap_is_evaluated(ring_xy):
    I = Ideal([P("x", ring_xy), P("y", ring_xy)])
    report = stabilized_colength(I, ceiling=2)
    assert report.per_degree == ((1, 1), (2, 1))
    assert report.stabilized and report.value == 1 and report.degree_cap == 2
    J = Ideal([P("x", ring_xy), P("y^2", ring_xy)])
    report = stabilized_colength(J, ceiling=3)
    assert report.per_degree == ((2, 2), (3, 2))
    assert report.stabilized and report.value == 2
    report = stabilized_colength(J, ceiling=2)
    assert report.per_degree == ((1, 1), (2, 2))
    assert not report.stabilized and report.degree_cap == 2


def test_ceiling_below_two_is_rejected(ring_xy):
    I = Ideal([P("x", ring_xy), P("y", ring_xy)])
    for ceiling in (0, 1):
        with pytest.raises(ValueError, match="ceiling"):
            stabilized_colength(I, ceiling=ceiling)


def test_ceiling_off_the_doubling_schedule_is_tried(ring_xy):
    I = Ideal([P("x^9", ring_xy), P("y", ring_xy)])
    report = stabilized_colength(I, ceiling=10)
    assert report.per_degree == ((3, 3), (4, 4), (7, 7), (8, 8), (9, 9), (10, 9))
    assert report.stabilized and report.value == 9 and report.degree_cap == 10
    report = stabilized_colength(I, ceiling=12)
    assert [cap for cap, _ in report.per_degree] == [3, 4, 7, 8, 11, 12]
    assert report.stabilized and report.value == 9 and report.degree_cap == 12
    report = stabilized_colength(I, ceiling=9)
    assert report.per_degree == ((3, 3), (4, 4), (7, 7), (8, 8), (9, 9))
    assert not report.stabilized and report.degree_cap == 9


def test_ceilings_on_the_doubling_schedule_keep_it(ring_xy):
    I = Ideal([P("x*y", ring_xy)])
    for ceiling, caps in ((8, [3, 4, 7, 8]), (64, [3, 4, 7, 8, 15, 16, 31, 32, 63, 64])):
        report = stabilized_colength(I, ceiling=ceiling)
        assert [cap for cap, _ in report.per_degree] == caps
        assert report.per_degree[-1] == (ceiling, 2 * ceiling - 1)
        assert not report.stabilized and report.degree_cap == ceiling


def test_module_oracle_checks_rank(ring_xy):
    x, y = ring_xy.variable("x"), ring_xy.variable("y")
    gens = [FreeModuleElement(2, [x, y])]
    for oracle in (stabilized_module_colength, lambda r, g: truncated_module_colength(r, g, 4)):
        for rank in (1, 3):
            with pytest.raises(ValueError, match="module generators of mixed rank"):
                oracle(rank, gens)
        with pytest.raises(ValueError, match="rank must be positive"):
            oracle(0, gens)


def test_module_oracle_checks_rings(ring_xy, ring_xyz):
    gens = [FreeModuleElement(1, [P("x", ring_xy)]), FreeModuleElement(1, [P("z", ring_xyz)])]
    for oracle in (stabilized_module_colength, lambda r, g: truncated_module_colength(r, g, 4)):
        with pytest.raises(ValueError, match="mixed ring contexts"):
            oracle(1, gens)


def _staircase_per_degree(ideal, cap):
    """(d, #standard monomials of degree < d) from the engine's staircase."""
    leads = standard_basis(ideal).staircase
    standard = [
        sum(m)
        for m in monomials_up_to(ideal.ring.nvars, cap - 1)
        if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
    ]
    return tuple((d, sum(1 for deg in standard if deg < d)) for d in range(1, cap + 1))


def test_oracle_matches_engine_degree_by_degree(ring_xy, ring_xyz, ring_xyzu):
    surface = [[P(e, ring_xyzu) for e in row] for row in (("z", "y+u", "x"), ("u", "x", "y"))]
    corpus = [
        (Ideal([P("x^2 - y^3", ring_xy)]), 8),
        (Ideal([P("x^2 + y^5", ring_xy), P("x*y", ring_xy)]), 8),
        (Ideal([P("x^2 + y^2 + z^2", ring_xyz), P("x*y - z^3", ring_xyz), P("y*z", ring_xyz)]), 7),
        (Ideal(minors(surface, 2) + [P("x + y + z + u^3", ring_xyzu)]), 6),
        (Ideal([P("(x + 2*y - 3*z)^3", ring_xyz)] + [P(v + "^3", ring_xyz) for v in "xyz"]), 8),
    ]
    for ideal, cap in corpus:
        report = truncated_colength_oracle(ideal, cap)
        assert report.per_degree == _staircase_per_degree(ideal, cap)


def test_denominators_do_not_change_per_degree(ring_xy):
    # 6 * (x/2 + y/3) = 3x + 2y: dropping the denominators would give m
    rational = Ideal([P("1/2*x + 1/3*y", ring_xy), P("3*x + 2*y", ring_xy), P("y^2", ring_xy)])
    integer = Ideal([P("3*x + 2*y", ring_xy), P("3*x + 2*y", ring_xy), P("7*y^2", ring_xy)])
    report = truncated_colength_oracle(rational, 6)
    assert report == truncated_colength_oracle(integer, 6)
    assert report.per_degree[-1] == (6, 2)
    gens = [
        FreeModuleElement(2, [P("1/2*x", ring_xy), P("-2/3*y", ring_xy)]),
        FreeModuleElement(2, [P("y", ring_xy), P("x", ring_xy)]),
    ]
    scaled = [
        FreeModuleElement(2, [P("3*x", ring_xy), P("-4*y", ring_xy)]),
        FreeModuleElement(2, [P("y", ring_xy), P("x", ring_xy)]),
    ]
    assert truncated_module_colength(2, gens, 6) == truncated_module_colength(2, scaled, 6)


def test_generator_with_no_term_below_the_cap_gives_no_row(ring_xy):
    with_high = truncated_colength_oracle(Ideal([P("x^5", ring_xy), P("y", ring_xy)]), 4)
    assert with_high == truncated_colength_oracle(Ideal([P("y", ring_xy)]), 4)
    assert with_high.per_degree == ((1, 1), (2, 2), (3, 3), (4, 4))
    alone = truncated_colength_oracle(Ideal([P("x^4 + x*y^3", ring_xy)]), 4)
    assert alone.per_degree == ((1, 1), (2, 3), (3, 6), (4, 10))


def test_pivots_leading_with_a_coefficient_other_than_one(ring_xy):
    # leads 2x and 3y: reducing 3xy against the pivot 2xy + 3y^3 rescales the row
    ideal = Ideal([P("2*x + 3*y^2", ring_xy), P("3*y - 5*x^2", ring_xy)])
    gens = [{(0, (1, 0)): 2, (0, (0, 2)): 3}, {(0, (0, 1)): 3, (0, (2, 0)): -5}]
    report = truncated_colength_oracle(ideal, 4)
    assert report.per_degree == truncated_dims(1, 2, 4, gens) == ((1, 1), (2, 1), (3, 1), (4, 1))
    assert report.stabilized and report.value == colength(ideal) == 1
    # 4x + 6y^2 cancels against the pivot 2x + 3y^2 only at the lead ratio 2;
    # no row leads at y^2, so a wrong ratio would leave a new pivot there
    curve = Ideal([P("2*x + 3*y^2", ring_xy), P("4*x + 6*y^2", ring_xy)])
    gens = [{(0, (1, 0)): 2, (0, (0, 2)): 3}, {(0, (1, 0)): 4, (0, (0, 2)): 6}]
    report = truncated_colength_oracle(curve, 4)
    assert report.per_degree == truncated_dims(1, 2, 4, gens) == ((1, 1), (2, 2), (3, 3), (4, 4))
