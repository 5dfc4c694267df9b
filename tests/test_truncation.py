import copy
import pickle

import pytest

from detindex import (
    INFINITE,
    FreeModuleElement,
    Ideal,
    RingContext,
    colength,
    parse_poly,
    stabilized_colength,
    stabilized_module_colength,
    truncated_colength_oracle,
    truncated_module_colength,
)

from conftest import chi_bar_sum


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
    report = truncated_colength_oracle(Ideal([P("x^2", ring_xy), P("y^3", ring_xy)]), 8)
    assert report.stabilized
    assert report.value == 6


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
    report = stabilized_colength(I, start=4, ceiling=8)
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
    report = stabilized_colength(I, start=4, ceiling=8)
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
