import copy
import pickle
import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate, product
from math import comb, gcd
from operator import mul

import pytest

from detindex import (
    INFINITE,
    FreeModuleElement,
    Ideal,
    RingContext,
    colength,
    minors,
    parse_poly,
    standard_basis,
    stabilized_colength,
    stabilized_module_colength,
)
from detindex import truncation

from conftest import _rank, chi_bar_sum, oracle_dims, random_poly, rng_for, truncated_dims


def P(src, ring):
    return parse_poly(src, ring)


def kernel_dims(rank, gens, nvars, cap):
    """(d, H(d)) for d = 1..cap from one elimination at cap, outside the oracle's rounds."""
    dims = truncation._hilbert_samuel(rank, truncation._gen_terms(gens), nvars, cap)
    return tuple(enumerate(dims))[1:]


def ideal_dims(ideal, cap):
    return kernel_dims(1, ((g,) for g in ideal.generators), ideal.ring.nvars, cap)


def module_dims(rank, gens, cap):
    return kernel_dims(rank, (gen.components for gen in gens), gens[0].ring.nvars, cap)


def record_caps(monkeypatch):
    """The caps the oracle's rounds run their eliminations at, in order."""
    caps = []
    kernel = truncation._hilbert_samuel

    def recording(rank, gen_terms, nvars, cap):
        caps.append(cap)
        return kernel(rank, gen_terms, nvars, cap)

    monkeypatch.setattr(truncation, "_hilbert_samuel", recording)
    return caps


def test_chi_bar_sum_examples():
    assert chi_bar_sum(2, 2) == 1
    for m in range(1, 8):
        assert chi_bar_sum(m, 1) == -1
    assert chi_bar_sum(5, 3) == -6


def test_chi_bar_sum_precondition():
    with pytest.raises(ValueError):
        chi_bar_sum(2, 3)


def test_truncated_ideal_simple(ring_xy):
    report = stabilized_colength(Ideal([P("x", ring_xy), P("y", ring_xy)]), ceiling=3)
    assert report.stabilized
    assert report.value == 1
    assert report.per_degree == ((1, 1), (2, 1), (3, 1))


def test_truncated_ideal_staircase(ring_xy):
    I = Ideal([P("x^2", ring_xy), P("y^3", ring_xy)])
    report = stabilized_colength(I, ceiling=8)
    assert report.stabilized
    assert report.value == 6
    report = stabilized_colength(I, ceiling=5)
    assert report.per_degree == ((1, 1), (2, 3), (3, 5), (4, 6), (5, 6))


def test_per_degree_dimensions_monotone(ring_xy):
    report = stabilized_colength(Ideal([P("x^2 - y^3", ring_xy)]), ceiling=7)
    assert [d for d, _ in report.per_degree] == list(range(1, 8))
    dims = [dim for _, dim in report.per_degree]
    assert all(b >= a for a, b in zip(dims, dims[1:]))
    assert not report.stabilized  # a plane curve: infinite colength


def test_stabilized_flag_requires_two_equal_caps(ring_xy):
    I = Ideal([P("x", ring_xy), P("y^2", ring_xy)])
    report = stabilized_colength(I, ceiling=4)
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
    report = stabilized_module_colength(2, gens, ceiling=6)
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
    report = stabilized_module_colength(2, gens, ceiling=4)
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


def test_ceiling_below_start_cap_is_evaluated(ring_xy, monkeypatch):
    caps = record_caps(monkeypatch)
    I = Ideal([P("x", ring_xy), P("y", ring_xy)])
    report = stabilized_colength(I, ceiling=2)
    assert caps == [2]
    assert report.per_degree == ((1, 1), (2, 1))
    assert report.stabilized and report.value == 1 and report.degree_cap == 2
    J = Ideal([P("x", ring_xy), P("y^2", ring_xy)])
    caps.clear()
    report = stabilized_colength(J, ceiling=3)
    assert caps == [3]
    assert report.per_degree == ((1, 1), (2, 2), (3, 2))
    assert report.stabilized and report.value == 2
    caps.clear()
    report = stabilized_colength(J, ceiling=2)
    assert caps == [2]
    assert report.per_degree == ((1, 1), (2, 2))
    assert not report.stabilized and report.degree_cap == 2


def test_ceiling_below_two_is_rejected(ring_xy):
    I = Ideal([P("x", ring_xy), P("y", ring_xy)])
    for ceiling in (0, 1):
        with pytest.raises(ValueError, match="ceiling"):
            stabilized_colength(I, ceiling=ceiling)


def test_rounds_end_at_a_ceiling_off_the_doubling_schedule(ring_xy, monkeypatch):
    caps = record_caps(monkeypatch)
    I = Ideal([P("x^9", ring_xy), P("y", ring_xy)])  # H(d) = min(d, 9)
    for ceiling, schedule, stabilized in ((10, [4, 5, 7, 10], True), (12, [4, 6, 8, 12], True),
                                          (9, [4, 6, 9], False)):
        caps.clear()
        report = stabilized_colength(I, ceiling=ceiling)
        assert caps == schedule
        assert report.per_degree == tuple((d, min(d, 9)) for d in range(1, ceiling + 1))
        assert report.stabilized is stabilized and report.degree_cap == ceiling
        assert report.value == 9


def test_rounds_below_a_ceiling_on_the_doubling_schedule(ring_xy, monkeypatch):
    caps = record_caps(monkeypatch)
    I = Ideal([P("x*y", ring_xy)])  # H(d) = 2d - 1
    for ceiling, schedule in ((8, [4, 6, 8]), (64, [4, 5, 7, 10, 14, 20, 29, 43, 64])):
        caps.clear()
        report = stabilized_colength(I, ceiling=ceiling)
        assert caps == schedule
        assert report.per_degree == tuple((d, 2 * d - 1) for d in range(1, ceiling + 1))
        assert not report.stabilized and report.degree_cap == ceiling


def _random_presentation(rng, trial):
    """(ring, rank, generators as component lists): an ideal for trial < 8,
    a rank-2 module after; in 2 or 3 variables; often with pure powers."""
    ring = RingContext(("x", "y", "z")[: 2 + trial % 2])
    rank = 1 + trial // 8
    gens = []
    for _ in range(rng.randint(1, 3)):
        gens.append([random_poly(ring, rng, max_terms=3, allow_constant=False) for _ in range(rank)])
    if rng.random() < 0.6:  # pure powers make the colength finite
        k = rng.randint(2, 4)
        gens += [[ring.variable(i) ** k if c == comp else ring.zero_poly() for c in range(rank)]
                 for i in range(ring.nvars) for comp in range(rank)]
    return ring, rank, [g for g in gens if any(g)]


def _oracle_report(ring, rank, gens, ceiling):
    if rank == 1:
        return stabilized_colength(Ideal([g for g, in gens]), ceiling=ceiling)
    return stabilized_module_colength(rank, [FreeModuleElement(rank, g) for g in gens], ceiling=ceiling)


def test_report_is_the_hilbert_samuel_function_of_its_last_cap():
    # per_degree is H(1..degree_cap), and H stays at the value past a
    # stabilized degree_cap: so a report at ceiling D gives
    # H(1..D), whether it stopped early or not
    rng = rng_for("hilbert-samuel")
    stopped_early = gave_up = 0
    for cap in (2, 3, 5, 8, 11):
        for trial in range(16):
            ring, rank, gens = _random_presentation(rng, trial)
            if not gens:
                continue
            report = _oracle_report(ring, rank, gens, cap)
            assert report.per_degree == kernel_dims(rank, gens, ring.nvars, report.degree_cap)
            assert oracle_dims(report, cap) == kernel_dims(rank, gens, ring.nvars, cap)
            stopped_early += report.stabilized and report.degree_cap < cap
            gave_up += not report.stabilized
    assert stopped_early >= 10 and gave_up >= 10


def _doubling_report(rank, gens, nvars, ceiling):
    """The report of the doubling schedule ORACLE_START_CAP, twice that,
    ..., the ceiling, stopping at the first cap D with H(D-1) = H(D)."""
    gen_terms = truncation._gen_terms(gens)
    cap = min(truncation.ORACLE_START_CAP, ceiling)
    while True:
        dims = truncation._hilbert_samuel(rank, gen_terms, nvars, cap)
        stabilized = dims[cap - 1] == dims[cap]
        if stabilized or cap == ceiling:
            return truncation.TruncationReport(cap, tuple(enumerate(dims))[1:], stabilized, dims[cap])
        cap = min(2 * cap, ceiling)


def test_rounds_report_what_the_doubling_schedule_reports(monkeypatch):
    # the rounds only decide where the eliminations run: every report is
    # the doubling schedule's, also where the last round stops below the
    # reported degree_cap and per_degree is extended past it
    rng = rng_for("hilbert-samuel")
    last_round_below = gave_up = 0
    for ceiling in (2, 3, 5, 8, 11, 16):
        for trial in range(16):
            ring, rank, gens = _random_presentation(rng, trial)
            if not gens:
                continue
            caps = record_caps(monkeypatch)
            report = _oracle_report(ring, rank, gens, ceiling)
            monkeypatch.undo()
            assert report == _doubling_report(rank, gens, ring.nvars, ceiling)
            last_round_below += caps[-1] < report.degree_cap
            gave_up += not report.stabilized
    assert last_round_below >= 5 and gave_up >= 10


def test_rounds_stop_at_the_plateau(ring_xy, monkeypatch):
    caps = record_caps(monkeypatch)
    I = Ideal([P("x^9", ring_xy), P("y", ring_xy)])  # H(d) = min(d, 9): plateau at 10
    report = stabilized_colength(I, ceiling=64)
    assert caps == [4, 5, 7, 10]
    assert report.degree_cap == 16
    assert report.per_degree == tuple((d, min(d, 9)) for d in range(1, 17))
    assert report.stabilized and report.value == 9
    # a plateau at 8 ends the rounds at 10, past the reported degree_cap 8,
    # where the doubling schedule stopped at 8 after two eliminations
    caps.clear()
    J = Ideal([P("x^7", ring_xy), P("y", ring_xy)])
    report = stabilized_colength(J, ceiling=64)
    assert caps == [4, 5, 7, 10]
    assert report.per_degree == tuple((d, min(d, 7)) for d in range(1, 9))
    assert report == _doubling_report(1, [(P("x^7", ring_xy),), (P("y", ring_xy),)], 2, 64)


def _monomials_below(nvars, cap):
    """Every exponent tuple of degree < cap, by degree, then lex."""
    return sorted((m for m in product(range(cap), repeat=nvars) if sum(m) < cap),
                  key=lambda m: (sum(m), m))


def _unskipped_hilbert_samuel(rank, gen_terms, nvars, cap):
    """The elimination with no row skipped: every row of every generator
    is built and reduced, and columns are numbered through a table of
    the sorted (degree, component * cap^nvars + code) keys."""
    weights = [cap**i for i in range(nvars)]
    monos = [(sum(m), sum(map(mul, m, weights))) for m in _monomials_below(nvars, cap)]
    base = cap**nvars
    keys = sorted((deg, comp * base + code) for comp in range(rank) for deg, code in monos)
    column = {key: col for col, (_, key) in enumerate(keys)}
    pivots = {}
    for gen in gen_terms:
        terms = [
            (sum(m), comp * base + sum(map(mul, m, weights)), c)
            for (comp, m), c in gen
            if sum(m) < cap
        ]
        if not terms:
            continue
        mindeg = min(deg for deg, _, _ in terms)
        for mdeg, mcode in monos[: comb(cap - 1 - mindeg + nvars, nvars)]:
            row = {column[code + mcode]: c for deg, code, c in terms if deg < cap - mdeg}
            heap = sorted(row)
            lead = None
            while heap:
                col = heappop(heap)
                c = row.get(col)
                if c is None:
                    continue
                pivot = pivots.get(col)
                if pivot is None:
                    if lead is None:
                        lead = col
                    continue
                pc, tail = pivot
                del row[col]
                g = gcd(c, pc)
                a, b = pc // g, c // g
                for k in row:
                    row[k] *= a
                for k, v in tail:
                    s = row.get(k)
                    if s is None:
                        row[k] = -b * v
                        heappush(heap, k)
                    elif s - b * v:
                        row[k] = s - b * v
                    else:
                        del row[k]
            if lead is None:
                continue
            content = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
            pivots[lead] = (row.pop(lead) // content, [(k, v // content) for k, v in row.items()])
    free = [0] * cap
    for deg, _ in keys:
        free[deg] += 1
    for col in pivots:
        free[keys[col][0]] -= 1
    return list(accumulate(free, initial=0))


def _random_gen_terms(rng, rank, nvars):
    """Integer generators of a submodule of O^rank: a few random ones,
    some combinations of them with monomial factors (rows that reduce
    to zero), and often pure powers in every component."""
    def term():
        return (rng.randrange(rank), tuple(rng.randint(0, 3) for _ in range(nvars))), rng.randint(-4, 4) or 1

    gens = [dict(term() for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 2)):
        combo = {}
        for gen in rng.sample(gens, min(2, len(gens))):
            shift, scale = tuple(rng.randint(0, 1) for _ in range(nvars)), rng.randint(-3, 3) or 1
            for (comp, m), c in gen.items():
                key = (comp, tuple(map(sum, zip(m, shift))))
                combo[key] = combo.get(key, 0) + scale * c
        gens.append({key: c for key, c in combo.items() if c})
    if rng.random() < 0.5:
        k = rng.randint(1, 4)
        gens += [{(comp, tuple(k * (j == i) for j in range(nvars))): 1} for i in range(nvars) for comp in range(rank)]
    return [tuple(gen.items()) for gen in gens if gen]


def test_skipping_dependent_rows_keeps_every_dimension():
    # a multiple of a dependent row is dependent, so the skipped rows are
    # rows that would have reduced to zero: H must not move
    rng = random.Random("skip dependent rows")
    for trial in range(2400):
        rank, nvars, cap = 1 + trial % 3, 1 + trial // 3 % 4, 2 + trial // 12 % 7
        gen_terms = _random_gen_terms(rng, rank, nvars)
        expected = _unskipped_hilbert_samuel(rank, gen_terms, nvars, cap)
        assert truncation._hilbert_samuel(rank, gen_terms, nvars, cap) == expected, (rank, nvars, cap, gen_terms)


def test_multiples_of_a_dependent_row_are_not_built(ring_xy, monkeypatch):
    # (x, y) at cap 8: the 28 rows x*m are independent; of y's rows only
    # y*x reduces to zero, and every later multiplier divisible by x is
    # skipped, so 7 rows y^(k+1) remain: 28 + 8 rows are built, not 56
    built = []
    add_row = truncation._add_row

    def counting(row, pivots):
        built.append(add_row(row, pivots))
        return built[-1]

    monkeypatch.setattr(truncation, "_add_row", counting)
    assert ideal_dims(Ideal([P("x", ring_xy), P("y", ring_xy)]), 8) == tuple((d, 1) for d in range(1, 9))
    assert len(built) == 36 and built.count(False) == 1
    # (x, xy): the row xy reduces to zero, so every multiplier of degree 1
    # has a dependent divisor, and the generator's rows end there
    built.clear()
    ideal_dims(Ideal([P("x", ring_xy), P("x*y", ring_xy)]), 8)
    assert len(built) == 28 + 1 and built.count(False) == 1


def test_a_pivot_is_its_reduced_row_made_primitive():
    # one dict per pivot: the reduced row itself, led by its column with a
    # positive coefficient, content 1, and no column of an earlier pivot
    rng = random.Random("pivot rows")
    for trial in range(400):
        ncols = rng.randint(1, 12)
        pivots, rows = {}, []
        for _ in range(rng.randint(1, 10)):
            scale = rng.choice((1, 1, 2, 3))  # some rows are not primitive
            row = {k: scale * c for k in rng.sample(range(ncols), rng.randint(1, ncols)) if (c := rng.randint(-6, 6))}
            if row:
                rows.append([Fraction(row.get(k, 0)) for k in range(ncols)])
                if truncation._add_row(row, pivots) and gcd(*row.values()) == 1 and row[min(row)] > 0:
                    assert pivots[min(row)] is row  # already primitive: stored with no copy
        earlier = set()
        for col, pivot in pivots.items():
            assert type(pivot) is dict and min(pivot) == col
            assert pivot[col] > 0 and gcd(*pivot.values()) == 1
            assert not earlier & pivot.keys(), (trial, col, pivot)
            earlier.add(col)
        assert len(pivots) == _rank(rows)
        # a combination of the pivots reduces to zero and stores nothing
        before = copy.deepcopy(pivots)
        combo = {}
        for pivot in pivots.values():
            scale = rng.randint(-3, 3)
            for k, v in pivot.items():
                combo[k] = combo.get(k, 0) + scale * v
        combo = {k: c for k, c in combo.items() if c}
        if combo:
            assert truncation._add_row(combo, pivots) is False
            assert pivots == before


def _decoded_multipliers(nvars, cap):
    """truncation._multiplier_codes, each code read back as its base-cap
    digits (m_0, m_1, ...), as one list per degree."""
    return [[tuple(code // cap**i % cap for i in range(nvars)) for code in codes]
            for codes in truncation._multiplier_codes(nvars, cap)]


def test_multiplier_codes_hold_each_monomial_once_by_degree_then_lex():
    for nvars in range(1, 5):
        for cap in (2, 5, 8):
            per_degree = _decoded_multipliers(nvars, cap)
            assert len(per_degree) == cap
            for deg, monos in enumerate(per_degree):
                assert all(sum(m) == deg for m in monos), (nvars, cap, deg)
            assert [m for monos in per_degree for m in monos] == _monomials_below(nvars, cap)


def test_monomial_order_is_multiplicative():
    # the rows of a generator are built in this order, and skipping the
    # multiples of a dependent row is exact only because x_i*a comes
    # before x_i*b whenever a comes before b
    for nvars in range(1, 5):
        order = [m for monos in _decoded_multipliers(nvars, 8) for m in monos]
        position = {m: k for k, m in enumerate(order)}
        assert len(position) == len(order)
        for deg in range(7):
            same = [m for m in position if sum(m) == deg]
            for a in same:
                for b in same:
                    if position[a] < position[b]:
                        for i in range(nvars):
                            xa = tuple(e + (j == i) for j, e in enumerate(a))
                            xb = tuple(e + (j == i) for j, e in enumerate(b))
                            assert position[xa] < position[xb]


def test_module_oracle_checks_rank(ring_xy):
    x, y = ring_xy.variable("x"), ring_xy.variable("y")
    gens = [FreeModuleElement(2, [x, y])]
    for rank in (1, 3):
        with pytest.raises(ValueError, match="module generators of mixed rank"):
            stabilized_module_colength(rank, gens)
    with pytest.raises(ValueError, match="rank must be positive"):
        stabilized_module_colength(0, gens)


def test_module_oracle_needs_a_generator():
    with pytest.raises(ValueError, match="need at least one module generator"):
        stabilized_module_colength(1, [])


def test_module_oracle_checks_rings(ring_xy, ring_xyz):
    gens = [FreeModuleElement(1, [P("x", ring_xy)]), FreeModuleElement(1, [P("z", ring_xyz)])]
    with pytest.raises(ValueError, match="mixed ring contexts"):
        stabilized_module_colength(1, gens)


def _staircase_per_degree(ideal, cap):
    """(d, #standard monomials of degree < d) from the engine's staircase."""
    leads = standard_basis(ideal).staircase
    standard = [
        sum(m)
        for m in _monomials_below(ideal.ring.nvars, cap)
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
        report = stabilized_colength(ideal, ceiling=cap)
        assert oracle_dims(report, cap) == _staircase_per_degree(ideal, cap)


def test_denominators_do_not_change_per_degree(ring_xy):
    # 6 * (x/2 + y/3) = 3x + 2y: dropping the denominators would give m
    rational = Ideal([P("1/2*x + 1/3*y", ring_xy), P("3*x + 2*y", ring_xy), P("y^2", ring_xy)])
    integer = Ideal([P("3*x + 2*y", ring_xy), P("3*x + 2*y", ring_xy), P("7*y^2", ring_xy)])
    dims = ideal_dims(rational, 6)
    assert dims == ideal_dims(integer, 6)
    assert dims[-1] == (6, 2)
    gens = [
        FreeModuleElement(2, [P("1/2*x", ring_xy), P("-2/3*y", ring_xy)]),
        FreeModuleElement(2, [P("y", ring_xy), P("x", ring_xy)]),
    ]
    scaled = [
        FreeModuleElement(2, [P("3*x", ring_xy), P("-4*y", ring_xy)]),
        FreeModuleElement(2, [P("y", ring_xy), P("x", ring_xy)]),
    ]
    assert module_dims(2, gens, 6) == module_dims(2, scaled, 6)


def test_generator_with_no_term_below_the_cap_gives_no_row(ring_xy):
    with_high = stabilized_colength(Ideal([P("x^5", ring_xy), P("y", ring_xy)]), ceiling=4)
    assert with_high == stabilized_colength(Ideal([P("y", ring_xy)]), ceiling=4)
    assert with_high.per_degree == ((1, 1), (2, 2), (3, 3), (4, 4))
    alone = stabilized_colength(Ideal([P("x^4 + x*y^3", ring_xy)]), ceiling=4)
    assert alone.per_degree == ((1, 1), (2, 3), (3, 6), (4, 10))


def test_pivots_leading_with_a_coefficient_other_than_one(ring_xy):
    # leads 2x and 3y: reducing 3xy against the pivot 2xy + 3y^3 rescales the row
    ideal = Ideal([P("2*x + 3*y^2", ring_xy), P("3*y - 5*x^2", ring_xy)])
    gens = [{(0, (1, 0)): 2, (0, (0, 2)): 3}, {(0, (0, 1)): 3, (0, (2, 0)): -5}]
    assert ideal_dims(ideal, 4) == truncated_dims(1, 2, 4, gens) == ((1, 1), (2, 1), (3, 1), (4, 1))
    report = stabilized_colength(ideal, ceiling=4)
    assert report.stabilized and report.value == colength(ideal) == 1
    # 4x + 6y^2 cancels against the pivot 2x + 3y^2 only at the lead ratio 2;
    # no row leads at y^2, so a wrong ratio would leave a new pivot there
    curve = Ideal([P("2*x + 3*y^2", ring_xy), P("4*x + 6*y^2", ring_xy)])
    gens = [{(0, (1, 0)): 2, (0, (0, 2)): 3}, {(0, (1, 0)): 4, (0, (0, 2)): 6}]
    assert ideal_dims(curve, 4) == truncated_dims(1, 2, 4, gens) == ((1, 1), (2, 2), (3, 3), (4, 4))
