import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from detindex import (
    INFINITE,
    LOCAL_ORDER,
    DetSingularity,
    FreeModuleElement,
    Ideal,
    OneForm,
    Poly,
    RingContext,
    StandardBasis,
    algebra_ideal,
    colength,
    module_colength,
    module_standard_basis,
    normal_form,
    omega_quotient_generators,
    parse_poly,
    standard_basis,
    truncated_colength_oracle,
)

from detindex import standard_bases
from detindex.rings import mono_div, mono_divides, mono_lcm, mono_mul
from detindex.standard_bases import (
    _Vec,
    _global_normal_form,
    _order_key,
    _s_vector,
    _vec_from_components,
    _vec_primitive,
)

from conftest import random_poly, time_limit


def P(src, ring):
    return parse_poly(src, ring)


def ideal(ring, *srcs):
    return Ideal([P(s, ring) for s in srcs])


# -- normal form ---------------------------------------------------------------

def test_normal_form_divides(ring_xy):
    assert normal_form(P("x^2", ring_xy), [P("x", ring_xy)]).is_zero()


def test_normal_form_irreducible(ring_xy):
    assert normal_form(P("y", ring_xy), [P("x", ring_xy)]) == P("y", ring_xy)


def test_normal_form_absorbs_unit(ring_xy):
    # x - x^2 = (1 - x) * x, so it lies in (x) of the local ring
    assert normal_form(P("x - x^2", ring_xy), [P("x", ring_xy)]).is_zero()


def test_normal_form_is_total_on_zero(ring_xy):
    assert normal_form(ring_xy.zero_poly(), [P("x", ring_xy)]).is_zero()


def test_normal_form_leading_term_reduced(ring_xyz):
    rng = random.Random(31)
    for _ in range(40):
        basis = [p for p in (random_poly(ring_xyz, rng, allow_constant=False) for _ in range(3)) if p]
        if not basis:
            continue
        f = random_poly(ring_xyz, rng)
        r = normal_form(f, basis)
        if r:
            lm = r.leading_monomial()
            for g in basis:
                gm = g.leading_monomial()
                assert not all(a <= b for a, b in zip(gm, lm))


def test_normal_form_rejects_reducers_from_another_ring(ring_xy, ring_xyz):
    # Cutting exponent tuples to the shorter ring reduced x*y by z to 0.
    with pytest.raises(ValueError, match="mixed ring contexts"):
        normal_form(P("x*y", ring_xy), [P("z", ring_xyz)])
    with pytest.raises(ValueError, match="mixed ring contexts"):
        normal_form(P("x", ring_xyz), [P("x", ring_xy)])


# -- the engine's order key ------------------------------------------------------

def test_order_key_is_the_local_order_with_the_slot_cleared():
    rng = random.Random(5)
    for nvars in (1, 2, 3, 4):
        monos = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(200)]
        by_engine = sorted(monos, key=lambda m: _order_key(m + (0,)))
        assert by_engine == sorted(monos, key=LOCAL_ORDER.sort_key)


def test_order_key_is_the_local_order_within_one_total_degree():
    rng = random.Random(6)
    for nvars in (1, 2, 3, 4):
        for degree in (0, 3, 7):
            monos = []
            for _ in range(100):
                m = [0] * nvars
                for _ in range(rng.randint(0, degree)):
                    m[rng.randrange(nvars)] += 1
                monos.append(tuple(m) + (degree - sum(m),))
            by_engine = sorted(monos, key=_order_key)
            assert by_engine == sorted(monos, key=lambda m: LOCAL_ORDER.sort_key(m[:-1]))


# -- standard bases --------------------------------------------------------------

def test_unit_factor_absorbed(ring_xy):
    sb = standard_basis(Ideal([P("x - x^2", ring_xy)]))
    assert [e.render() for e in sb.elements] == ["x"]
    assert sb.staircase == ((1, 0),)


def test_monomial_ideal_already_reduced(ring_xy):
    sb = standard_basis(ideal(ring_xy, "x^2", "y^3"))
    assert set(e.render() for e in sb.elements) == {"x^2", "y^3"}


def test_generators_reduce_to_zero(ring_xyz):
    rng = random.Random(77)
    for _ in range(25):
        gens = [p for p in (random_poly(ring_xyz, rng, allow_constant=False) for _ in range(3)) if p]
        if not gens:
            continue
        sb = standard_basis(Ideal(gens))
        for g in gens:
            assert sb.normal_form(g).is_zero()


def test_basis_pairwise_reduced(ring_xyz):
    rng = random.Random(78)
    for _ in range(25):
        gens = [p for p in (random_poly(ring_xyz, rng, allow_constant=False) for _ in range(3)) if p]
        if not gens:
            continue
        sb = standard_basis(Ideal(gens))
        for i, a in enumerate(sb.staircase):
            for j, b in enumerate(sb.staircase):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))


def test_surface_ideal_has_infinite_colength(ring_xyzu):
    # 2x2 minors of a 2x3 matrix in four variables cut a surface
    surf = ideal(ring_xyzu, "z*x - u*(y+u)", "z*y - u*x", "(y+u)*y - x^2")
    assert colength(surf) == INFINITE
    # the truncated quotient keeps growing: monomials survive in every degree
    report = truncated_colength_oracle(surf, 6)
    dims = [dim for _, dim in report.per_degree]
    assert all(b > a for a, b in zip(dims, dims[1:]))
    assert not report.stabilized


# -- colength ---------------------------------------------------------------------

def test_colength_maximal_ideal(ring_xyzu):
    assert colength(ideal(ring_xyzu, "x", "y", "z", "u")) == 1


def test_colength_staircase_box(ring_xy):
    assert colength(ideal(ring_xy, "x^2", "y^3")) == 6


def test_colength_collapses_to_quadric(ring_xyz):
    I = ideal(ring_xyz, "x^2 + y^2 + z^2", "x", "y")
    assert colength(I) == 2
    report = truncated_colength_oracle(I, 5)
    assert report.stabilized and report.value == 2


def test_colength_unit_ideal(ring_xy):
    assert colength(ideal(ring_xy, "1 + x")) == 0


def test_colength_zero_ideal(ring_xy):
    assert colength(ideal(ring_xy, "0")) == INFINITE


def test_colength_powers_of_maximal_ideal():
    for nvars in range(1, 5):
        ring = RingContext(tuple("abcd"[:nvars]))
        for k in range(1, 5):
            gens = []
            for combo in combinations_with_replacement(range(nvars), k):
                mono = [0] * nvars
                for i in combo:
                    mono[i] += 1
                gens.append(Poly(ring, {tuple(mono): ring.coeff(1)}))
            assert colength(Ideal(gens)) == math.comb(nvars + k - 1, nvars)


ZERO_DIM_CORPUS = [
    (("x", "y"), ("x^2", "y^3")),
    (("x", "y"), ("x^3 + y^2", "y^3")),
    (("x", "y"), ("x - x^2", "y^4 + x^5")),
    (("x", "y", "z"), ("x^2 + y^2 + z^2", "x", "y")),
    (("x", "y", "z"), ("x^2", "y^2", "z^2", "x*y + z")),
]


@pytest.mark.parametrize("vars_, gens", ZERO_DIM_CORPUS)
def test_colength_invariances(vars_, gens):
    ring = RingContext(vars_)
    base = [P(s, ring) for s in gens]
    value = colength(Ideal(base))
    assert value != INFINITE
    # permuting generators
    assert colength(Ideal(list(reversed(base)))) == value
    # multiplying one generator by the unit 1 + x_i
    unit = ring.one_poly() + ring.variable(0)
    scaled = [base[0] * unit] + base[1:]
    assert colength(Ideal(scaled)) == value
    # adding a multiple of one generator to another
    if len(base) >= 2:
        mixed = [base[0] + ring.variable(0) * base[1]] + base[1:]
        assert colength(Ideal(mixed)) == value


def test_colength_matches_oracle_on_corpus():
    for vars_, gens in ZERO_DIM_CORPUS:
        ring = RingContext(vars_)
        I = Ideal([P(s, ring) for s in gens])
        report = truncated_colength_oracle(I, 10)
        assert report.stabilized
        assert colength(I) == report.value


def sparse_staircase(ring, e):
    """(x^e, y^e, z^e, xy, yz, xz): colength 3e - 2 under a box of e^3."""
    return ideal(ring, "x^%d" % e, "y^%d" % e, "z^%d" % e, "x*y", "y*z", "x*z")


@pytest.mark.parametrize("e, expected", [(100, 298), (200, 598), (2000, 5998)])
def test_colength_is_not_bounded_by_the_staircase_box(ring_xyz, e, expected):
    with time_limit(2):
        assert colength(sparse_staircase(ring_xyz, e)) == expected


def test_colength_of_a_huge_pure_power():
    ring = RingContext(("x",))
    with time_limit(2):
        assert colength(ideal(ring, "x^99999999")) == 99999999


def _brute_force_count(leads, nvars):
    """Monomials under the box of the least pure powers that no lead
    divides, or INFINITE when some variable has no pure power."""
    caps = []
    for i in range(nvars):
        pure = [m[i] for m in leads if all(e == 0 for k, e in enumerate(m) if k != i)]
        if not pure:
            return INFINITE
        caps.append(min(pure))
    return sum(
        1
        for point in product(*(range(c) for c in caps))
        if not any(all(a <= b for a, b in zip(m, point)) for m in leads)
    )


def _random_leads(rng, nvars):
    leads = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)) for _ in range(rng.randint(0, 5))]
    for i in range(nvars):
        if rng.random() < 0.8:  # otherwise the pure power of variable i is missing
            leads.append(tuple(rng.randint(1, 6) if k == i else 0 for k in range(nvars)))
    if leads and rng.random() < 0.5:
        lead = rng.choice(leads)
        leads.append(lead)  # a duplicate
        leads.append(tuple(e + rng.randint(0, 2) for e in lead))  # a non-minimal lead
    rng.shuffle(leads)
    return leads


def test_staircase_count_matches_brute_force():
    rng = random.Random(20260)
    cases = []
    for nvars in range(1, 5):
        cases.append((nvars, []))  # the zero ideal
        cases.append((nvars, [(0,) * nvars]))  # the unit ideal
        cases.extend((nvars, _random_leads(rng, nvars)) for _ in range(150))
    values = set()
    for nvars, leads in cases:
        ring = RingContext(tuple("abcd"[:nvars]))
        value = StandardBasis(ring, LOCAL_ORDER, (), tuple(leads)).colength()
        assert value == _brute_force_count(leads, nvars), (nvars, leads)
        values.add(value)
    assert INFINITE in values and 0 in values and len(values) > 20


# -- modules -----------------------------------------------------------------------

def test_module_rank_one_is_colength():
    ring = RingContext(("x",))
    gens = [FreeModuleElement(1, [P("x", ring)])]
    assert module_colength(1, gens) == 1


def test_module_quotient_spanned_by_first_basis_vector():
    ring = RingContext(("x",))
    zero, one, x = ring.zero_poly(), ring.one_poly(), ring.variable(0)
    gens = [FreeModuleElement(2, [x, zero]), FreeModuleElement(2, [zero, one])]
    assert module_colength(2, gens) == 1


def test_module_free_quotient_is_infinite():
    ring = RingContext(("x",))
    one, x = ring.one_poly(), ring.variable(0)
    gens = [FreeModuleElement(2, [x, one])]
    assert module_colength(2, gens) == INFINITE


def test_module_rank_one_agrees_with_ideal_colength(ring_xyz):
    rng = random.Random(13)
    for _ in range(15):
        gens = [p for p in (random_poly(ring_xyz, rng, allow_constant=False) for _ in range(3)) if p]
        if not gens:
            continue
        as_module = [FreeModuleElement(1, [g]) for g in gens]
        assert module_colength(1, as_module) == colength(Ideal(gens))


def test_module_colength_sums_component_staircases(ring_xyz):
    zero = ring_xyz.zero_poly()
    first = [FreeModuleElement(2, [g, zero]) for g in sparse_staircase(ring_xyz, 100).generators]
    second = [FreeModuleElement(2, [zero, g]) for g in sparse_staircase(ring_xyz, 2000).generators]
    with time_limit(2):
        assert module_colength(2, first + second) == 298 + 5998
        assert module_colength(2, first) == INFINITE  # the second component is free


def test_module_colength_without_generators_is_infinite():
    assert module_colength(2, []) == INFINITE


def test_module_standard_basis_membership(ring_xy):
    x, y = ring_xy.variable("x"), ring_xy.variable("y")
    zero = ring_xy.zero_poly()
    gens = [
        FreeModuleElement(2, [x, y]),
        FreeModuleElement(2, [y * y, zero]),
        FreeModuleElement(2, [zero, x + y]),
    ]
    basis = module_standard_basis(2, gens)
    assert basis
    for el in basis:
        assert el.rank == 2


# -- coefficients at the API --------------------------------------------------------

def _all_fractions(polys):
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


def test_results_have_fraction_coefficients(ring_xyz):
    # monic elements whose leading coefficient is already 1 included
    sb = standard_basis(ideal(ring_xyz, "x^2", "y^3 - x*y", "z"))
    assert _all_fractions(sb.elements)
    rng = random.Random(91)
    zero = ring_xyz.zero_poly()
    for _ in range(15):
        gens = [p for p in (random_poly(ring_xyz, rng, allow_constant=False) for _ in range(3)) if p]
        if not gens:
            continue
        assert _all_fractions(standard_basis(Ideal(gens)).elements)
        f = random_poly(ring_xyz, rng)
        assert _all_fractions([normal_form(f, gens)])
        module = [FreeModuleElement(2, [g, zero if i % 2 else g * g]) for i, g in enumerate(gens)]
        for el in module_standard_basis(2, module):
            assert _all_fractions(el.components)


def test_denominators_do_not_change_the_basis(ring_xyz):
    rational = ideal(ring_xyz, "1/2*x + 1/3*y", "1/5*y^2 - 3/7*x*z", "2/9*z^3")
    integral = ideal(ring_xyz, "3*x + 2*y", "7*y^2 - 15*x*z", "z^3")
    assert standard_basis(rational) == standard_basis(integral)
    f = P("x^2 + 1/4*y*z - z^2", ring_xyz)
    assert normal_form(f, rational.generators) == normal_form(f, integral.generators)
    zero = ring_xyz.zero_poly()

    def as_module(gens):
        return [FreeModuleElement(2, [g, zero]) for g in gens] + [
            FreeModuleElement(2, [gens[0] * gens[1], gens[2]])]

    assert (module_standard_basis(2, as_module(rational.generators))
            == module_standard_basis(2, as_module(integral.generators)))


def test_mixed_rank_generators_rejected(ring_xy):
    x = ring_xy.variable("x")
    with pytest.raises(ValueError):
        module_colength(2, [FreeModuleElement(1, [x])])


def test_module_generators_from_several_rings_rejected(ring_xy, ring_xyz):
    # Was INFINITE: exponent tuples of both rings met in one engine.
    gens = [FreeModuleElement(1, [P("x", ring_xy)]), FreeModuleElement(1, [P("z", ring_xyz)])]
    for engine in (module_standard_basis, module_colength):
        with pytest.raises(ValueError, match="mixed ring contexts"):
            engine(1, gens)


def test_module_rank_must_be_positive():
    for engine in (module_standard_basis, module_colength):
        with pytest.raises(ValueError, match="rank must be positive"):
            engine(0, [])


def test_ideal_validation(ring_xy, ring_xyz):
    with pytest.raises(ValueError):
        Ideal([])
    with pytest.raises(ValueError):
        Ideal([ring_xy.variable(0), ring_xyz.variable(0)])


# -- the in-place kernel against the copying step it replaced ---------------------

def _reference_cancel(f, fshift, g, gshift):
    """gc * x^fshift * f - fc * x^gshift * g, made primitive, where fc and
    gc are the lead coefficients of f and g divided by their gcd, built in
    a fresh dict.  A None fshift leaves f unmultiplied."""
    fc = f.lead()[1]
    gc = g.lead()[1]
    d = math.gcd(fc, gc)
    fc, gc = fc // d, gc // d
    if fshift is None:
        out = {k: c * gc for k, c in f.terms.items()}
    else:
        out = {(comp, mono_mul(m, fshift)): c * gc for (comp, m), c in f.terms.items()}
    for (comp, m), c in g.terms.items():
        key = (comp, mono_mul(m, gshift))
        delta = c * fc
        if key in out:
            s = out[key] - delta
            if s:
                out[key] = s
            else:
                del out[key]
        else:
            out[key] = -delta
    return _vec_primitive(_Vec(out))


def _reference_reduce_step(h, g):
    """Cancel the lead of h against g."""
    return _reference_cancel(h, None, g, mono_div(h.lead()[0][1], g.lead()[0][1]))


def _reference_spair(gi, gj):
    mi = gi.lead()[0][1]
    mj = gj.lead()[0][1]
    lcm_ij = mono_lcm(mi, mj)
    return _reference_cancel(gi, mono_div(lcm_ij, mi), gj, mono_div(lcm_ij, mj))


def _reference_s_vector(gi, gj, lcm_ij):
    """Stands in for `_s_vector` in the completion."""
    assert mono_lcm(gi.lead()[0][1], gj.lead()[0][1]) == lcm_ij
    return dict(_reference_spair(gi, gj).terms)


def _reference_global_normal_form(terms, reducers, ties=None):
    """Lead reduction one primitive copying step at a time, choosing
    among all divisors by (terms, -lead degree, lead order key, index):
    the reducer before it ran in place.  Appends to ties the lead of each
    step where more than one divisor had the fewest terms."""
    h = _vec_primitive(_Vec(dict(terms)))
    while h:
        (hcomp, hmono), _ = h.lead()
        keyed = []
        for idx, g in enumerate(reducers):
            (gcomp, gmono), _ = g.lead()
            if gcomp == hcomp and mono_divides(gmono, hmono):
                keyed.append(((len(g.terms), -sum(gmono), _order_key(gmono), idx), g))
        if not keyed:
            return h
        keyed.sort(key=lambda kg: kg[0])
        if ties is not None and len(keyed) > 1 and keyed[0][0][0] == keyed[1][0][0]:
            ties.append(hmono)
        h = _reference_reduce_step(h, keyed[0][1])
    return h


def _reference_mora_normal_form(f, reducers, grown):
    """Mora's weak normal form one primitive copying step at a time; appends
    to grown the lead of each partial remainder T keeps."""
    T = list(reducers)
    h = f
    while h:
        (hcomp, hmono), _ = h.lead()
        best, best_key = None, None
        for idx, g in enumerate(T):
            (gcomp, gmono), _ = g.lead()
            if gcomp != hcomp or not mono_divides(gmono, hmono):
                continue
            gk = _order_key(gmono)
            key = (g.ecart(), -gk[0], tuple(-x for x in gk[1]), idx)
            if best is None or key < best_key:
                best, best_key = g, key
        if best is None:
            return h
        if best.ecart() > h.ecart():
            T.append(h)
            grown.append(hmono)
        h = _reference_reduce_step(h, best)
    return h


def _random_homogeneous_vec(rng, nvars, rank, degree, nterms):
    """Primitive vector whose terms all have total degree `degree`, the
    homogenizing slot included."""
    terms = {}
    for _ in range(nterms):
        mono = [0] * (nvars + 1)
        for _ in range(degree):
            mono[rng.randrange(nvars + 1)] += 1
        terms[(rng.randrange(rank), tuple(mono))] = rng.choice((-6, -3, -2, -1, 1, 2, 3, 4, 9))
    return _vec_primitive(_Vec(terms))


@pytest.mark.parametrize("rank", [1, 2])
def test_s_vector_made_primitive_matches_reference(rank):
    rng = random.Random(30 + rank)
    pairs = zero = scaled = 0
    while pairs < 150:
        gi, gj = (
            _random_homogeneous_vec(rng, 3, rank, rng.randint(1, 4), rng.randint(1, 6))
            for _ in range(2)
        )
        if rng.random() < 0.1:
            gj = _vec_primitive(_Vec({k: 3 * c for k, c in gi.terms.items()}))
        (ci, mi), ai = gi.lead()
        (cj, mj), aj = gj.lead()
        if ci != cj:
            continue
        got = _vec_primitive(_Vec(_s_vector(gi, gj, mono_lcm(mi, mj))))
        assert got.terms == _reference_spair(gi, gj).terms
        pairs += 1
        zero += not got
        scaled += ai % aj != 0  # gc != 1: the kernel scales h
    assert zero > 5
    assert scaled > 30


def test_mora_normal_form_matches_reference():
    # Two variables: in three, some random inputs hit the long Mora chains
    # a highest-corner cut would end.
    rng = random.Random(11)
    ring = RingContext(("x", "y"))
    grown, reduced = [], 0
    with time_limit(20):
        for _ in range(300):
            basis = [random_poly(ring, rng, 3, 3, allow_constant=False) for _ in range(3)]
            f = random_poly(ring, rng, 5, 4, allow_constant=False)
            reducers = [_vec_from_components([g]) for g in basis if g]
            start = _vec_from_components([f])
            expected = _reference_mora_normal_form(start, reducers, grown)
            got = normal_form(f, basis)
            if expected is start:
                assert got is f
            else:
                assert got == standard_bases._components(expected, 1, ring)[0]
                reduced += 1
    assert reduced > 100
    assert len(grown) > 50


@pytest.mark.parametrize("rank", [1, 2])
def test_in_place_reducer_matches_step_by_step_reference(rank):
    rng = random.Random(8 + rank)
    ties, reduced = [], 0
    for _ in range(60):
        # eight reducers of 1-3 terms: several share a length
        reducers = [
            _random_homogeneous_vec(rng, 3, rank, rng.randint(1, 3), rng.randint(1, 3))
            for _ in range(8)
        ]
        f = _random_homogeneous_vec(rng, 3, rank, rng.randint(3, 6), rng.randint(4, 12))
        expected = _reference_global_normal_form(f.terms, reducers, ties)
        with time_limit(10):
            assert _global_normal_form(dict(f.terms), reducers).terms == expected.terms
        reduced += expected.terms != f.terms
    assert reduced > 40
    assert len(ties) > 20


def _threefold_and_form():
    ring = RingContext(("x", "y", "z", "u", "v"))
    rows = [["x", "y", "z"], ["u", "v", "x+y^2"]]
    threefold = DetSingularity.create(ring, [[P(e, ring) for e in row] for row in rows], 2)
    return threefold, OneForm.differential(P("v + u^2 + z^3", ring))


def _dense_ideal(k):
    """(l^k, x^k, y^k, z^k, u^k) for a linear form l with nonzero coefficients."""
    ring = RingContext(("x", "y", "z", "u"))
    return ideal(ring, "(x + 2*y - 3*z + 5*u)^%d" % k, *("%s^%d" % (v, k) for v in "xyzu"))


@pytest.mark.parametrize("make", [
    lambda: _dense_ideal(4),
    lambda: _dense_ideal(5),
    lambda: algebra_ideal(*_threefold_and_form()),
], ids=["dense-k4", "dense-k5", "threefold-algebra"])
def test_completion_matches_step_by_step_reference(monkeypatch, make):
    I = make()
    got = standard_basis(I)
    monkeypatch.setattr(standard_bases, "_s_vector", _reference_s_vector)
    monkeypatch.setattr(standard_bases, "_global_normal_form", _reference_global_normal_form)
    assert standard_basis(I) == got


def test_module_completion_matches_step_by_step_reference(monkeypatch):
    rank, gens = omega_quotient_generators(*_threefold_and_form())
    got = module_standard_basis(rank, gens)
    monkeypatch.setattr(standard_bases, "_s_vector", _reference_s_vector)
    monkeypatch.setattr(standard_bases, "_global_normal_form", _reference_global_normal_form)
    assert module_standard_basis(rank, gens) == got


def test_dense_k7_colength_within_time_bound():
    # 1451 = sum over d of max(0, h_d - h_(d-7)), h the Hilbert function
    # of the monomial complete intersection (x^7, y^7, z^7, u^7).
    with time_limit(20):
        assert colength(_dense_ideal(7)) == 1451
