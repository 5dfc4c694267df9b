import heapq
import math
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

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
    omega_quotient_generators,
    parse_poly,
    stabilized_colength,
    standard_basis,
)

from detindex import standard_bases
from detindex.rings import mono_mul, sort_key
from detindex.standard_bases import (
    _Keys,
    _first_width,
    _global_normal_form,
    _reducer_entry,
    _s_vector,
    _staircase_walk,
    _vec_primitive,
)

from conftest import random_poly, time_limit


def P(src, ring):
    return parse_poly(src, ring)


def ideal(ring, *srcs):
    return Ideal([P(s, ring) for s in srcs])


# -- standard bases --------------------------------------------------------------

def test_staircase_lists_the_leading_monomials(ring_xyz):
    # The engine's leads and Poly.leading_monomial come from one order key.
    rng = random.Random(79)
    for _ in range(25):
        gens = [p for p in (random_poly(ring_xyz, rng, allow_constant=False) for _ in range(3)) if p]
        if not gens:
            continue
        sb = standard_basis(Ideal(gens))
        assert sb.staircase == tuple(e.leading_monomial() for e in sb.elements)


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
            assert sb.contains(g)


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
    report = stabilized_colength(surf, ceiling=6)
    assert [d for d, _ in report.per_degree] == list(range(1, 7))
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
    report = stabilized_colength(I, ceiling=5)
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
                gens.append(Poly(ring, {tuple(mono): Fraction(1)}))
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
        report = stabilized_colength(I, ceiling=10)
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


def _brute_force_top(leads, nvars):
    """(greatest degree of a monomial that no lead divides, -1 when there
    is none, or INFINITE; the set of such monomials of that degree), by
    enumeration under the box of the least pure powers as in
    _brute_force_count."""
    if _brute_force_count(leads, nvars) is INFINITE:
        return INFINITE, set()
    caps = [min(m[i] for m in leads if all(e == 0 for k, e in enumerate(m) if k != i))
            for i in range(nvars)]
    standard = [point for point in product(*(range(c) for c in caps))
                if not any(all(a <= b for a, b in zip(m, point)) for m in leads)]
    top = max(map(sum, standard), default=-1)
    return top, {point for point in standard if sum(point) == top}


def test_staircase_count_matches_brute_force():
    rng = random.Random(20260)
    cases = []
    for nvars in range(1, 5):
        cases.append((nvars, []))  # the zero ideal
        cases.append((nvars, [(0,) * nvars]))  # the unit ideal
        cases.extend((nvars, _random_leads(rng, nvars)) for _ in range(150))
    values, tops, corner_counts = set(), set(), set()
    for nvars, leads in cases:
        ring = RingContext(tuple("abcd"[:nvars]))
        value = StandardBasis(ring, LOCAL_ORDER, (), tuple(leads)).colength()
        assert value == _brute_force_count(leads, nvars), (nvars, leads)
        # the same walk gives the top degree of the staircase and its
        # corners, the standard monomials of that degree, as bare keys
        top, corners = _brute_force_top(leads, nvars)
        keys = _Keys(nvars, _first_width(0))
        count, walk_top, walk_corners = _staircase_walk(leads, keys.width)
        assert (count, walk_top) == (value, top), (nvars, leads)
        assert len(walk_corners) == len(corners), (nvars, leads)
        assert {keys.unpack(c) for c in walk_corners} == {(0, m) for m in corners}, (nvars, leads)
        values.add(value)
        tops.add(top)
        corner_counts.add(len(corners))
    assert INFINITE in values and 0 in values and len(values) > 20
    assert INFINITE in tops and -1 in tops and len(tops) > 10
    assert 0 in corner_counts and max(corner_counts) > 1


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


def test_module_colength_without_generators_is_infinite(ring_xy):
    assert module_colength(2, []) == INFINITE
    zero = ring_xy.zero_poly()
    assert module_colength(2, [FreeModuleElement(2, [zero, zero])]) == INFINITE
    assert module_colength(1, [FreeModuleElement(1, [zero])] * 2) == INFINITE


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
        module = [FreeModuleElement(2, [g, zero if i % 2 else g * g]) for i, g in enumerate(gens)]
        for el in module_standard_basis(2, module):
            assert _all_fractions(el.components)


def test_denominators_do_not_change_the_basis(ring_xyz):
    rational = ideal(ring_xyz, "1/2*x + 1/3*y", "1/5*y^2 - 3/7*x*z", "2/9*z^3")
    integral = ideal(ring_xyz, "3*x + 2*y", "7*y^2 - 15*x*z", "z^3")
    assert standard_basis(rational) == standard_basis(integral)
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


def test_ideal_equality_hash_and_repr_include_the_ring(ring_xy, ring_xyz):
    # Both zero ideals have no generators left: only the ring tells them apart.
    zero_xy, zero_xyz = Ideal([ring_xy.zero_poly()]), Ideal([ring_xyz.zero_poly()])
    assert zero_xy != zero_xyz
    assert len({zero_xy, zero_xyz}) == 2
    assert "('x', 'y')" in repr(zero_xy) and "('x', 'y', 'z')" in repr(zero_xyz)
    x = ring_xy.variable(0)
    assert Ideal([x]) == Ideal([x, ring_xy.zero_poly()])
    assert hash(Ideal([x])) == hash(Ideal([x, ring_xy.zero_poly()]))


# -- the engine against copying, step-by-step references ---------------------------

class _Packing:
    """The boundary between the references below, which key terms by
    (component, exponent tuple), and the engine, which keys them by one
    packed int: packs terms on the way in, unpacks them on the way out."""

    def __init__(self, keys):
        self.keys = keys

    def vec(self, terms):
        return {self.keys.pack(comp, m): c for (comp, m), c in terms.items()}

    def terms(self, vec):
        return {self.keys.unpack(k): c for k, c in vec.items()}


def _mono_quotient(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _lead(terms, key):
    """(term, coefficient) of the greatest term of a terms dict under key."""
    lead = min(terms, key=lambda cm: (cm[0], key(cm[1])))
    return lead, terms[lead]


def _reference_primitive(terms, key):
    """terms divided by their content, signed so that the lead under key
    is positive."""
    if not terms:
        return terms
    content = math.gcd(*terms.values())
    if _lead(terms, key)[1] < 0:
        content = -content
    return {k: c // content for k, c in terms.items()}


def _reference_cancel(f, fc, fshift, g, gc, gshift, key=sort_key):
    """gc * x^fshift * f - fc * x^gshift * g for terms dicts f and g with
    lead coefficients fc and gc, these divided by their gcd, built in a
    fresh dict and made primitive under key.  A None fshift leaves f
    unmultiplied."""
    d = math.gcd(fc, gc)
    fc, gc = fc // d, gc // d
    if fshift is None:
        out = {k: c * gc for k, c in f.items()}
    else:
        out = {(comp, mono_mul(m, fshift)): c * gc for (comp, m), c in f.items()}
    for (comp, m), c in g.items():
        k = (comp, mono_mul(m, gshift))
        delta = c * fc
        if k in out:
            s = out[k] - delta
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = -delta
    return _reference_primitive(out, key)


def _reference_reduce_step(h, hlead, g, glead, key=sort_key):
    """Cancel the lead of h against g: terms dicts with their leads."""
    shift = _mono_quotient(hlead[0][1], glead[0][1])
    return _reference_cancel(h, hlead[1], None, g, glead[1], shift, key)


def _reference_spair(gi, gj):
    (_, mi), ci = _lead(gi, sort_key)
    (_, mj), cj = _lead(gj, sort_key)
    lcm_ij = _mono_lcm(mi, mj)
    return _reference_cancel(gi, ci, _mono_quotient(lcm_ij, mi), gj, cj, _mono_quotient(lcm_ij, mj))


def _slot_key(mono):
    """The order of the completion on a monomial whose last exponent is
    the homogenizing variable's: the local order on the other variables,
    which is graded on the terms of one homogeneous vector."""
    return (sum(mono) - mono[-1], mono[-2::-1])


def _homogenized(terms, degree):
    """The terms of a vector of homogenized degree `degree`, with the
    homogenizing exponent stored as a last slot."""
    return {(comp, m + (degree - sum(m),)): c for (comp, m), c in terms.items()}


def _dehomogenized(terms):
    return {(comp, m[:-1]): c for (comp, m), c in terms.items()}


def _reference_slot_normal_form(h, reducers, leads, ties=None):
    """Full reduction of the explicitly homogenized terms h against the
    explicitly homogenized reducers, whose leads are given: every reducible
    term in ascending order, one primitive copying step at a time,
    choosing among all divisors by (terms, -lead degree, lead order key,
    index).  Appends to ties the term of each step where more than one
    divisor had the fewest terms."""
    h = _reference_primitive(h, _slot_key)
    kept = set()  # the irreducible terms, each less than every term still to reduce
    while len(h) > len(kept):
        hlead = _lead({k: c for k, c in h.items() if k not in kept}, _slot_key)
        (hcomp, hmono), _ = hlead
        keyed = []
        for idx, (g, glead) in enumerate(zip(reducers, leads)):
            (gcomp, gmono), _ = glead
            if gcomp == hcomp and _mono_divides(gmono, hmono):
                keyed.append(((len(g), -sum(gmono), _slot_key(gmono), idx), g, glead))
        if not keyed:
            kept.add(hlead[0])
            continue
        keyed.sort(key=lambda kg: kg[0])
        if ties is not None and len(keyed) > 1 and keyed[0][0][0] == keyed[1][0][0]:
            ties.append(hmono)
        _, g, glead = keyed[0]
        h = _reference_reduce_step(h, hlead, g, glead, _slot_key)
    return h


def _reference_global_normal_form(terms, degree, reducers, exps, ties=None):
    """`_global_normal_form` on explicitly homogenized vectors, where
    divisibility covers the homogenizing exponent: the reducer before it
    ran in place on vectors without that exponent.  exps[i] is the
    homogenizing exponent of the lead of reducers[i]."""
    homogenized = [_homogenized(g, sum(_lead(g, sort_key)[0][1]) + e) for g, e in zip(reducers, exps)]
    leads = [_lead(g, _slot_key) for g in homogenized]
    return _dehomogenized(_reference_slot_normal_form(_homogenized(terms, degree), homogenized, leads, ties))


def _reference_buchberger(gens, rank, keys):
    """Stands in for `_buchberger`: the completion on explicitly
    homogenized vectors, each generator to its largest term degree, so
    every lead, lcm, pair degree and criterion sees the homogenizing
    exponent.  Pairs and reductions run as in the engine, but each
    S-vector is built whole and reduced step by step."""
    packing = _Packing(keys)
    G = []
    for g in gens:
        if g:
            terms = _reference_primitive(packing.terms(g), sort_key)
            G.append(_homogenized(terms, max(sum(m) for _, m in terms)))
    leads = [_lead(g, _slot_key) for g in G]

    def lead_of(i):
        return leads[i][0]

    pairs = []

    def push(i, j):
        comp, mi = lead_of(i)
        lcm_ij = _mono_lcm(mi, lead_of(j)[1])
        heapq.heappush(pairs, (sum(lcm_ij), comp, _slot_key(lcm_ij), i, j, lcm_ij))

    for j in range(len(G)):
        for i in range(j):
            if lead_of(i)[0] == lead_of(j)[0]:
                push(i, j)
    done = set()
    while pairs:
        _, comp, _, i, j, lcm_ij = heapq.heappop(pairs)
        done.add((i, j))
        mi, mj = lead_of(i)[1], lead_of(j)[1]
        if rank == 1 and lcm_ij == mono_mul(mi, mj):
            continue  # coprime homogenized leads
        if any(k not in (i, j) and lead_of(k)[0] == comp and _mono_divides(lead_of(k)[1], lcm_ij)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(G))):
            continue  # chain criterion
        s_pair = _reference_cancel(G[i], leads[i][1], _mono_quotient(lcm_ij, mi),
                                   G[j], leads[j][1], _mono_quotient(lcm_ij, mj), _slot_key)
        h = _reference_slot_normal_form(s_pair, G, leads)
        if h:
            G.append(h)
            leads.append(_lead(h, _slot_key))
            for k in range(len(G) - 1):
                if lead_of(k)[0] == lead_of(len(G) - 1)[0]:
                    push(k, len(G) - 1)
    return [packing.vec(_dehomogenized(g)) for g in G]


def _random_homogeneous_vec(rng, nvars, rank, degree, nterms):
    """Primitive terms dict of homogenized degree `degree`, as the engine
    keeps a vector: each term's degree is shared out among the nvars
    variables and the homogenizing one, whose exponent is then dropped."""
    terms = {}
    for _ in range(nterms):
        mono = [0] * (nvars + 1)
        for _ in range(degree):
            mono[rng.randrange(nvars + 1)] += 1
        terms[(rng.randrange(rank), tuple(mono[:-1]))] = rng.choice((-6, -3, -2, -1, 1, 2, 3, 4, 9))
    return _reference_primitive(terms, sort_key)


# The engine's keys for the random vectors above, in three variables.
_PACKING3 = _Packing(_Keys(3, _first_width(0)))


def _no_cut(rank):
    """A cut for _global_normal_form that no key of rank `rank` reaches."""
    return rank << _PACKING3.keys.comp_shift


@pytest.mark.parametrize("rank", [1, 2])
def test_s_vector_made_primitive_matches_reference(rank):
    rng = random.Random(30 + rank)
    packing = _PACKING3
    pairs = zero = scaled = 0
    while pairs < 150:
        gi, gj = (
            _random_homogeneous_vec(rng, 3, rank, rng.randint(1, 4), rng.randint(1, 6))
            for _ in range(2)
        )
        if rng.random() < 0.1:
            gj = _reference_primitive({k: 3 * c for k, c in gi.items()}, sort_key)
        (ci, mi), ai = _lead(gi, sort_key)
        (cj, mj), aj = _lead(gj, sort_key)
        if ci != cj:
            continue
        pack = packing.keys.pack
        lcm_ij = pack(ci, _mono_lcm(mi, mj))
        got = _vec_primitive(_s_vector(packing.vec(gi), pack(ci, mi), packing.vec(gj), pack(cj, mj), lcm_ij))
        assert packing.terms(got) == _reference_spair(gi, gj)
        pairs += 1
        zero += not got
        scaled += ai % aj != 0  # gc != 1: the kernel scales h
    assert zero > 5
    assert scaled > 30


def _random_reductions(rank):
    """60 reductions in three variables, from a seed per rank: (f, its
    homogenized degree, eight reducers of 1-3 terms, several of one
    length, the exponents of t in their leads, and the engine's tables
    for them, one per component in choice order)."""
    rng = random.Random(8 + rank)
    packing = _PACKING3
    for _ in range(60):
        reducers, exps = [], []
        for _ in range(8):
            degree = rng.randint(1, 3)
            g = _random_homogeneous_vec(rng, 3, rank, degree, rng.randint(1, 3))
            reducers.append(g)
            exps.append(degree - sum(_lead(g, sort_key)[0][1]))
        degree = rng.randint(3, 6)
        f = _random_homogeneous_vec(rng, 3, rank, degree, rng.randint(4, 12))
        tables = [sorted(_reducer_entry(packing.vec(g), packing.keys.pack(*_lead(g, sort_key)[0]), e, idx,
                                        packing.keys)
                         for idx, (g, e) in enumerate(zip(reducers, exps))
                         if _lead(g, sort_key)[0][0] == comp)
                  for comp in range(rank)]
        yield f, degree, reducers, exps, tables


@pytest.mark.parametrize("rank", [1, 2])
def test_in_place_reducer_matches_step_by_step_reference(rank):
    packing = _PACKING3
    ties, reduced = [], 0
    for f, degree, reducers, exps, tables in _random_reductions(rank):
        expected = _reference_global_normal_form(f, degree, reducers, exps, ties)
        with time_limit(10):
            got = _global_normal_form(packing.vec(f), degree, tables, packing.keys, _no_cut(rank))
            assert packing.terms(got) == expected
        reduced += expected != f
    assert reduced > 40
    assert len(ties) > 20


@pytest.mark.parametrize("rank", [1, 2])
def test_normal_form_leaves_no_term_a_reducer_divides(rank):
    # Tails are reduced too: no term of the remainder, lead or tail, is
    # divisible by a table entry once t is counted, x^a*t^e dividing the
    # term x^b*t^(degree - |b|) exactly when e <= degree - |b| and x^a
    # divides x^b.
    keys = _PACKING3.keys
    tails = 0
    for f, degree, _, _, tables in _random_reductions(rank):
        got = _global_normal_form(_PACKING3.vec(f), degree, tables, keys, _no_cut(rank))
        for k in got:
            comp, mono = keys.unpack(k)
            assert not any(gexp <= degree - sum(mono) and keys.divides(glead, k)
                           for _, glead, gexp, _ in tables[comp])
        tails += len(got) > 1
    assert tails > 10


XY, XYZ = RingContext(("x", "y")), RingContext(("x", "y", "z"))


def _threefold_and_form():
    ring = RingContext(("x", "y", "z", "u", "v"))
    rows = [["x", "y", "z"], ["u", "v", "x+y^2"]]
    threefold = DetSingularity.create(ring, [[P(e, ring) for e in row] for row in rows], 2)
    return threefold, OneForm.differential(P("v + u^2 + z^3", ring))


def _dense_ideal(k):
    """(l^k, x^k, y^k, z^k, u^k) for a linear form l with nonzero coefficients."""
    ring = RingContext(("x", "y", "z", "u"))
    return ideal(ring, "(x + 2*y - 3*z + 5*u)^%d" % k, *("%s^%d" % (v, k) for v in "xyzu"))


def _random_ideals():
    """Inhomogeneous ideals in two and three variables, so leads carry
    homogenizing exponents and some pairs of coprime leads need reducing."""
    rng = random.Random(80)
    ideals = []
    for variables in (("x", "y"), ("x", "y", "z")):
        ring = RingContext(variables)
        for _ in range(15):
            gens = [random_poly(ring, rng, 4, 4, allow_constant=False) for _ in range(rng.randint(2, 4))]
            ideals.append(Ideal([g for g in gens if g] or [ring.variable(0)]))
    return ideals


def _coprime_leads_ideal():
    """An ideal with a pair of coprime leads whose homogenized leads share
    the homogenizing variable: the completion reduces that pair, and its
    basis changes if the pair is skipped."""
    ring = RingContext(("x", "y", "z"))
    return [ideal(ring, "y^2", "-5*y*z - 2*z^3 + 5*x^3*z", "-y + x^2 + 2*x^2*z - 5*y^2*z",
                  "x + 4*z - 2*x*y + x*y*z^2")]


@pytest.mark.parametrize("make", [
    lambda: [_dense_ideal(4)],
    lambda: [_dense_ideal(5)],
    lambda: [algebra_ideal(*_threefold_and_form())],
    _coprime_leads_ideal,
    _random_ideals,
], ids=["dense-k4", "dense-k5", "threefold-algebra", "coprime-leads", "random"])
def test_completion_matches_step_by_step_reference(monkeypatch, make):
    ideals = make()
    with time_limit(20):
        got = [standard_basis(I) for I in ideals]
    monkeypatch.setattr(standard_bases, "_buchberger", _reference_buchberger)
    assert [standard_basis(I) for I in ideals] == got


def test_standard_basis_and_its_ideal_contain_each_other():
    # Each generator of I lies in the ideal of its standard basis, and
    # that ideal, completed again, has the staircase of I; the basis lies
    # in I, so the two ideals are equal.
    for I in _random_ideals() + _coprime_leads_ideal() + [_dense_ideal(4)]:
        with time_limit(20):
            basis = standard_basis(I)
            assert all(basis.contains(g) for g in I.generators)
            assert standard_basis(Ideal(basis.elements)).staircase == basis.staircase


def _finite_homogeneous_modules():
    """Homogeneous rank-2 modules with a finite staircase in both
    components: pure powers in each, plus dense generators mixing the
    two, so that the completion stops at its highest corner."""
    cases = [
        (XY, ("x^3", "y^3"), ("x^2", "y^2"), [("x^2 + 2*x*y - 3*y^2", "5*x^2 - x*y + 4*y^2")]),
        (XY, ("x^4", "y^4"), ("x^3", "y^3"),
         [("(x + 2*y)^3", "(3*x - y)^3"), ("x^2*y - 2*x*y^2", "x^3 + y^3 - x*y^2")]),
        (XY, ("x^5", "y^5"), ("x^4", "y^4"), [("(x + 2*y)^4", "(3*x - y)^4"), ("(2*x - 3*y)^4", "(x + y)^4")]),
        (XYZ, ("x^3", "y^3", "z^3"), ("x^2", "y^2", "z^2"),
         [("(x + 2*y - 3*z)^2", "(2*x - y + z)^2"), ("x*y - y*z", "x*z + 3*y^2")]),
        (XYZ, ("x^4", "y^4", "z^4"), ("x^3", "y^3", "z^3"), [("(x + 2*y - 3*z)^3", "(2*x - y + z)^3")]),
    ]
    modules = []
    for ring, first, second, mixed in cases:
        zero = ring.zero_poly()
        gens = [FreeModuleElement(2, [P(p, ring), zero]) for p in first]
        gens += [FreeModuleElement(2, [zero, P(p, ring)]) for p in second]
        gens += [FreeModuleElement(2, [P(a, ring), P(b, ring)]) for a, b in mixed]
        modules.append((2, gens))
    return modules


def test_module_completion_matches_step_by_step_reference(monkeypatch):
    rank, gens = omega_quotient_generators(*_threefold_and_form())
    ring = RingContext(("x", "y", "z"))
    rng = random.Random(81)
    modules = [(rank, gens)] + [
        (2, [FreeModuleElement(2, [random_poly(ring, rng, allow_constant=False) for _ in range(2)])
             for _ in range(3)])
        for _ in range(10)] + _finite_homogeneous_modules() + [(2, _mixed_degree_module())]
    with time_limit(20):
        got = [module_standard_basis(r, g) for r, g in modules]
    monkeypatch.setattr(standard_bases, "_buchberger", _reference_buchberger)
    assert [module_standard_basis(r, g) for r, g in modules] == got


def _draw_form(draw, ring, degree):
    """A form of the given degree in ring: one to four terms with small
    integer coefficients."""
    nvars = len(ring.variables)
    monomials = st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree).map(
        lambda indices: tuple(indices.count(i) for i in range(nvars)))
    terms = draw(st.dictionaries(monomials, st.integers(-4, 4).filter(bool), min_size=1, max_size=4))
    return Poly(ring, {m: Fraction(c) for m, c in terms.items()})


@st.composite
def homogeneous_ideals(draw):
    """Generators of a homogeneous ideal in 2-3 variables: one to three
    forms of degree 1-3, then the pure powers x_i^k for one k in 2..4 by
    a coin toss, so that finite and INFINITE colengths both occur."""
    ring = (XY, XYZ)[draw(st.integers(0, 1))]
    gens = [_draw_form(draw, ring, draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        gens += [ring.variable(i) ** k for i in range(len(ring.variables))]
    return gens


def test_homogeneous_completion_stops_without_changing_the_basis(monkeypatch):
    # The completion stops at the highest corner of a homogeneous ideal
    # with a finite staircase; the step-by-step reference never stops.
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(homogeneous_ideals())
    def check(gens):
        I = Ideal(gens)
        value = colength(I)
        report = stabilized_colength(I, ceiling=16)
        assert report.agrees_with(value) and report.stabilized == (value is not INFINITE)
        staircase = standard_basis(I).staircase
        with monkeypatch.context() as patched:
            patched.setattr(standard_bases, "_buchberger", _reference_buchberger)
            assert standard_basis(I).staircase == staircase
        seen.add(value is INFINITE)

    check()
    assert seen == {True, False}


@st.composite
def mixed_degree_modules(draw):
    """Generators of a rank-2 module in 2-3 variables: the pure powers
    x_i^k in each component, one k in 2..3 per component, so both
    staircases are finite, then one or two vectors whose components are
    forms of two different degrees in 1..3, the lower one in either
    component by a coin toss.  Those with the lower degree second have
    écart 0 but are not homogeneous, which the highest-corner stop must
    not mistake for homogeneous input."""
    ring = (XY, XYZ)[draw(st.integers(0, 1))]
    zero = ring.zero_poly()
    gens = []
    for comp in range(2):
        k = draw(st.integers(2, 3))
        for i in range(len(ring.variables)):
            parts = [zero, zero]
            parts[comp] = ring.variable(i) ** k
            gens.append(FreeModuleElement(2, parts))
    for _ in range(draw(st.integers(1, 2))):
        low, high = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True)))
        degrees = (high, low) if draw(st.booleans()) else (low, high)
        gens.append(FreeModuleElement(2, [_draw_form(draw, ring, d) for d in degrees]))
    return gens


def test_mixed_degree_modules_complete_as_the_reference(monkeypatch):
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(mixed_degree_modules())
    def check(gens):
        got = module_standard_basis(2, gens)
        with monkeypatch.context() as patched:
            patched.setattr(standard_bases, "_buchberger", _reference_buchberger)
            assert module_standard_basis(2, gens) == got

    check()


def test_reducer_table_holds_each_basis_element_once(monkeypatch):
    # Every division of the completion must see the tables kept so far:
    # one per component, each ascending and holding exactly the basis
    # elements leading in its component, each entry as made afresh from
    # its vector and the exponent of t in its lead.
    engine_buchberger = standard_bases._buchberger
    engine_normal_form = standard_bases._global_normal_form
    basis = []  # (terms, exponent of t in the lead) per basis element
    calls = []

    packing = None
    module_rank = None

    def buchberger(gens, rank, keys):
        nonlocal packing, module_rank
        packing, module_rank = _Packing(keys), rank
        basis.clear()
        for g in gens:
            if g:
                terms = packing.terms(g)
                (_, lead), _ = _lead(terms, sort_key)
                basis.append((_reference_primitive(terms, sort_key),
                              max(sum(m) for _, m in terms) - sum(lead)))
        return engine_buchberger(gens, rank, keys)

    def checked_normal_form(h, degree, tables, keys, cut):
        assert len(tables) == module_rank
        lead_comps = [_lead(terms, sort_key)[0][0] for terms, _ in basis]
        for comp, table in enumerate(tables):
            assert [entry[0] for entry in table] == sorted(entry[0] for entry in table)
            assert sorted(entry[0][-1] for entry in table) == [
                idx for idx, c in enumerate(lead_comps) if c == comp]
            for entry in table:
                g = entry[-1]
                idx = entry[0][-1]
                terms, e = basis[idx]
                assert packing.terms(g) == terms
                (_, lead), _ = _lead(terms, sort_key)
                key = keys.pack(comp, lead)
                assert entry == ((len(terms), -(sum(lead) + e), key, idx), key, e, g)
        out = engine_normal_form(h, degree, tables, keys, cut)
        if out:
            terms = packing.terms(out)
            (_, lead), _ = _lead(terms, sort_key)
            basis.append((terms, degree - sum(lead)))
        calls.append([len(table) for table in tables])
        return out

    monkeypatch.setattr(standard_bases, "_buchberger", buchberger)
    monkeypatch.setattr(standard_bases, "_global_normal_form", checked_normal_form)
    threefold, form = _threefold_and_form()
    with time_limit(20):
        assert colength(_dense_ideal(4)) == 155
        assert colength(algebra_ideal(threefold, form)) == 8
        assert module_colength(*omega_quotient_generators(threefold, form)) == 8
    assert len(calls) > 100
    assert len({sum(sizes) for sizes in calls}) > 20  # the tables grew
    assert any(sum(1 for n in sizes if n) > 1 for sizes in calls)  # the module fills several


# -- packed term keys ------------------------------------------------------------

# derandomize: the same examples on every run, so tier-1 stays deterministic.
KEYS_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def _key_cases(draw):
    """Keys for 1-5 variables at a width from 2 to 40 bits, a component
    for rank 1-3, and a function drawing monomials whose exponents run
    from 0 to limit - 1, both ends included, cut in a drawn variable order
    so that the degree stays at or below a budget (limit - 1 at most)."""
    nvars = draw(st.integers(1, 5))
    keys = _Keys(nvars, draw(st.integers(2, 40)))
    top = keys.limit - 1
    comp = draw(st.integers(0, 2))

    def monomial(budget=top):
        exps = draw(st.lists(st.one_of(st.just(0), st.just(top), st.integers(0, top)),
                             min_size=nvars, max_size=nvars))
        mono = [0] * nvars
        for i in draw(st.permutations(range(nvars))):
            mono[i] = min(exps[i], budget)
            budget -= mono[i]
        return tuple(mono)

    return keys, comp, monomial


@KEYS_PROPERTY
@given(_key_cases(), st.integers(0, 2))
def test_packed_keys_round_trip_in_the_term_order(case, other_comp):
    keys, comp, monomial = case
    a, b = monomial(), monomial()
    ka, kb = keys.pack(comp, a), keys.pack(other_comp, b)
    assert keys.unpack(ka) == (comp, a) and keys.unpack(kb) == (other_comp, b)
    assert keys.degree(ka) == sum(a)
    assert (ka < kb) == ((comp, sort_key(a)) < (other_comp, sort_key(b)))
    assert (ka == kb) == ((comp, a) == (other_comp, b))


@KEYS_PROPERTY
@given(_key_cases())
def test_packed_product_is_one_addition(case):
    keys, comp, monomial = case
    a = monomial()
    b = monomial(keys.limit - 1 - sum(a))  # a*b stays in range
    assert keys.pack(comp, a) + keys.pack(0, b) == keys.pack(comp, mono_mul(a, b))
    assert keys.pack(comp, mono_mul(a, b)) - keys.pack(comp, a) == keys.pack(0, b)


@KEYS_PROPERTY
@given(_key_cases(), st.data())
def test_borrow_test_is_monomial_divisibility(case, data):
    keys, comp, monomial = case
    a = monomial()
    multiple = mono_mul(a, monomial(keys.limit - 1 - sum(a)))
    # the multiple with one exponent one below a's: a borrow starts there
    short = list(multiple)
    i = data.draw(st.integers(0, keys.nvars - 1))
    if a[i]:
        short[i] = a[i] - 1
    for b in (monomial(), multiple, tuple(short)):
        assert keys.divides(keys.pack(comp, a), keys.pack(comp, b)) == _mono_divides(a, b), b
        assert keys.divides(keys.pack(comp, b), keys.pack(comp, a)) == _mono_divides(b, a), b


@KEYS_PROPERTY
@given(_key_cases())
def test_packed_lcm_is_the_lcm_of_the_exponent_tuples(case):
    # Exponents run up to limit - 1, so the lcm's degree may pass the
    # limit; it still fits its field, and the completion restarts there.
    keys, comp, monomial = case
    a, b = monomial(), monomial()
    assert keys.lcm(keys.pack(comp, a), keys.pack(comp, b)) == keys.pack(comp, _mono_lcm(a, b))


def _record_widths(monkeypatch):
    """The width of every set of keys the engine makes from now on."""
    widths = []

    class Recorded(_Keys):
        def __init__(self, nvars, width):
            widths.append(width)
            super().__init__(nvars, width)

    monkeypatch.setattr(standard_bases, "_Keys", Recorded)
    return widths


def _past_the_first_limit():
    """The first width, and a degree N that it holds while 2N passes its
    limit of 2^(width - 1)."""
    first = _first_width(0)
    n = 3 * (1 << (first - 1)) // 4
    assert _first_width(n) == first and 2 * n >= 1 << (first - 1)
    return first, n


def test_completion_restarts_at_twice_the_width(monkeypatch, ring_xy):
    # The pair of x^N and y^N has degree 2N: past the first limit.
    first, n = _past_the_first_limit()
    zero = ring_xy.zero_poly()
    gens = [FreeModuleElement(2, [P("x^%d" % n, ring_xy), zero]),
            FreeModuleElement(2, [P("y^%d" % n, ring_xy), zero]),
            FreeModuleElement(2, [zero, P("x", ring_xy)]),
            FreeModuleElement(2, [zero, P("y", ring_xy)])]
    widths = _record_widths(monkeypatch)
    with time_limit(10):
        assert module_colength(2, gens) == n * n + 1
        assert widths == [first, 2 * first]
        assert module_standard_basis(2, gens) == gens
        assert widths == [first, 2 * first] * 2


def test_corpus_completions_need_no_restart(monkeypatch):
    widths = _record_widths(monkeypatch)
    with time_limit(20):
        assert colength(_dense_ideal(4)) == 155
        assert colength(algebra_ideal(*_threefold_and_form())) == 8
    assert widths == [_first_width(0)] * 2


def _mixed_degree_module():
    """(x^2, y), (xy, 0), (y^2, 0), (0, x), (0, y^3) in x, y: every
    generator has écart 0, but (x^2, y) is (x^2, t*y) homogenized.  At the
    first pair degree, 3, the leads leave staircases of top degree 1 and
    2, yet S((x^2, y), (xy, 0)) = (0, y^2) is a new basis element: the
    colength is 3 + 2 = 5, not 3 + 3."""
    gens = [("x^2", "y"), ("x*y", "0"), ("y^2", "0"), ("0", "x"), ("0", "y^3")]
    return [FreeModuleElement(2, [P(a, XY), P(b, XY)]) for a, b in gens]


def _module_without_second_component_leads():
    """The dense k = 4 ideal in the first component of O^2: homogeneous,
    with a finite staircase there and no leads in the second."""
    dense = _dense_ideal(4)
    zero = dense.ring.zero_poly()
    return [FreeModuleElement(2, [g, zero]) for g in dense.generators]


@pytest.mark.parametrize("compute, value, reductions, nonzero", [
    # homogeneous with finite staircases: pairs above the highest corner are skipped,
    # and each of them reduced to zero (58/78/168 reductions without the stop); the
    # top is known again as soon as a joining lead divides the last corner of the
    # last walk, so the stop can fire inside a degree
    pytest.param(lambda: colength(_dense_ideal(4)), 155, 17, 17, id="dense-k4"),
    pytest.param(lambda: colength(_dense_ideal(5)), 381, 30, 23, id="dense-k5"),
    pytest.param(lambda: colength(_dense_ideal(6)), 780, 63, 51, id="dense-k6"),
    # the top degree is the last pair degree, so the stop must not fire inside it;
    # 1451 = sum over d of max(0, h_d - h_(d-7)), h the Hilbert function of the
    # monomial complete intersection (x^7, y^7, z^7, u^7)
    pytest.param(lambda: colength(_dense_ideal(7)), 1451, 103, 63, id="dense-k7"),
    # inhomogeneous ideal with a finite staircase of top degree 3: the loop runs on, but
    # skips each pair whose lcm has degree above 3, and the normal forms delete every
    # term above it, as all those lie in m^4, inside the ideal (182 reductions, 27 nonzero,
    # without the cut)
    pytest.param(lambda: colength(algebra_ideal(*_threefold_and_form())), 8, 67, 6,
                 id="threefold-algebra"),
    # nothing is cut: a homogeneous INFINITE staircase, a component without leads, and a
    # module of écart 0 that is not homogeneous
    pytest.param(lambda: colength(ideal(XY, "x^2", "x*y")), INFINITE, 1, 0, id="infinite-monomial"),
    pytest.param(lambda: colength(ideal(XYZ, "x^2 + y*z", "x*y + z^2")), INFINITE, 2, 1,
                 id="infinite-quadrics"),
    pytest.param(lambda: module_colength(2, _module_without_second_component_leads()), INFINITE, 66, 17,
                 id="module-empty-component"),
    pytest.param(lambda: module_colength(2, _mixed_degree_module()), 5, 5, 1, id="module-mixed-degrees"),
])
def test_highest_corner_stop_skips_only_zero_reductions(monkeypatch, compute, value, reductions, nonzero):
    engine_normal_form = standard_bases._global_normal_form
    remainders = []

    def counted(*args):
        out = engine_normal_form(*args)
        remainders.append(bool(out))
        return out

    monkeypatch.setattr(standard_bases, "_global_normal_form", counted)
    with time_limit(20):
        assert compute() == value
    assert (len(remainders), sum(remainders)) == (reductions, nonzero)


def test_modules_take_no_highest_corner_cut():
    # The top of this module's staircases is 1, yet (x^2, 0) is not in it:
    # under position over term the tail y of (x^2, y) lies in a later
    # component, at a degree below its lead's, so m^2*O^2 is not inside
    # the module, and deleting terms above the top would count 6.
    assert module_colength(2, _mixed_degree_module()) == 5


def _finite_inhomogeneous_ideals():
    """Ideals in three variables with finite staircases: a pure power of
    each variable plus random terms of higher degree, and one or two
    random generators more, of mixed degrees."""
    rng = random.Random(34)
    ideals = []
    for _ in range(40):
        gens = []
        for i in range(3):
            k = rng.randint(2, 4)
            gens.append(XYZ.variable(i) ** k + Poly(XYZ, {
                m: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
                for m in (_random_monomial(rng, 3, rng.randint(k + 1, k + 3)) for _ in range(rng.randint(0, 3)))}))
        gens += [random_poly(XYZ, rng, 4, 4, allow_constant=False) for _ in range(rng.randint(1, 2))]
        ideals.append(Ideal([g for g in gens if g]))
    return ideals


def _random_monomial(rng, nvars, degree):
    mono = [0] * nvars
    for _ in range(degree):
        mono[rng.randrange(nvars)] += 1
    return tuple(mono)


def test_highest_corner_cut_keeps_inhomogeneous_staircases(monkeypatch):
    # Once the top c of a finite staircase is known, every monomial of
    # degree c + 1 is a lead, and every other term of an element has a
    # degree at least its lead's, so m^(c+1) lies in the ideal (Nakayama):
    # pairs above c and terms above c may go.  The step-by-step reference
    # never cuts; the leads, and so colength and staircase, agree.
    ideals = _finite_inhomogeneous_ideals()
    with time_limit(20):
        got = [(colength(I), standard_basis(I).staircase) for I in ideals]
    assert all(value is not INFINITE for value, _ in got)
    assert any(len({sum(m) for m in g.terms}) > 1 for I in ideals for g in I.generators)
    monkeypatch.setattr(standard_bases, "_buchberger", _reference_buchberger)
    assert [(colength(I), standard_basis(I).staircase) for I in ideals] == got


def test_normal_form_cut_keeps_the_terms_below_it():
    # Terms surface in ascending key order and a step only creates greater
    # keys, so the reduction below the cut is the uncut one's up to a
    # scalar: the terms below it, made primitive.
    keys = _PACKING3.keys
    cut_some = 0
    for f, degree, _, _, tables in _random_reductions(1):
        full = _global_normal_form(_PACKING3.vec(f), degree, tables, keys, _no_cut(1))
        for top in range(degree):
            cut = (top + 1) << keys.degree_shift
            got = _global_normal_form(_PACKING3.vec(f), degree, tables, keys, cut)
            assert got == _vec_primitive({k: c for k, c in full.items() if k < cut})
            cut_some += len(got) < len(full)
    assert cut_some > 20


@pytest.mark.parametrize("rank, make, walks", [
    # finite from the first pair on: one walk there, then one each time the top falls
    pytest.param(1, lambda: [[g] for g in _dense_ideal(6).generators], 9, id="dense-k6"),
    # a variable or a component never gets a pure power: no walk at all
    pytest.param(1, lambda: [[g] for g in ideal(XY, "x^2", "x*y").generators], 0, id="infinite-monomial"),
    pytest.param(1, lambda: [[g] for g in ideal(XYZ, "x^2 + y*z", "x*y + z^2").generators], 0,
                 id="infinite-quadrics"),
    pytest.param(2, lambda: [g.components for g in _module_without_second_component_leads()], 0,
                 id="module-empty-component"),
])
def test_completion_walks_only_when_its_corners_are_gone(monkeypatch, rank, make, walks):
    # The completion walks the staircase once every component has a pure
    # power of every variable, and again only when the leads that joined
    # since have divided every corner of the last walk.
    engine_walk = standard_bases._lead_walk
    tops = []

    def counted(*args):
        out = engine_walk(*args)
        tops.append(out[1])
        return out

    generators = make()
    monkeypatch.setattr(standard_bases, "_lead_walk", counted)
    with time_limit(20):
        standard_bases._complete(rank, generators)
    assert len(tops) == walks
    assert INFINITE not in tops and all(a > b for a, b in zip(tops, tops[1:]))


def test_one_term_reducers_delete_without_the_kernel(monkeypatch):
    # A one-term basis element is primitive, so its coefficient is 1: the
    # term it divides is deleted, and only longer reducers reach the
    # kernel (4763 calls at dense k = 6 when every reducer did).
    engine_reduce_at = standard_bases._reduce_at
    lengths = []

    def counted(h, at, g, glead, heap):
        lengths.append(len(g))
        return engine_reduce_at(h, at, g, glead, heap)

    monkeypatch.setattr(standard_bases, "_reduce_at", counted)
    with time_limit(20):
        assert colength(_dense_ideal(6)) == 780
    assert len(lengths) == 1039 and min(lengths) > 1


def test_completion_returns_primitive_integer_vectors():
    # The engine stays in the integers up to its exit: the minimalized
    # basis holds ints, content 1, positive leading coefficient.
    module_rank, module_gens = omega_quotient_generators(*_threefold_and_form())
    for rank, components in [(1, [[g] for g in _dense_ideal(4).generators]),
                             (module_rank, [g.components for g in module_gens])]:
        _, basis = standard_bases._complete(rank, components)
        assert basis
        for v in basis:
            assert all(type(c) is int for c in v.values())
            assert math.gcd(*v.values()) == 1 and v[min(v)] > 0


def test_colengths_make_no_rationals(monkeypatch):
    def refuse(*args):
        raise AssertionError("a colength converted a basis to rationals")

    monkeypatch.setattr(standard_bases, "_components", refuse)
    assert colength(_dense_ideal(4)) == 155
    assert module_colength(*omega_quotient_generators(*_threefold_and_form())) == 8


def test_colength_is_the_staircase_count_of_the_basis():
    for I in _random_ideals():
        assert colength(I) == standard_basis(I).colength()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FreeModuleElement(0, []), "rank must be positive", id="rank-zero"),
    pytest.param(lambda: FreeModuleElement(2, [XY.variable(0)]), "component count does not match rank",
                 id="component-count"),
    pytest.param(lambda: FreeModuleElement(2, [XY.variable(0), XYZ.variable(2)]),
                 "mixed ring contexts in module element", id="mixed-rings"),
])
def test_module_element_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_infinite_repr_and_membership(ring_xy):
    assert repr(INFINITE) == "INFINITE"
    basis = standard_basis(ideal(ring_xy, "x^2", "y^3"))
    assert basis.contains(P("x^5 + x*y^3", ring_xy))
    assert basis.contains(P("x^2 - x^3", ring_xy))  # x^2 times the unit 1 - x
    assert not basis.contains(P("x*y^2", ring_xy))


def test_membership_answers_where_mora_division_ran_for_seconds():
    threefold, form = _threefold_and_form()
    algebra = algebra_ideal(threefold, form)
    ring = algebra.ring
    surface_ring = RingContext(("x", "y", "z", "u"))
    surface = DetSingularity.create(
        surface_ring, [[P(e, surface_ring) for e in row] for row in (("z", "y+u", "x"), ("u", "x", "y"))], 2)
    surface_ideal = algebra_ideal(surface, OneForm.differential(P("x^2 + y^2 + z^2 + u^2 + x*y*z", surface_ring)))
    g = surface_ideal.generators[0]
    with time_limit(5):
        basis = standard_basis(algebra)
        # Mora's division of each of these against the basis ran past 2 s
        assert all(basis.contains(algebra.generators[i]) for i in (18, 31, 37, 40))
        assert basis.contains(P("z^4", ring)) and basis.contains(P("x*y", ring))
        for src in ("z^2", "z^3", "1 + x"):
            assert not basis.contains(P(src, ring))
        # colength 12; Mora's division of g*g + x^3 against this basis ran past 60 s
        assert standard_basis(surface_ideal).contains(g * g + P("x^3", surface_ring))


def test_membership_compares_staircases_not_colengths(ring_xy):
    # (x^2) and (x^2, x) = (x) both have INFINITE colength in the ring x, y
    basis = standard_basis(ideal(ring_xy, "x^2"))
    assert not basis.contains(P("x", ring_xy))
    assert not basis.contains(P("y", ring_xy))
    assert basis.contains(P("x^2*y + x^3", ring_xy))
    assert basis.contains(ring_xy.zero_poly())


def test_membership_rejects_an_element_of_another_ring(ring_xy, ring_xyz):
    zero_ideal = ideal(ring_xy, "0")
    for basis in (standard_basis(ideal(ring_xy, "x")), standard_basis(zero_ideal)):
        with pytest.raises(ValueError, match="mixed ring contexts in ideal generators"):
            basis.contains(P("z", ring_xyz))
    assert not standard_basis(zero_ideal).contains(P("x", ring_xy))
