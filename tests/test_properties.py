"""Property tests on random ideals: the engine against the truncation
oracle, and values that must not move when the presentation changes."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from detindex import (
    FreeModuleElement,
    Ideal,
    Poly,
    RingContext,
    colength,
    module_colength,
    stabilized_colength,
)

# derandomize: the same examples on every run, so tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def ideals(draw, always_finite=True):
    """Generators of an ideal in 2-3 variables: one to three polynomials
    of degree 1-3 without constant term and small integer coefficients,
    then the pure powers x_i^k for one k in 2..3, always or by a coin
    toss.  The pure powers make the colength finite."""
    nvars = draw(st.integers(2, 3))
    ring = RingContext(("x", "y", "z")[:nvars])

    def monomial(indices):
        counts = Counter(indices)
        return tuple(counts[i] for i in range(nvars))

    monomials = st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3).map(monomial)
    coefficients = st.integers(-4, 4).filter(bool)
    terms = st.dictionaries(monomials, coefficients, min_size=1, max_size=4)
    gens = [Poly(ring, {m: Fraction(c) for m, c in t.items()})
            for t in draw(st.lists(terms, min_size=1, max_size=3))]
    if always_finite or draw(st.booleans()):
        k = draw(st.integers(2, 3))
        gens += [ring.variable(i) ** k for i in range(nvars)]
    return gens


def _permuted(poly, perm):
    """poly with variable i renamed to variable perm[i]."""
    terms = {}
    for mono, c in poly.terms.items():
        image = [0] * len(mono)
        for i, e in enumerate(mono):
            image[perm[i]] = e
        terms[tuple(image)] = c
    return Poly(poly.ring, terms)


@PROPERTY
@given(ideals())
def test_colength_equals_the_oracle(gens):
    ideal = Ideal(gens)
    report = stabilized_colength(ideal)
    assert report.stabilized
    assert colength(ideal) == report.value


@PROPERTY
@given(ideals(always_finite=False))
def test_rank_one_module_colength_is_the_ideal_colength(gens):
    as_module = [FreeModuleElement(1, [g]) for g in gens]
    assert module_colength(1, as_module) == colength(Ideal(gens))


@PROPERTY
@given(ideals(always_finite=False), st.data())
def test_colength_does_not_depend_on_the_variable_order(gens, data):
    perm = data.draw(st.permutations(range(gens[0].ring.nvars)))
    assert colength(Ideal([_permuted(g, perm) for g in gens])) == colength(Ideal(gens))


@st.composite
def units(draw, ring):
    """A unit of the local ring: a nonzero rational constant plus zero to
    two terms of degree 1-2 with small integer coefficients."""
    constant = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    terms = {(0,) * ring.nvars: constant}
    for _ in range(draw(st.integers(0, 2))):
        mono = [0] * ring.nvars
        for _ in range(draw(st.integers(1, 2))):
            mono[draw(st.integers(0, ring.nvars - 1))] += 1
        terms[tuple(mono)] = Fraction(draw(st.integers(-3, 3).filter(bool)))
    return Poly(ring, terms)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(ideals(always_finite=False), st.data())
def test_colength_does_not_change_under_unit_scaling(gens, data):
    scaled = [data.draw(units(g.ring)) * g for g in gens]
    assert colength(Ideal(scaled)) == colength(Ideal(gens))
