"""Standard bases and colengths in the local ring at the origin.

Division (normal_form) is Mora's variant of polynomial division: the
reducer with the least écart is preferred, and whenever the écart of the
chosen reducer exceeds that of the partial remainder, the partial
remainder itself is kept as a future reducer.  This multiplies the input
by an (implicit) unit of the local ring but terminates on polynomial
input, which plain division under an anti-graded order does not.  The
reducers, T, are kept sorted by (écart, smaller lead first, position),
each key made once when its element enters T, and a step uses the first
whose lead divides the remainder's.

Basis completion is Lazard's: generators are made homogeneous with one
extra variable t, a plain Buchberger loop runs under the matched graded
order, and setting t to 1 gives a standard basis for the local order.
This avoids the long écart-driven reduction chains of a direct Mora
completion, whose exact coefficients blow up on dense input.  The
exponent of t is not stored: a vector keeps its terms in the original
variables and the loop keeps its homogenized degree D (the "sugar" of
Greuel-Pfister, section 1.7; a generator's D is its largest term
degree), so x^a carries t^(D - |a|).  The exponent e = D - |a| of t in
a lead x^a is worked out once per basis element: x^a*t^e divides
x^b*t^f exactly when x^a divides x^b and e <= f.  The lcm of two leads,
and so their S-vector, has degree |lcm(a, b)| + max(e, f), and two
leads are coprime only when one of e, f is 0.

One kernel does every cancellation in the engine: on a mutable dict of
terms h it cancels one term against a multiple of a reducer g, as
h := gc*h - fc*x^shift*g with fc and gc the two lead coefficients
divided by their gcd, so it scales h only when the lead coefficient of
g does not divide that of h.  An S-vector is the first step of its own
reduction: x^(lcm/lead gi)*gi is cancelled against gj at the lcm, and
the same dict is reduced on.  Its lead comes from a heap of term keys
with lazy deletion: an entry whose term has cancelled is skipped when
it surfaces, and the heap is rebuilt once such entries outnumber the
live terms, so each term's order key is computed once.  The content is
removed every few steps and at the end.  The completion keeps one table
of reducers in choice order, (number of terms, homogenized lead degree
descending, lead order key, position): each basis element enters the
basis, its pairs and this table in one step, and a reduction uses the
first entry whose lead divides the remainder's.
Every remainder is a nonzero multiple of the one a step-by-step
primitive reduction would hold, so both choose the same reducers and
end in the same primitive vector.  A Mora step runs the kernel on a
copy of the partial remainder, which T may keep, and makes the result
primitive.

One order key serves both phases: ``rings.sort_key``, which orders every
``Poly`` too.  It is the local order, and on the terms of one
homogeneous vector, which share their degree with t, the graded order.
Critical pairs wait in a heap keyed, when the pair is created, by
(homogenized lcm degree, component, order key of the lcm, i, j); leads
never change, so the key is fixed.  Coprime leads are discarded in the
ideal case (the product criterion is not sound for submodules of free
modules), and the classical chain criterion prunes pairs dominated by an
already-treated element.

The engine is integer-only.  Coefficients are rationals (``Fraction``)
at the public functions; denominators are cleared once on the way in,
and every vector the engine makes is kept primitive: integer
coefficients with content 1 and a positive leading coefficient.  That
representative is unique, so the reduction steps are fraction-free.
Rationals are made in one exit helper, _components, and only for a
returned result: a basis vector is divided by its leading coefficient
there, a normal_form remainder is not.  Colength queries read the
leads alone and make no rational.

An ideal is the rank-1 case of a submodule of a free module O^r
(Greuel-Pfister, section 2.3): it enters the one completion with one
rank-1 vector per generator.  Terms are keyed by (component, exponent
tuple) with position-over-term order, earlier components first.

Colength queries count the standard monomials (those no leading
monomial divides) from the leads alone, by slices in the exponent of
the last variable.  Between two consecutive leading exponents the
slices are equal, each counted recursively from the leads at or below
the first with the last variable dropped (Bayer-Stillman's recursion on
monomial ideals, pivoting on powers of the last variable).  The slices
past the largest leading exponent never end, so the count is INFINITE
when they are not empty.  A module sums its components.
"""

from __future__ import annotations

import bisect
import enum
import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

from .rings import (
    LOCAL_ORDER,
    Monomial,
    Poly,
    RingContext,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    sort_key,
)


class _Infinite(enum.Enum):
    """Type of the INFINITE colength sentinel.

    One enum member keeps its identity under copy and pickle, so callers
    test for it with ``value is INFINITE``.
    """

    INFINITE = "INFINITE"

    def __repr__(self):
        return "INFINITE"

    __str__ = __repr__


INFINITE = _Infinite.INFINITE


@dataclass(frozen=True)
class Ideal:
    """Ideal of the local ring, given by generators (zero generators dropped)."""

    generators: Tuple[Poly, ...]

    def __init__(self, generators: Sequence[Poly]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise ValueError("mixed ring contexts in ideal generators")
        object.__setattr__(self, "generators", tuple(g for g in gens if g))
        object.__setattr__(self, "_ring", ring)

    @property
    def ring(self) -> RingContext:
        return self._ring  # type: ignore[attr-defined]


@dataclass(frozen=True)
class FreeModuleElement:
    """Element of a free module O^r, as a vector of r polynomials."""

    rank: int
    components: Tuple[Poly, ...]

    def __init__(self, rank: int, components: Sequence[Poly]):
        if rank < 1:
            raise ValueError("rank must be positive")
        comps = tuple(components)
        if len(comps) != rank:
            raise ValueError("component count does not match rank")
        ring = comps[0].ring
        for c in comps:
            if c.ring != ring:
                raise ValueError("mixed ring contexts in module element")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "components", comps)

    @property
    def ring(self) -> RingContext:
        return self.components[0].ring

    def is_zero(self) -> bool:
        return all(not c for c in self.components)


@dataclass(frozen=True)
class StandardBasis:
    """Reduced local standard basis with its leading-term staircase.

    Elements are monic, pairwise reduced (no leading monomial divides
    another) and listed from greatest to least leading monomial, so the
    output is canonical for a given generating set.
    """

    ring: RingContext
    order: str
    elements: Tuple[Poly, ...]
    staircase: Tuple[Monomial, ...]

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.elements)

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def colength(self):
        return _staircase_count(self.staircase)


# ---------------------------------------------------------------------------
# internal vector representation: dict[(component, exponent tuple)] -> int

class _Vec:
    __slots__ = ("terms", "_lead", "_maxdeg")

    def __init__(self, terms: dict):
        self.terms = terms
        self._lead = None
        self._maxdeg = None

    def __bool__(self):
        return bool(self.terms)

    def lead(self):
        # Greatest term: least (component, order key).
        if self._lead is None and self.terms:
            key = min(self.terms, key=lambda cm: (cm[0], sort_key(cm[1])))
            self._lead = (key, self.terms[key])
        return self._lead

    def maxdeg(self):
        if self._maxdeg is None:
            self._maxdeg = max(sum(m) for _, m in self.terms) if self.terms else 0
        return self._maxdeg

    def ecart(self):
        if not self.terms:
            return 0
        return self.maxdeg() - sum(self.lead()[0][1])


def _vec_from_components(components: Sequence[Poly]) -> _Vec:
    """Integer vector: the rational components times the least common
    denominator of their coefficients (a positive scalar)."""
    coeffs = [c for poly in components for c in poly.terms.values()]
    den = lcm(*(c.denominator for c in coeffs))
    terms = {}
    for comp, poly in enumerate(components):
        for m, c in poly.terms.items():
            terms[(comp, m)] = c.numerator * (den // c.denominator)
    return _Vec(terms)


def _components(vec: _Vec, rank: int, ring: RingContext, scale: int = 1) -> List[Poly]:
    """The rank rational component polynomials of vec / scale: the one
    place the engine makes rationals."""
    buckets: List[dict] = [dict() for _ in range(rank)]
    for (comp, m), c in vec.terms.items():
        buckets[comp][m] = Fraction(c, scale)
    return [Poly(ring, b) for b in buckets]


def _vec_primitive(v: _Vec) -> _Vec:
    """Divide an integer vector by its content, signed so that the leading
    coefficient is positive: the canonical representative of v up to a
    nonzero scalar (keeps coefficient growth in check during long
    reduction chains)."""
    if not v.terms:
        return v
    lead_key, lead_coeff = v.lead()
    content = gcd(*v.terms.values())
    if lead_coeff < 0:
        content = -content
    if content == 1:
        return v
    out = _Vec({k: c // content for k, c in v.terms.items()})
    out._lead = (lead_key, lead_coeff // content)
    out._maxdeg = v._maxdeg
    return out


def _reduce_at(h: dict, lead, g: _Vec) -> list:
    """The one cancellation kernel: h := gc*h - fc*x^shift*g in place, where
    x^shift times the lead monomial of g is the term lead of h, and fc, gc
    are h[lead] and the lead coefficient of g divided by their gcd, so the
    term at lead cancels.  Returns the keys it created."""
    (_, gmono), glc = g.lead()
    d = gcd(h[lead], glc)
    fc, gc = h[lead] // d, glc // d
    if gc != 1:
        for k in h:
            h[k] *= gc
    shift = mono_div(lead[1], gmono)
    created = []
    for (comp, m), c in g.terms.items():
        k = (comp, mono_mul(m, shift))
        delta = c * fc
        s = h.get(k)
        if s is None:
            h[k] = -delta
            created.append(k)
        elif s == delta:
            del h[k]
        else:
            h[k] = s - delta
    return created


def _s_vector(gi: _Vec, gj: _Vec, lcm_ij: Monomial) -> dict:
    """x^(lcm/lead gi)*gi with its lead cancelled against gj: the
    S-vector, not yet primitive, as the first step of its reduction."""
    (comp, mi), _ = gi.lead()
    shift = mono_div(lcm_ij, mi)
    h = {(c, mono_mul(m, shift)): v for (c, m), v in gi.terms.items()}
    _reduce_at(h, (comp, lcm_ij), gj)
    return h


def _mora_normal_form(f: _Vec, reducers: Sequence[_Vec]) -> _Vec:
    """Weak normal form: u*f = sum q_i g_i + r for a unit u of the local
    ring (the remainder is returned up to a nonzero constant factor)."""
    # T in choice order: least écart, then the smaller lead (the larger
    # order key), then position; each key is made once, on entry.
    T: list = []

    def enter(g):
        (comp, m), _ = g.lead()
        gk = sort_key(m)
        key = (g.ecart(), -gk[0], tuple(-x for x in gk[1]), len(T))
        bisect.insort(T, (key, comp, m, g))

    for g in reducers:
        enter(g)
    h = f
    while h:
        hlead = h.lead()[0]
        for key, gcomp, gmono, g in T:
            if gcomp == hlead[0] and mono_divides(gmono, hlead[1]):
                break
        else:
            return h
        if key[0] > h.ecart():  # the écart of g
            enter(h)
        terms = dict(h.terms)
        _reduce_at(terms, hlead, g)
        h = _vec_primitive(_Vec(terms))
    return h


# Steps between two content removals in _global_normal_form.
_CONTENT_EVERY = 8


def _reducer_entry(g: _Vec, e: int, index: int) -> tuple:
    """The entry of basis element `index`, g with t^e in its lead, in the
    reducer table: choice key, then what a division step reads."""
    (comp, m), _ = g.lead()
    return ((len(g.terms), -(sum(m) + e), sort_key(m), index), comp, m, e, g)


def _global_normal_form(h: dict, degree: int, reducers: Sequence[tuple]) -> _Vec:
    """Plain lead reduction of the terms h of a homogeneous vector of
    degree `degree`, in place (see module docstring), against a reducer
    table of _reducer_entry entries in ascending order; the first divisor
    wins.  Terminates as is."""
    # (component, order key, term): the key is unique among the terms of
    # one homogeneous vector, so only entries for the same term tie.
    heap = [(comp, sort_key(m), (comp, m)) for comp, m in h]
    heapq.heapify(heap)
    steps = 0
    while heap:
        lead = heap[0][2]
        if lead not in h:
            heapq.heappop(heap)  # cancelled since it was pushed
            continue
        hcomp, hmono = lead
        hexp = degree - sum(hmono)
        for _, gcomp, gmono, gexp, g in reducers:
            if gcomp == hcomp and gexp <= hexp and mono_divides(gmono, hmono):
                break
        else:
            break  # the lead is irreducible
        for k in _reduce_at(h, lead, g):
            heapq.heappush(heap, (k[0], sort_key(k[1]), k))
        steps += 1
        if steps % _CONTENT_EVERY == 0:
            content = gcd(*h.values())
            if content != 1:
                for k in h:
                    h[k] //= content
        if len(heap) > 2 * len(h):
            # stale entries outnumber live terms: keep one entry per term
            heap = list({e[2]: e for e in heap if e[2] in h}.values())
            heapq.heapify(heap)
    out = _Vec(h)
    if h:
        out._lead = (lead, h[lead])
    return _vec_primitive(out)


def _buchberger(gens: Sequence[_Vec], rank: int) -> List[_Vec]:
    """Homogenized Buchberger completion (see module docstring), with t
    set to 1 in the result."""
    G: List[_Vec] = []
    leads: list = []
    exps: List[int] = []  # exps[i]: the exponent of t in the lead of G[i]
    # Reducer entries in choice order: fewest terms, then greatest
    # homogenized lead degree, then greatest lead, then first added.
    table: list = []
    # Heap entries are (homogenized lcm degree, component, order key of
    # lcm, i, j, lcm).  The key is a total order and (i, j) is unique, so
    # lcm is never compared and pairs pop in ascending key order.
    pairs: list = []

    def add(v, e):
        # The one way into the basis: record v, file its reducer entry,
        # and pair it with every earlier element of its component.
        new = len(G)
        comp, m = v.lead()[0]
        G.append(v)
        leads.append((comp, m))
        exps.append(e)
        bisect.insort(table, _reducer_entry(v, e, new))
        for k in range(new):
            if leads[k][0] == comp:
                lcm_kn = mono_lcm(leads[k][1], m)
                degree = sum(lcm_kn) + max(exps[k], e)
                heapq.heappush(pairs, (degree, comp, sort_key(lcm_kn), k, new, lcm_kn))

    for g in gens:
        if g:
            # homogenized to its largest term degree: t^ecart in its lead
            g = _vec_primitive(g)
            add(g, g.ecart())
    done = set()

    while pairs:
        degree, comp, _, i, j, lcm_ij = heapq.heappop(pairs)
        done.add((i, j))
        mi = leads[i][1]
        mj = leads[j][1]
        if rank == 1 and min(exps[i], exps[j]) == 0 and lcm_ij == mono_mul(mi, mj):
            continue  # product criterion; sound for ideals only
        lcm_exp = max(exps[i], exps[j])
        if any(kcomp == comp and k != i and k != j and exps[k] <= lcm_exp
               and mono_divides(mk, lcm_ij)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k, (kcomp, mk) in enumerate(leads)):
            continue  # chain criterion
        h = _global_normal_form(_s_vector(G[i], G[j], lcm_ij), degree, table)
        if h:
            add(h, degree - sum(h.lead()[0][1]))
    return G


def _absorb_unit_factor(v: _Vec) -> _Vec:
    """Replace unit * leading term by the leading term alone.

    Sound exactly when every tail term sits in the lead component and is
    divisible by the leading monomial: then v = (1 + q) * lead with q a
    non-unit, so the ideal (module) generated is unchanged.
    """
    (comp, mono), coeff = v.lead()
    for (c, m) in v.terms:
        if c != comp or not mono_divides(mono, m):
            return v
    return _Vec({(comp, mono): coeff})


def _minimalize(G: List[_Vec]) -> List[_Vec]:
    """The vectors of G whose lead no earlier lead divides, in canonical
    order, each with a unit factor absorbed: primitive integer vectors."""
    kept: List[_Vec] = []
    kept_leads: List[Tuple[int, Monomial]] = []
    # A divisor has smaller or equal degree, and the order key starts with
    # the degree, so one sort by (component, order key) scans low degree
    # first within each component and leaves the kept vectors in their
    # final order.
    for v in sorted(G, key=lambda v: (v.lead()[0][0], sort_key(v.lead()[0][1]))):
        comp, mono = v.lead()[0]
        if any(c == comp and mono_divides(m, mono) for c, m in kept_leads):
            continue
        kept.append(_absorb_unit_factor(v))
        kept_leads.append((comp, mono))
    return kept


def _complete(rank: int, generators: Iterable[Sequence[Poly]]) -> List[_Vec]:
    """Minimal standard basis of the submodule of O^rank generated by the
    given component lists; an ideal is rank 1, one list [g] per generator."""
    return _minimalize(_buchberger([_vec_from_components(c) for c in generators], rank))


# ---------------------------------------------------------------------------
# public operations

def normal_form(f: Poly, basis: Iterable[Poly]) -> Poly:
    """Mora remainder of f against the given polynomials.

    The result r satisfies u*f = sum q_i g_i + r for some unit u of the
    local ring, and no leading monomial of the basis divides the leading
    monomial of r.
    """
    reducers = []
    for g in basis:
        if g.ring != f.ring:
            raise ValueError("mixed ring contexts")
        if g:
            reducers.append(_vec_from_components([g]))
    start = _vec_from_components([f])
    out = _mora_normal_form(start, reducers)
    if out is start:
        return f  # nothing to reduce: f itself, not a rescaled copy
    return _components(out, 1, f.ring)[0]


def standard_basis(ideal: Ideal) -> StandardBasis:
    """Reduced standard basis of the ideal in the local ring."""
    ring = ideal.ring
    basis = _complete(1, ([g] for g in ideal.generators))
    elements = tuple(_components(v, 1, ring, v.lead()[1])[0] for v in basis)
    staircase = tuple(v.lead()[0][1] for v in basis)
    return StandardBasis(ring, LOCAL_ORDER, elements, staircase)


def _staircase_count(leads: Sequence[Monomial]):
    """Number of monomials that no lead divides, or INFINITE (see module
    docstring).  A ring has at least one variable, so no leads leave
    infinitely many."""
    if not leads:
        return INFINITE
    last = len(leads[0]) - 1
    if last == 0:
        return min(m[0] for m in leads)
    bounds = sorted({0, *(m[last] for m in leads)})
    total = 0
    for start, cut in zip(bounds, bounds[1:] + [None]):
        count = _staircase_count([m[:last] for m in leads if m[last] <= start])
        if count == 0:
            return total  # every later slice has more leads, so is empty too
        if count is INFINITE or cut is None:
            return INFINITE
        total += (cut - start) * count
    return total


def _lead_count(basis: Sequence[_Vec], rank: int):
    """Colength of a submodule of O^rank from its standard basis: the
    standard monomials of each component, summed, or INFINITE."""
    per_component: List[List[Monomial]] = [[] for _ in range(rank)]
    for v in basis:
        comp, mono = v.lead()[0]
        per_component[comp].append(mono)
    counts = [_staircase_count(leads) for leads in per_component]
    return INFINITE if INFINITE in counts else sum(counts)


def colength(ideal: Ideal):
    """Dimension of O_local / ideal over the rationals, or INFINITE."""
    return _lead_count(_complete(1, ([g] for g in ideal.generators)), 1)


def _check_module_gens(rank: int, gens: Sequence[FreeModuleElement]) -> None:
    """Generators of a submodule of O^rank: positive rank, each generator
    of that rank, all from one ring.  The oracle checks the same."""
    if rank < 1:
        raise ValueError("rank must be positive")
    for g in gens:
        if g.rank != rank:
            raise ValueError("module generators of mixed rank")
        if g.ring != gens[0].ring:
            raise ValueError("mixed ring contexts in module generators")


def module_standard_basis(rank: int, gens: Sequence[FreeModuleElement]) -> List[FreeModuleElement]:
    """Standard basis of a submodule of O^r under position-over-term order."""
    _check_module_gens(rank, gens)
    basis = _complete(rank, (g.components for g in gens))
    return [FreeModuleElement(rank, _components(v, rank, gens[0].ring, v.lead()[1])) for v in basis]


def module_colength(rank: int, gens: Sequence[FreeModuleElement]):
    """Dimension of O^rank / <gens>, or INFINITE."""
    _check_module_gens(rank, gens)
    return _lead_count(_complete(rank, (g.components for g in gens)), rank)
