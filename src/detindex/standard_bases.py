"""Standard bases and colengths in the local ring at the origin.

Basis completion is Lazard's: generators are made homogeneous with one
extra variable t, a plain Buchberger loop runs under the matched graded
order, and setting t to 1 gives a standard basis for the local order.
This avoids the long écart-driven reduction chains of a direct Mora
completion, whose exact coefficients blow up on dense input.  An engine
vector is a plain dict from term key (below) to int coefficient.  The
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
h := gc*h - fc*x^shift*g with fc and gc the coefficient of h at that
term and the lead coefficient of g divided by their gcd, so it scales h
only when the lead coefficient of g does not divide the other.  An
S-vector is the first step of its own reduction: x^(lcm/lead gi)*gi is
cancelled against gj at the lcm, and the same dict is reduced on, term
by term, lead and tail alike.  Its terms surface in ascending key order
from a heap of term keys with lazy deletion: a key whose term has
cancelled is skipped when it surfaces, a term no reducer divides stays,
and every other term is cancelled.  A step creates only keys greater
than the one it cancels, and one homogeneous degree holds finitely many
terms, so the walk ends.  The content is removed every few steps and at
the end.  Under position over term only elements leading in one
component reduce or pair with each other, so the completion keeps, per
component, a table of reducers in choice order, (number of terms,
homogenized lead degree descending, lead key, position), and the list
of elements leading there.  A new basis element enters both and is
paired with that list.  A reduction step takes, from the table of the
term's component, the first entry whose lead divides the term.  A
one-term element is primitive, so its coefficient is 1: a step against
it, or an S-vector's first step, just deletes the term.  So each
new basis element joins with its tail reduced against the basis as it
stood then; older elements are not reduced again against it.  Short
tails keep the reducers, and so every later reduction, short.  The
tails do not touch the leads: the minimal leads generate the leading
module of the input, whatever the tails.
Every remainder is a nonzero multiple of the one a step-by-step
primitive reduction would hold, so both choose the same reducers and
end in the same primitive vector.

Terms are keyed by one int each (Monagan-Pearce, J. Symb. Comput. 46,
2011).  In a ring of n variables with fields of W bits, the term
x^m in component c has the key

    c*2^((n+1)W) + |m|*2^(nW) + sum of m_i*2^(iW),

so ascending key order is (component, ``rings.sort_key``): position
over term, earlier components first, and within a component the one
term order that orders every ``Poly`` too.  It is the local order, and
on the terms of one homogeneous vector, which share their degree with
t, the graded order.  A vector's lead is its least key: code that holds
it already (a basis element's is kept with it) passes it on, the rest
takes min of the dict.  A monomial
product is one addition of keys and a quotient one subtraction (the
component field cancels), and for two keys a, b of one component, a
divides b exactly when ((b | tops) - a) & tops == tops, where tops holds
the top bit of each of the n + 1 low fields: a field of b with its top
bit set loses that bit to the subtraction exactly when its value is
below a's, and never borrows from the field above.  That holds, and no
sum of two fields carries, while every exponent and degree stays below
2^(W-1).  In the completion every exponent of a vector is at most its
homogenized degree, and that is at most the degree of the pair it comes
from, so one check per pair covers a run.  A failed check restarts the
run at twice the width, from the least width (16 bits at the least) that
holds the input's degrees.  Every choice the engine makes depends on key
order alone, which the width does not change, so the rerun returns the
same result.  The lcm of two leads is taken on their keys too: the same
borrow, on the top bits of the n exponent fields alone, marks the fields
where a_i >= b_i, and so gives the fieldwise minima; the lcm's degree is
|a| + |b| less their sum, which field n-1 of one product by
1 + 2^W + ... + 2^((n-1)W) holds (it is below 2^(W-1), so nothing
carries).  Tuples are made only at the exits: results, staircases and
colength counts read unpacked leads.  Critical pairs wait in a heap
keyed, when the pair is created, by (homogenized lcm degree, key of the
lcm, i, j); leads never change, so the key is fixed.  Coprime leads are
discarded in the ideal case (the product criterion is not sound for
submodules of free modules), and the classical chain criterion prunes
pairs dominated by an already-treated element: each element keeps a
bitmask of the elements whose pair with it has popped, and only the
common bits of a pair's two masks are tested.

The engine is integer-only.  Coefficients are rationals (``Fraction``)
at the public functions; denominators are cleared once on the way in,
and every vector the engine makes is kept primitive: integer
coefficients with content 1 and a positive leading coefficient.  That
representative is unique, so the reduction steps are fraction-free.
Rationals are made in one exit helper, _components, and only for a
returned result, and each is divided by its leading coefficient there.
Colength queries read the leads alone and make no rational.

An ideal is the rank-1 case of a submodule of a free module O^r
(Greuel-Pfister, section 2.3): it enters the one completion with one
rank-1 vector per generator.

One walk reads the standard monomials (those no leading monomial
divides) from the leads alone, by slices in the exponent of the last
variable, and gives three answers: their number, their top degree, the
greatest degree among them (-1 when there is none), and the corners,
those of top degree, as term keys.  Between two consecutive leading
exponents start < cut the slices are equal, each walked recursively
from the leads at or below start with the last variable dropped
(Bayer-Stillman's recursion on monomial ideals, pivoting on powers of
the last variable): the stretch adds (cut - start) times the slice's
count, and its top degree and corners are the slice's times
x_last^(cut - 1).  The slices past the largest leading exponent never
end, so the answers are INFINITE when they are not empty.  A module
sums the counts of its components and takes the greatest top degree
with the corners of the components that reach it.

The completion cuts at the highest corner.  Once the leads of an ideal
leave finitely many standard monomials, all of degree at most the top
degree c, every monomial of degree c + 1 is a lead.  Under the local
degree order every other term of an element has a degree at least its
lead's, so m^(c+1) lies in the ideal by Nakayama (Greuel-Pfister,
section 1.7; the highest corner is Grassmann et al., AAECC 7, 1996).
So a pair whose lcm has degree above c has an S-vector in m^(c+1) and is
skipped, and a normal form deletes every term of degree above c: the
run is the one for the ideal plus m^(c+1), the same ideal.  When all
the terms of each generator share one degree, every vector of the run is
homogeneous, no term carries t, and pairs pop by degree, so the loop
ends at the first pair above c: every term of a greater degree is
divisible by a lead, the pairs left reduce to zero term by term, and the
basis is term for term what the full loop returns.  Otherwise only tails
above c can change, never a lead.  A module takes the cut only on
homogeneous input, and only as that end of the loop: under position over
term a tail in a later component can have a lower degree than the lead,
so m^(c+1)O^r need not lie in the module ((x^2, y), (xy, 0), (y^2, 0),
(0, x), (0, y^3) in x, y has top 1, yet not (x^2, 0)); nor does écart 0
mean homogeneous, as (x^2, y) is (x^2, t*y) homogenized.  A staircase
is finite exactly when its leads hold a pure power of every variable (a
lead of degree 0 counts for all), and no walk runs before that holds in
every component.  Then a joining lead drops the corners it divides; the
top stands while one is left, as the staircase only shrinks, and the
loop walks again at the first pop after the last is gone.  So the loop can end inside a degree: the argument holds at any
pop.

Membership is a lead question too, not a division: f lies in I exactly
when I + (f) has the staircase of I (Greuel-Pfister, section 1.6), so
StandardBasis.contains runs one completion and compares staircases.
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
    """Ideal of the local ring, given by generators (zero generators dropped).

    `==` and `hash` compare presentations (the ring and the generator
    tuple), not ideals: Ideal([x, y]) != Ideal([y, x]).  Two ideals I and J
    are equal when I, J and I + J have equal staircases (I and J lie in
    I + J, and an ideal inside another with the same staircase is the
    other); `StandardBasis.contains` tests membership the same way.
    """

    generators: Tuple[Poly, ...]
    ring: RingContext

    def __init__(self, generators: Sequence[Poly]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise ValueError("mixed ring contexts in ideal generators")
        object.__setattr__(self, "generators", tuple(g for g in gens if g))
        object.__setattr__(self, "ring", ring)


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


@dataclass(frozen=True)
class StandardBasis:
    """Minimal local standard basis with its leading-term staircase.

    Minimal means: no leading monomial divides another, so the leads are
    the minimal generators of the leading ideal.  Elements are monic and
    listed from greatest to least leading monomial, so the output is
    canonical for a given generating set.  An element the completion made
    has its tail reduced against the basis as it stood when the element
    joined; a generator keeps its tail as given, and no element is reduced
    again against later ones.  The leads, and so the staircase, do not
    depend on the tails.
    Membership compares staircases: I + (f) contains I, so it equals I
    exactly when the two have the same leading ideal, and so the same
    minimal leads in the same canonical order.  For an ideal with a
    finite staircase whose generators are not homogeneous, the tails may
    lack terms of degree above the staircase's top degree (see the module
    docstring): those lie in the ideal.
    """

    ring: RingContext
    order: str
    elements: Tuple[Poly, ...]
    staircase: Tuple[Monomial, ...]

    def contains(self, f: Poly) -> bool:
        # the zero first pins the ring: Ideal drops it but rejects an f of another ring
        bigger = Ideal((self.ring.zero_poly(), *self.elements, f))
        return standard_basis(bigger).staircase == self.staircase

    def colength(self):
        width = _first_width(max(map(sum, self.staircase), default=0))
        return _staircase_walk(self.staircase, width)[0]


# ---------------------------------------------------------------------------
# packed term keys (see module docstring)

class _Overflow(Exception):
    """A field of a term key is about to reach the limit of its width."""


class _Keys:
    """The term keys of one run: n variables, fields of `width` bits."""

    __slots__ = ("nvars", "width", "limit", "mask", "degree_shift", "comp_shift", "tops",
                 "exp_tops", "exp_mask", "term_mask", "ones", "sum_shift")

    def __init__(self, nvars: int, width: int):
        self.nvars = nvars
        self.width = width
        # Every exponent and degree stays below limit: no field carries,
        # and the borrow test below is exact.
        self.limit = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.degree_shift = nvars * width
        self.comp_shift = (nvars + 1) * width
        self.tops = sum(self.limit << (i * width) for i in range(nvars + 1))
        # the same for the n exponent fields alone, and what lcm reads
        self.exp_tops = self.tops & ~(self.limit << self.degree_shift)
        self.exp_mask = (1 << self.degree_shift) - 1
        self.term_mask = (1 << self.comp_shift) - 1
        self.ones = sum(1 << (i * width) for i in range(nvars))
        self.sum_shift = max(nvars - 1, 0) * width

    def pack(self, comp: int, mono: Monomial) -> int:
        key = (comp << self.width) | sum(mono)
        for e in reversed(mono):
            key = (key << self.width) | e
        return key

    def unpack(self, key: int) -> Tuple[int, Monomial]:
        width, mask = self.width, self.mask
        return key >> self.comp_shift, tuple((key >> (i * width)) & mask for i in range(self.nvars))

    def degree(self, key: int) -> int:
        return (key >> self.degree_shift) & self.mask

    def divides(self, a: int, b: int) -> bool:
        """Whether the term of a divides that of b, both of one component."""
        tops = self.tops
        return ((b | tops) - a) & tops == tops

    def lcm(self, a: int, b: int) -> int:
        """The key of the lcm of the terms of a and b, both of one component."""
        # the top bit of field i survives the subtraction exactly when a_i >= b_i
        ge = ((a | self.exp_tops) - b) & self.exp_tops
        mins = (a ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))) & self.exp_mask
        # field n-1 of mins * (1 + 2^W + ...) holds the sum of the minima
        sum_mins = (mins * self.ones >> self.sum_shift) & self.mask
        return a + (b & self.term_mask) - mins - (sum_mins << self.degree_shift)


def _first_width(degree: int) -> int:
    """The least width, 16 bits at the least, whose fields hold `degree`."""
    return max(16, degree.bit_length() + 1)


# ---------------------------------------------------------------------------
# engine vectors: dict[term key] -> int, led by the least key

def _vec_from_components(components: Sequence[Poly], keys: _Keys) -> dict:
    """Integer vector: the rational components times the least common
    denominator of their coefficients (a positive scalar)."""
    coeffs = [c for poly in components for c in poly.terms.values()]
    den = lcm(*(c.denominator for c in coeffs))
    terms = {}
    for comp, poly in enumerate(components):
        for m, c in poly.terms.items():
            terms[keys.pack(comp, m)] = c.numerator * (den // c.denominator)
    return terms


def _components(vec: dict, rank: int, ring: RingContext, keys: _Keys) -> List[Poly]:
    """The rank rational component polynomials of vec divided by its lead
    coefficient: the one place the engine makes rationals."""
    scale = vec[min(vec)]
    buckets: List[dict] = [dict() for _ in range(rank)]
    for k, c in vec.items():
        comp, m = keys.unpack(k)
        buckets[comp][m] = Fraction(c, scale)
    return [Poly(ring, b) for b in buckets]


def _vec_primitive(v: dict) -> dict:
    """Divide an integer vector by its content, signed so that the leading
    coefficient is positive: the canonical representative of v up to a
    nonzero scalar (keeps coefficient growth in check during long
    reduction chains)."""
    if not v:
        return v
    content = gcd(*v.values())
    if v[min(v)] < 0:
        content = -content
    if content == 1:
        return v
    return {k: c // content for k, c in v.items()}


def _reduce_at(h: dict, at: int, g: dict, glead: int, heap: list) -> None:
    """The one cancellation kernel: h := gc*h - fc*x^shift*g in place, where
    x^shift times glead, the lead of g, is the term `at` of h, and fc, gc
    are h[at] and g[glead] divided by their gcd, so the term at `at`
    cancels.  Pushes the keys it creates onto the heap."""
    glc = g[glead]
    d = gcd(h[at], glc)
    fc, gc = h[at] // d, glc // d
    if gc != 1:
        for k in h:
            h[k] *= gc
    shift = at - glead
    for k, c in g.items():
        k += shift
        delta = c * fc
        s = h.get(k)
        if s is None:
            h[k] = -delta
            heapq.heappush(heap, k)
        elif s == delta:
            del h[k]
        else:
            h[k] = s - delta


def _s_vector(gi: dict, ilead: int, gj: dict, jlead: int, lcm_ij: int) -> dict:
    """x^(lcm/ilead)*gi with its lead cancelled against gj, for ilead and
    jlead the leads of gi and gj: the S-vector, not yet primitive, as the
    first step of its reduction."""
    shift = lcm_ij - ilead
    h = {k + shift: v for k, v in gi.items()}
    if len(gj) == 1:
        del h[lcm_ij]  # primitive, gj is its lead with coefficient 1
    else:
        _reduce_at(h, lcm_ij, gj, jlead, [])
    return h


# Steps between two content removals in _global_normal_form.
_CONTENT_EVERY = 8


def _reducer_entry(g: dict, lead: int, e: int, index: int, keys: _Keys) -> tuple:
    """The entry of basis element `index`, g with t^e in its lead, in its
    component's reducer table: choice key, then what a division step reads."""
    return ((len(g), -(keys.degree(lead) + e), lead, index), lead, e, g)


def _global_normal_form(h: dict, degree: int, tables: Sequence[list], keys: _Keys, cut: int) -> dict:
    """Full reduction of the terms h of a homogeneous vector of degree
    `degree`, in place (see module docstring), against one table per
    component of _reducer_entry entries in ascending order: every term,
    lead and tail, is cancelled in ascending key order by the first
    divisor in its component's table, until no term is divisible.  Terms
    whose key is `cut` or more are deleted.  It ends: a step creates only
    keys greater than the one it cancels, and one homogeneous degree holds
    finitely many terms."""
    tops, mask = keys.tops, keys.mask
    degree_shift, comp_shift = keys.degree_shift, keys.comp_shift
    heap = list(h)
    heapq.heapify(heap)
    steps = 0
    while heap:
        term = heapq.heappop(heap)
        if term not in h:
            continue  # cancelled since it was pushed
        if term >= cut:
            # every term left to reduce is at least this one
            h = {k: c for k, c in h.items() if k < cut}
            break
        hexp = degree - ((term >> degree_shift) & mask)
        covered = term | tops
        for _, glead, gexp, g in tables[term >> comp_shift]:
            if gexp <= hexp and (covered - glead) & tops == tops:
                break
        else:
            continue  # irreducible: the term stays
        if len(g) == 1:
            del h[term]  # primitive, g is its lead with coefficient 1
            continue
        _reduce_at(h, term, g, glead, heap)
        steps += 1
        if steps % _CONTENT_EVERY == 0:
            content = gcd(*h.values())
            if content != 1:
                for k in h:
                    h[k] //= content
    return _vec_primitive(h)


def _buchberger(gens: Sequence[dict], rank: int, keys: _Keys) -> List[dict]:
    """Homogenized Buchberger completion (see module docstring), with t
    set to 1 in the result."""
    tops, limit, mask, degree_shift = keys.tops, keys.limit, keys.mask, keys.degree_shift
    lcm_of = keys.lcm
    G: List[dict] = []
    leads: List[Monomial] = []  # leads[i]: the exponent tuple of the lead of G[i]
    lead_keys: List[int] = []
    exps: List[int] = []  # exps[i]: the exponent of t in the lead of G[i]
    done: List[int] = []  # done[i]: bit k set once the pair {i, k} has popped
    # Per component: reducer entries in choice order (fewest terms, then
    # greatest homogenized lead degree, then greatest lead, then first
    # added), and the indices of the elements leading there.
    tables: List[list] = [[] for _ in range(rank)]
    members: List[List[int]] = [[] for _ in range(rank)]
    # Heap entries are (homogenized lcm degree, key of lcm, i, j): a
    # total order, as (i, j) is unique.
    pairs: list = []
    # The highest corner (see module docstring): the (component,
    # variable) pairs with no pure power among the leads yet, then the
    # corners of the last walk that no lead has divided since.
    unpowered = {(comp, i) for comp in range(rank) for i in range(keys.nvars)}
    corners: List[int] = []
    degree_field = mask << degree_shift

    def add(v, degree):
        # The one way into the basis: record v of homogenized degree
        # `degree`, file its reducer entry, and pair it with every earlier
        # element of its component.
        nonlocal corners
        new = len(G)
        lead = min(v)
        e = degree - keys.degree(lead)
        comp, m = keys.unpack(lead)
        G.append(v)
        leads.append(m)
        lead_keys.append(lead)
        exps.append(e)
        done.append(0)
        bisect.insort(tables[comp], _reducer_entry(v, lead, e, new, keys))
        support = [i for i, a in enumerate(m) if a]
        if len(support) <= 1:  # a pure power, or 1, which is one of every variable
            unpowered.difference_update((comp, i) for i in support or range(keys.nvars))
        if corners:
            # corners have no degree field: the top may pass the width's limit
            bare = lead & ~degree_field
            corners = [c for c in corners
                       if c >> keys.comp_shift != comp or not keys.divides(bare, c)]
        for k in members[comp]:
            lcm_kn = lcm_of(lead_keys[k], lead)
            degree = ((lcm_kn >> degree_shift) & mask) + max(exps[k], e)
            # Bounds every exponent and degree of the pair's S-vector
            # and its reduction; see _complete for the restart.
            if degree >= limit:
                raise _Overflow
            heapq.heappush(pairs, (degree, lcm_kn, k, new))
        members[comp].append(new)

    # the highest-corner cut (see module docstring) ends the loop on input
    # whose every generator has all its terms in one degree
    homogeneous = True
    for g in gens:
        if g:
            # homogenized to its largest term degree, which the first
            # width holds
            degrees = {keys.degree(k) for k in g}
            homogeneous = homogeneous and len(degrees) == 1
            add(_vec_primitive(g), max(degrees))
    top = INFINITE
    # Terms with keys from cut on lie above the top, and an ideal's normal
    # forms delete them; no key reaches the first cut, nor a module's.
    cut = rank << keys.comp_shift

    while pairs:
        degree, lcm_ij, i, j = heapq.heappop(pairs)
        if (rank == 1 or homogeneous) and not unpowered and not corners:
            _, top, corners = _lead_walk([[leads[k] for k in ks] for ks in members], keys)
            if rank == 1:
                cut = (top + 1) << degree_shift
        if top is not INFINITE and (lcm_ij >> degree_shift) & mask > top:
            if homogeneous:
                break  # pairs pop by degree: every pair left lies above the top
            continue  # the S-vector lies in m^(top+1), inside the ideal
        done[i] |= 1 << j
        done[j] |= 1 << i
        if rank == 1 and min(exps[i], exps[j]) == 0 and lcm_ij == lead_keys[i] + lead_keys[j]:
            continue  # product criterion; sound for ideals only
        lcm_exp = max(exps[i], exps[j])
        covered = lcm_ij | tops
        # the elements k whose pairs with i and with j have both popped
        common = done[i] & done[j]
        while common:
            k = (common & -common).bit_length() - 1
            if exps[k] <= lcm_exp and (covered - lead_keys[k]) & tops == tops:
                break
            common &= common - 1
        if common:
            continue  # chain criterion
        s = _s_vector(G[i], lead_keys[i], G[j], lead_keys[j], lcm_ij)
        h = _global_normal_form(s, degree, tables, keys, cut)
        if h:
            add(h, degree)
    return G


def _absorb_unit_factor(v: dict, keys: _Keys) -> dict:
    """Replace unit * leading term by the leading term alone.

    Sound exactly when every tail term sits in the lead component and is
    divisible by the leading monomial: then v = (1 + q) * lead with q a
    non-unit, so the ideal (module) generated is unchanged.
    """
    lead = min(v)
    comp = lead >> keys.comp_shift
    for k in v:
        if k >> keys.comp_shift != comp or not keys.divides(lead, k):
            return v
    return {lead: v[lead]}


def _minimalize(G: List[dict], keys: _Keys) -> List[dict]:
    """The vectors of G whose lead no earlier lead divides, in canonical
    order, each with a unit factor absorbed: primitive integer vectors."""
    kept: List[dict] = []
    kept_leads: List[int] = []
    # A divisor has smaller or equal degree, and the key orders by
    # component and then degree, so one sort by lead key scans low degree
    # first within each component and leaves the kept vectors in their
    # final order.
    for v in sorted(G, key=min):
        lead = min(v)
        comp = lead >> keys.comp_shift
        if any(k >> keys.comp_shift == comp and keys.divides(k, lead) for k in kept_leads):
            continue
        kept.append(_absorb_unit_factor(v, keys))
        kept_leads.append(lead)
    return kept


def _complete(rank: int, generators: Iterable[Sequence[Poly]]) -> Tuple[_Keys, List[dict]]:
    """Minimal standard basis of the submodule of O^rank generated by the
    given component lists, with the keys it is written in: from the first
    width that holds the input's largest term degree, and at twice the
    width for as long as the run overflows.  An ideal is rank 1, one list
    [g] per generator."""
    generators = [tuple(c) for c in generators]
    polys = [p for c in generators for p in c]
    nvars = polys[0].ring.nvars if polys else 0  # no generators, no keys
    width = _first_width(max((p.total_degree() for p in polys), default=0))
    while True:
        keys = _Keys(nvars, width)
        try:
            return keys, _minimalize(
                _buchberger([_vec_from_components(c, keys) for c in generators], rank, keys), keys)
        except _Overflow:
            # Every choice of the engine depends on key order alone, and
            # the width does not change that order, so the rerun at twice
            # the width makes the same choices and returns the same result.
            width *= 2


# ---------------------------------------------------------------------------
# public operations

def standard_basis(ideal: Ideal) -> StandardBasis:
    """Minimal standard basis of the ideal in the local ring (see
    StandardBasis)."""
    ring = ideal.ring
    keys, basis = _complete(1, ([g] for g in ideal.generators))
    elements = tuple(_components(v, 1, ring, keys)[0] for v in basis)
    staircase = tuple(keys.unpack(min(v))[1] for v in basis)
    return StandardBasis(ring, LOCAL_ORDER, elements, staircase)


def _staircase_walk(leads: Sequence[Monomial], width: int):
    """(number of monomials that no lead divides, greatest degree of such
    a monomial or -1 when there is none, the list of such monomials of
    that degree: the corners), or (INFINITE, INFINITE, []) (see module
    docstring).  A corner x^m is packed as sum of m_i*2^(i*width): a term
    key of _Keys with its degree and component fields 0.  A ring has at
    least one variable, so no leads leave infinitely many."""
    if not leads:
        return INFINITE, INFINITE, []
    last = len(leads[0]) - 1
    if last == 0:
        count = min(m[0] for m in leads)
        return count, count - 1, [count - 1] if count else []
    bounds = sorted({0, *(m[last] for m in leads)})
    total, top, corners = 0, -1, []
    for start, cut in zip(bounds, bounds[1:] + [None]):
        count, slice_top, slice_corners = _staircase_walk(
            [m[:last] for m in leads if m[last] <= start], width)
        if count == 0:
            return total, top, corners  # every later slice has more leads, so is empty too
        if count is INFINITE or cut is None:
            return INFINITE, INFINITE, []
        total += (cut - start) * count
        # the stretch's top and corners lie in its last slice, x_last^(cut - 1)
        stretch_top = slice_top + cut - 1
        if stretch_top >= top:
            lifted = [c + ((cut - 1) << (last * width)) for c in slice_corners]
            if stretch_top > top:
                top, corners = stretch_top, lifted
            else:
                corners += lifted


def _lead_walk(per_component: Sequence[Sequence[Monomial]], keys: _Keys):
    """(colength, top degree, corners) of a submodule from the leads of
    its standard basis in each component: the sum of the components'
    counts, the greatest of their top degrees, and the corners of the
    components that reach it, their component fields set; or (INFINITE,
    INFINITE, [])."""
    walks = [_staircase_walk(leads, keys.width) for leads in per_component]
    if any(count is INFINITE for count, _, _ in walks):
        return INFINITE, INFINITE, []
    top = max(top for _, top, _ in walks)
    corners = [c + (comp << keys.comp_shift)
               for comp, (_, comp_top, comp_corners) in enumerate(walks) if comp_top == top
               for c in comp_corners]
    return sum(count for count, _, _ in walks), top, corners


def _lead_count(keys: _Keys, basis: Sequence[dict], rank: int):
    """Colength of a submodule of O^rank from its standard basis, written
    in keys, or INFINITE."""
    per_component: List[List[Monomial]] = [[] for _ in range(rank)]
    for v in basis:
        comp, mono = keys.unpack(min(v))
        per_component[comp].append(mono)
    return _lead_walk(per_component, keys)[0]


def colength(ideal: Ideal):
    """Dimension of O_local / ideal over the rationals, or INFINITE."""
    return _lead_count(*_complete(1, ([g] for g in ideal.generators)), 1)


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
    keys, basis = _complete(rank, (g.components for g in gens))
    return [FreeModuleElement(rank, _components(v, rank, gens[0].ring, keys))
            for v in basis]


def module_colength(rank: int, gens: Sequence[FreeModuleElement]):
    """Dimension of O^rank / <gens>, or INFINITE."""
    _check_module_gens(rank, gens)
    return _lead_count(*_complete(rank, (g.components for g in gens)), rank)
