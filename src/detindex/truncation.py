"""Brute-force verification oracle, independent of the division engine.

The quotient dimension dim O/(I + m^D) is computed by exact linear
algebra: the rows are all monomial multiples of the generators truncated
below degree D, the columns are the monomials of degree < D, and the
dimension is columns minus rank.  No standard basis machinery is used.

The columns are numbered degree first, and each row is reduced at its
smallest column, so every pivot row has no term below its pivot's
degree.  The rows for a smaller cap d are the cap-D rows cut to degree
< d, whose rank is the number of pivots of degree < d: one elimination
at cap D gives dim O/(I + m^d) for every d <= D (the Hilbert-Samuel
function of the quotient).

Because the associated graded module of a quotient is generated in
degree zero, two equal consecutive values dim at caps D-1 and D certify
that the quotient is finite-dimensional and that the shared value is the
exact colength, so stabilization is a proof, not a heuristic.  The
driver doubles the cap each round, one elimination per round, and runs
its last round at the ceiling itself.

An ideal is the rank-1 case: its generators and a module's go through
one row builder.  The linear algebra runs on integer rows (denominators
cleared once per generator, primitive pivot rows, fraction-free
cross-multiplication) on the generators as given, with no division,
écart or homogenization step, so the oracle shares no failure mode with
the standard-basis engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .rings import mono_degree, mono_mul, monomials_up_to
from .standard_bases import INFINITE, FreeModuleElement, Ideal, _check_module_gens

ORACLE_START_CAP = 4
ORACLE_CEILING = 64


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of truncated quotient-dimension runs up to a degree cap."""

    degree_cap: int
    per_degree: Tuple[Tuple[int, int], ...]  # (cap, dimension) pairs
    stabilized: bool
    value: int

    def agrees_with(self, engine_value) -> bool:
        if self.stabilized:
            return engine_value == self.value
        # Never stabilizing is consistent only with an infinite quotient.
        return engine_value is INFINITE


def _hilbert_samuel(rank: int, gen_terms, nvars: int, cap: int) -> List[int]:
    """dims[d] = dim of (O/m^d)^rank modulo the generators, for every d <= cap.

    One integer elimination at cap: the pivots of degree < d are the rank
    of the cap-d rows, which are the cap rows cut to degree < d.
    """
    monos = list(monomials_up_to(nvars, cap - 1))
    keys = sorted((mono_degree(m), comp, m[::-1]) for comp in range(rank) for m in monos)
    column = {(comp, rev[::-1]): col for col, (_, comp, rev) in enumerate(keys)}

    pivots = {}
    for gen in gen_terms:
        terms = [(comp, m, mono_degree(m), c) for (comp, m), c in gen]
        mindeg = min(deg for _, _, deg, _ in terms)
        for mult in monomials_up_to(nvars, cap - 1 - mindeg):
            room = cap - mono_degree(mult)
            row = {column[comp, mono_mul(m, mult)]: c for comp, m, deg, c in terms if deg < room}
            while row:
                pivot = min(row)
                prow = pivots.get(pivot)
                if prow is None:
                    content = gcd(*row.values())
                    if row[pivot] < 0:
                        content = -content
                    pivots[pivot] = {k: c // content for k, c in row.items()}
                    break
                g = gcd(row[pivot], prow[pivot])
                a, b = prow[pivot] // g, row[pivot] // g
                if a != 1:
                    row = {k: a * c for k, c in row.items()}
                for k, c in prow.items():
                    s = row.get(k, 0) - b * c
                    if s:
                        row[k] = s
                    else:
                        del row[k]
            # fully reduced to zero: dependent row, nothing to record

    free = [0] * cap  # free[e]: columns minus pivots of degree e
    for deg, _, _ in keys:
        free[deg] += 1
    for col in pivots:
        free[keys[col][0]] -= 1
    return list(accumulate(free, initial=0))


def _gen_terms(gens):
    """Integer terms ((component, monomial), coefficient) of each nonzero
    generator, given as its component polynomials: the terms times the
    lcm of their denominators."""
    out = []
    for components in gens:
        terms = [((comp, m), c) for comp, poly in enumerate(components) for m, c in poly.terms.items()]
        if terms:
            scale = lcm(*(c.denominator for _, c in terms))
            out.append(tuple((key, c.numerator * (scale // c.denominator)) for key, c in terms))
    return out


def _module_gen_terms(rank: int, gens: Sequence[FreeModuleElement]):
    _check_module_gens(rank, gens)  # the rank is checked first, also with no generators
    if not gens:
        raise ValueError("need at least one module generator")
    return _gen_terms(gen.components for gen in gens)


def _report(rank: int, gen_terms, nvars: int, degree_cap: int) -> TruncationReport:
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    dims = _hilbert_samuel(rank, gen_terms, nvars, degree_cap)
    value = dims[degree_cap]
    stabilized = degree_cap >= 2 and dims[degree_cap - 1] == value
    return TruncationReport(degree_cap, tuple(enumerate(dims))[1:], stabilized, value)


def truncated_colength_oracle(ideal: Ideal, degree_cap: int) -> TruncationReport:
    """Exact dim O/(I + m^d) for every cap d up to degree_cap."""
    return _report(1, _gen_terms((g,) for g in ideal.generators), ideal.ring.nvars, degree_cap)


def truncated_module_colength(
    rank: int, gens: Sequence[FreeModuleElement], degree_cap: int
) -> TruncationReport:
    return _report(rank, _module_gen_terms(rank, gens), gens[0].ring.nvars, degree_cap)


def _stabilize(rank: int, gen_terms, nvars: int, ceiling: int) -> TruncationReport:
    if ceiling < 2:
        raise ValueError("ceiling must be at least 2: stabilization compares two caps")
    cap = min(ORACLE_START_CAP, ceiling)
    per_degree: List[Tuple[int, int]] = []
    while True:
        dims = _hilbert_samuel(rank, gen_terms, nvars, cap)
        seen = per_degree[-1][0] if per_degree else 0
        per_degree.extend((c, dims[c]) for c in (cap - 1, cap) if c > seen)
        if dims[cap - 1] == dims[cap]:
            return TruncationReport(cap, tuple(per_degree), True, dims[cap])
        if cap == ceiling:
            return TruncationReport(cap, tuple(per_degree), False, dims[cap])
        cap = min(2 * cap, ceiling)


def stabilized_colength(ideal: Ideal, ceiling: int = ORACLE_CEILING) -> TruncationReport:
    """Doubling cap schedule from ORACLE_START_CAP; stabilized=False is an
    honest give-up."""
    return _stabilize(1, _gen_terms((g,) for g in ideal.generators), ideal.ring.nvars, ceiling)


def stabilized_module_colength(
    rank: int, gens: Sequence[FreeModuleElement], ceiling: int = ORACLE_CEILING
) -> TruncationReport:
    return _stabilize(rank, _module_gen_terms(rank, gens), gens[0].ring.nvars, ceiling)
