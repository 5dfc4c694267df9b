"""Brute-force verification oracle, independent of the division engine.

The quotient dimension dim O/(I + m^D) is computed by exact linear
algebra: the rows are all monomial multiples of the generators truncated
below degree D, the columns are the monomials of degree < D, and the
dimension is columns minus rank.  No standard basis machinery is used.

Because the associated graded module of a quotient is generated in
degree zero, two equal consecutive values dim at caps D-1 and D certify
that the quotient is finite-dimensional and that the shared value is the
exact colength, so stabilization is a proof, not a heuristic.

The linear algebra runs over the rationals on the generators as given,
with no division, écart or homogenization step, so the oracle shares no
failure mode with the standard-basis engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .rings import mono_degree, mono_mul, monomials_up_to
from .standard_bases import INFINITE, FreeModuleElement, Ideal

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


def _rows_for_cap(rank: int, gens, nvars: int, cap: int):
    rows = []
    for gen in gens:
        terms = [((comp, m), c) for (comp, m), c in gen]
        if not terms:
            continue
        mindeg = min(mono_degree(m) for (_, m), _ in terms)
        for mult in monomials_up_to(nvars, cap - 1 - mindeg):
            row = {}
            for (comp, m), c in terms:
                mm = mono_mul(m, mult)
                if mono_degree(mm) < cap:
                    row[(comp, mm)] = c
            if row:
                rows.append(row)
    return rows


def _quotient_dim(rank: int, gens, nvars: int, cap: int) -> int:
    """dim of (O/m^cap)^rank modulo the truncated generator multiples."""
    total = rank * sum(1 for _ in monomials_up_to(nvars, cap - 1))
    colkey = {}
    for comp in range(rank):
        for m in monomials_up_to(nvars, cap - 1):
            colkey[(comp, m)] = (comp, mono_degree(m), m[::-1])
    pivots = {}
    matrix_rank = 0
    for row in _rows_for_cap(rank, gens, nvars, cap):
        row = dict(row)
        while row:
            pivot = min(row, key=colkey.get)
            if pivot not in pivots:
                pc = row[pivot]
                pivots[pivot] = {k: c / pc for k, c in row.items()}
                matrix_rank += 1
                break
            factor = row[pivot]
            for k, c in pivots[pivot].items():
                if k in row:
                    s = row[k] - factor * c
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                else:
                    row[k] = -factor * c
        # fully reduced to zero: dependent row, nothing to record
    return total - matrix_rank


def _gen_terms_from_ideal(ideal: Ideal):
    return [tuple(((0, m), c) for m, c in g.terms.items()) for g in ideal.generators]


def _gen_terms_from_module(gens: Sequence[FreeModuleElement]):
    out = []
    for gen in gens:
        terms = []
        for comp, poly in enumerate(gen.components):
            terms.extend(((comp, m), c) for m, c in poly.terms.items())
        out.append(tuple(terms))
    return out


def _report(rank: int, gen_terms, nvars: int, degree_cap: int) -> TruncationReport:
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    dims = [(cap, _quotient_dim(rank, gen_terms, nvars, cap)) for cap in range(1, degree_cap + 1)]
    value = dims[-1][1]
    stabilized = len(dims) >= 2 and dims[-2][1] == value
    return TruncationReport(degree_cap, tuple(dims), stabilized, value)


def truncated_colength_oracle(ideal: Ideal, degree_cap: int) -> TruncationReport:
    """Exact dim O/(I + m^degree_cap) for every cap up to degree_cap."""
    return _report(1, _gen_terms_from_ideal(ideal), ideal.ring.nvars, degree_cap)


def truncated_module_colength(
    rank: int, gens: Sequence[FreeModuleElement], degree_cap: int
) -> TruncationReport:
    if not gens:
        raise ValueError("need at least one module generator")
    nvars = gens[0].ring.nvars
    return _report(rank, _gen_terms_from_module(gens), nvars, degree_cap)


def _stabilize(rank: int, gen_terms, nvars: int, start: int, ceiling: int) -> TruncationReport:
    if ceiling < 2:
        raise ValueError("ceiling must be at least 2: stabilization compares two caps")
    cap = min(max(2, start), ceiling)
    dims: List[Tuple[int, int]] = []
    known = {}
    while cap <= ceiling:
        for c in (cap - 1, cap):
            if c not in known:
                known[c] = _quotient_dim(rank, gen_terms, nvars, c)
                dims.append((c, known[c]))
        if known[cap - 1] == known[cap]:
            return TruncationReport(cap, tuple(dims), True, known[cap])
        cap *= 2
    return TruncationReport(min(cap, ceiling), tuple(dims), False, dims[-1][1])


def stabilized_colength(
    ideal: Ideal, start: int = ORACLE_START_CAP, ceiling: int = ORACLE_CEILING
) -> TruncationReport:
    """Doubling cap schedule; stabilized=False is an honest give-up."""
    return _stabilize(1, _gen_terms_from_ideal(ideal), ideal.ring.nvars, start, ceiling)


def stabilized_module_colength(
    rank: int,
    gens: Sequence[FreeModuleElement],
    start: int = ORACLE_START_CAP,
    ceiling: int = ORACLE_CEILING,
) -> TruncationReport:
    if not gens:
        raise ValueError("need at least one module generator")
    nvars = gens[0].ring.nvars
    return _stabilize(rank, _gen_terms_from_module(gens), nvars, start, ceiling)
