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

Each row is walked once, column by column upward, from a heap of its
column keys: a column with a pivot is cleared by subtracting a multiple
of the whole pivot row, whose lead cancels the row's entry there and
whose other columns lie above it (a pivot row has no column below its
pivot); these are pushed as they appear.  The first column without a
pivot is the row's lead; the walk goes on past it and clears every later
column that has a pivot, so a row is stored tail-reduced against the
pivots before it (stored pivots are not revisited): a pivot is that row
itself, made primitive (content 1, positive lead).  Which columns become
pivots depends only on the row space, not on how rows reduce.  A column
is its own key, a packed int with no table behind it: a monomial of
degree < D has every exponent < D, so code(m) = sum m_i * D^i packs it
with no carry, and the key deg * rank * D^n + comp * D^n + code orders
the columns by degree, then component, then code.  Multiplying a row by
a monomial adds a constant to each of its keys.

Rows that the row space already holds are not built.  The rows enter
generator by generator, and a generator's rows by multiplier in the
order of _multiplier_codes (by degree, then lex), which is a monomial
order: x_i * a comes before x_i * b whenever a comes before b.  The
cut of x_i times a cut row m*g is the row x_i*m*g of the same generator
(or zero, when that row is left out for having no term below D), and
the rows before m*g, times x_i, are rows before x_i*m*g or zero.  So
when m*g lies in the span of the rows before it, so does x_i*m*g: it
would reduce to zero and add no pivot.  A generator's row for m is
skipped when m/x_i was dependent (reduced to zero or was skipped) for
some x_i dividing m.  The pivots are those of the elimination of every
row, entry for entry.

Because the associated graded module of a quotient is generated in
degree zero, two equal consecutive values dim at caps D-1 and D certify
that the quotient is finite-dimensional and that the shared value is the
exact colength, so stabilization is a proof, not a heuristic: once
H(d-1) = H(d), H is constant from d on (Nakayama).  The driver runs one
elimination per round at caps counted down from the ceiling, the cap
below a cap n being ceil(2n/3) (ceiling 64: 4, 5, 7, 10, 14, 20, 29, 43,
64; a ceiling below 5 is the only round), and stops at the first
round whose last two values agree.  So a plateau at d0 > 4 costs a last
elimination at a cap of at most 3(d0 - 1)/2, where doubling could take
one at 2(d0 - 1).  The report does not depend on where the rounds
fall: its degree_cap is the least cap of the doubling schedule 4, 8,
16, ..., ceiling at or past the first plateau d0 (the ceiling if there
is none), and its per_degree is H(1..degree_cap), extended by the
plateau value past the last round's cap.

An ideal is the rank-1 case: its generators and a module's go through
one row builder.  The linear algebra runs on integer rows (denominators
cleared once per generator, primitive pivot rows, fraction-free
cross-multiplication) on the generators as given, with no division,
écart or homogenization step, so the oracle shares no failure mode with
the standard-basis engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

from .standard_bases import INFINITE, FreeModuleElement, Ideal, _check_module_gens

ORACLE_START_CAP = 4
ORACLE_CEILING = 64


@dataclass(frozen=True)
class TruncationReport:
    """The Hilbert-Samuel function H(d) = dim O/(I + m^d) for d up to
    degree_cap.  degree_cap is the least cap of the doubling schedule
    (ORACLE_START_CAP, twice that, ..., the ceiling) at or past the first
    plateau H(d-1) = H(d), or the ceiling on a give-up; it is not the cap
    of the last elimination."""

    degree_cap: int
    per_degree: Tuple[Tuple[int, int], ...]  # (d, H(d)) for d = 1..degree_cap
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
    # A monomial of degree < cap has every exponent < cap, so it packs
    # with no carry into code(m) = sum m_i * cap^i, and code(m) + code(n)
    # is code(mn) whenever mn has degree < cap.  A column's key is
    # deg * rank * cap^nvars + comp * cap^nvars + code: ascending keys run
    # degree by degree, then component, then code, and the multiplier m
    # shifts a key by deg(m) * rank * cap^nvars + code(m).
    weights = [cap**i for i in range(nvars)]
    codes = _multiplier_codes(nvars, cap)
    base = cap**nvars
    step = rank * base

    pivots = {}  # column key -> its primitive row {key: coefficient}, lead > 0
    for gen in gen_terms:
        terms = [
            (sum(m), sum(m) * step + comp * base + sum(map(mul, m, weights)), c)
            for (comp, m), c in gen
            if sum(m) < cap
        ]
        if not terms:
            continue  # no term below the cap: every row is zero
        top = cap - 1 - min(deg for deg, _, _ in terms)  # the multipliers' top degree
        dependent = set()  # codes of the multipliers whose row was dependent
        for mdeg in range(top + 1):
            for mcode in codes[mdeg]:
                for w in weights:
                    # m/x_i dependent, where m_i >= 1: without the digit test
                    # mcode - w could borrow into another monomial
                    if mcode - w in dependent and mcode // w % cap:
                        dependent.add(mcode)
                        break
                else:
                    shift = mdeg * step + mcode
                    if not _add_row({key + shift: c for deg, key, c in terms if deg < cap - mdeg}, pivots):
                        dependent.add(mcode)

    # free[e]: the rank * C(e+nvars-1, nvars-1) columns of degree e minus its pivots
    free = [rank * comb(e + nvars - 1, nvars - 1) for e in range(cap)]
    for key in pivots:
        free[key // step] -= 1
    return list(accumulate(free, initial=0))


def _multiplier_codes(nvars: int, cap: int) -> List[List[int]]:
    """codes[d]: the codes sum m_i * cap^i of the monomials m of degree
    d < cap in nvars variables, in lex order of (m_0, m_1, ...)."""
    # Built from the last variable back: the monomials in x_i, x_{i+1}, ...
    # of degree d are x_i^h times those in x_{i+1}, ... of degree d - h,
    # for h = 0, 1, ..., d in turn.
    codes = [[d * cap ** (nvars - 1)] for d in range(cap)]
    for i in range(nvars - 2, -1, -1):
        w = cap**i
        codes = [[h * w + c for h in range(d + 1) for c in codes[d - h]] for d in range(cap)]
    return codes


def _add_row(row: dict, pivots: dict) -> bool:
    """Reduce row {key: coefficient} against the pivots and store it, made
    primitive, as the pivot at its lead; False when it reduces to zero."""
    # Walk the row's columns upward.  A pivot row has no column below
    # its pivot, so clearing a column only adds later ones.
    get = row.get
    heap = sorted(row)
    lead = None
    while heap:
        col = heappop(heap)
        c = get(col)
        if c is None:
            continue  # cancelled, or cleared and popped again
        pivot = pivots.get(col)
        if pivot is None:
            if lead is None:
                lead = col
            continue
        pc = pivot[col]
        if pc == 1:
            b = c
        else:
            g = gcd(c, pc)
            a, b = pc // g, c // g
            if a != 1:
                for k in row:
                    row[k] *= a
        for k, v in pivot.items():  # col too: a*c - b*pc = 0 deletes it
            s = get(k)
            if s is None:
                row[k] = -b * v
                heappush(heap, k)
            else:
                s -= b * v
                if s:
                    row[k] = s
                else:
                    del row[k]
    if lead is None:
        return False
    # Tail-reduced; kept as is when already primitive with a positive lead.
    content = gcd(*row.values())
    if row[lead] < 0:
        content = -content
    pivots[lead] = row if content == 1 else {k: v // content for k, v in row.items()}
    return True


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


def _stabilize(rank: int, gen_terms, nvars: int, ceiling: int) -> TruncationReport:
    if ceiling < 2:
        raise ValueError("ceiling must be at least 2: stabilization compares two caps")
    rounds = [ceiling]
    while rounds[-1] > ORACLE_START_CAP:
        rounds.append((2 * rounds[-1] + 2) // 3)
    for cap in reversed(rounds):
        dims = _hilbert_samuel(rank, gen_terms, nvars, cap)
        if dims[cap - 1] == dims[cap]:
            break
    else:
        return TruncationReport(ceiling, tuple(enumerate(dims))[1:], False, dims[ceiling])
    # the doubling schedule's report: its least cap at or past the first
    # plateau, where H is constant from the plateau on
    plateau = next(d for d in range(1, cap + 1) if dims[d - 1] == dims[d])
    report_cap = min(ORACLE_START_CAP, ceiling)
    while report_cap < plateau:
        report_cap = min(2 * report_cap, ceiling)
    dims += [dims[cap]] * (report_cap - cap)
    return TruncationReport(report_cap, tuple(enumerate(dims[: report_cap + 1]))[1:], True, dims[cap])


def stabilized_colength(ideal: Ideal, ceiling: int = ORACLE_CEILING) -> TruncationReport:
    """Rounds two thirds apart up to the ceiling; stabilized=False is an
    honest give-up."""
    return _stabilize(1, _gen_terms((g,) for g in ideal.generators), ideal.ring.nvars, ceiling)


def stabilized_module_colength(
    rank: int, gens: Sequence[FreeModuleElement], ceiling: int = ORACLE_CEILING
) -> TruncationReport:
    _check_module_gens(rank, gens)  # the rank is checked first, also with no generators
    if not gens:
        raise ValueError("need at least one module generator")
    return _stabilize(rank, _gen_terms(gen.components for gen in gens), gens[0].ring.nvars, ceiling)
