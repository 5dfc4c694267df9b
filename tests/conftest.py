import contextlib
import math
import random
import signal
from fractions import Fraction
from itertools import product

import pytest

from detindex import Poly, RingContext, parse_poly


@pytest.fixture
def ring_xy():
    return RingContext(("x", "y"))


@pytest.fixture
def ring_xyz():
    return RingContext(("x", "y", "z"))


@pytest.fixture
def ring_xyzu():
    return RingContext(("x", "y", "z", "u"))


def parse(src, ring):
    return parse_poly(src, ring)


def random_poly(ring, rng, max_terms=5, max_deg=3, allow_constant=True):
    """Small random polynomial with integer coefficients in [-5, 5]."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0 if allow_constant else 1, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-5, 5)
        if c:
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + c
    poly = ring.zero_poly()
    for mono, c in terms.items():
        poly = poly + Poly(ring, {mono: Fraction(c)}) if c else poly
    return poly


def rng_for(name, seed=0):
    """A generator seeded from a string, so every process draws the same
    values (a str hash changes with PYTHONHASHSEED)."""
    return random.Random(f"{name}:{seed}")


def chi_bar_sum(m, t):
    """Alternating binomial sum over matrix ranks below t: the reference
    value of the closed form chi_bar_hyperplane(m, m, t)."""
    if not 1 <= t <= m:
        raise ValueError("need 1 <= t <= m")
    return -sum((-1) ** k * math.comb(m, k) for k in range(t))


def _rank(rows):
    """Rank of a list of Fraction rows by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def truncated_dims(rank, nvars, cap, gens):
    """Reference per_degree of the truncation oracle, built independently:
    for each d <= cap, dim (O/m^d)^rank / <gens> as columns minus the rank
    of the full matrix of every monomial multiple of every generator cut
    below degree d, by Fraction elimination.  gens: {(comp, mono): int}."""
    out = []
    for d in range(1, cap + 1):
        monos = [m for m in product(range(d), repeat=nvars) if sum(m) < d]
        index = {(comp, m): i for i, (comp, m) in enumerate(product(range(rank), monos))}
        rows = []
        for gen in gens:
            for mult in monos:
                row = [Fraction(0)] * len(index)
                for (comp, m), c in gen.items():
                    prod = tuple(a + b for a, b in zip(m, mult))
                    if sum(prod) < d:
                        row[index[comp, prod]] += c
                rows.append(row)
        out.append((d, len(index) - _rank(rows)))
    return tuple(out)


def oracle_dims(report, cap):
    """(d, H(d)) for d = 1..cap from an oracle report run with a ceiling of
    at least cap: its per_degree, extended by its value past a stabilized
    degree_cap, where H stays (Nakayama)."""
    assert report.stabilized or report.degree_cap >= cap
    tail = range(report.degree_cap + 1, cap + 1) if report.stabilized else ()
    return (report.per_degree + tuple((d, report.value) for d in tail))[:cap]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds, so a
    regression fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
