import contextlib
import math
import random
import signal

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
        poly = poly + Poly(ring, {mono: ring.coeff(c)}) if c else poly
    return poly


def rng_for(name, seed=0):
    return random.Random(hash((name, seed)) & 0xFFFFFFFF)


def chi_bar_sum(m, t):
    """Alternating binomial sum over matrix ranks below t: the reference
    value of the closed form chi_bar_hyperplane(m, m, t)."""
    if not 1 <= t <= m:
        raise ValueError("need 1 <= t <= m")
    return -sum((-1) ** k * math.comb(m, k) for k in range(t))


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
