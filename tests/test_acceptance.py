"""Acceptance suite: one test per release criterion, exact values only.

Each test prints a single pass/fail line so the suite can be eyeballed
with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

from detindex import (
    DetSingularity,
    Ideal,
    OneForm,
    Poly,
    RingContext,
    StrataIndexData,
    chi_bar_hyperplane,
    chi_singular_stratum,
    coeff_matrices,
    colength,
    icis_ideal,
    icis_index,
    isolated_indices,
    omega_quotient_dim,
    parse_poly,
    ph_index,
    phn_from_radial,
    radial_from_phn,
    smoothable_index,
    stabilized_colength,
    stratum_dim,
    stratum_ideal,
)
from detindex.cli import run

from conftest import chi_bar_sum

MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir, "manifests", "surface-232.json")


def report_line(number, ok, detail):
    print("criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def run_command(tmp_path, command, name):
    out = str(tmp_path / name)
    start = time.perf_counter()
    code = run([command, MANIFEST, "--output", out])
    elapsed = time.perf_counter() - start
    with open(out) as fh:
        result = json.load(fh)["result"]
    return code, result, elapsed


def surface_values(tmp_path):
    code_a, result_a, secs_a = run_command(tmp_path, "alg-index", "alg.json")
    code_h, result_h, secs_h = run_command(tmp_path, "hom-index", "hom.json")
    return (code_a, result_a["alg_index"], secs_a), (code_h, result_h["omega_quotient_dim"], secs_h)


def test_criterion_1_surface_example(tmp_path):
    (code_a, alg, secs_a), (code_h, hom, secs_h) = surface_values(tmp_path)
    ok = code_a == 0 and code_h == 0 and alg == 5 and hom == 6 and secs_a < 60 and secs_h < 60
    report_line(
        1, ok,
        "alg_index=%r (%.2fs), omega_quotient_dim=%r (%.2fs); expected exactly 5 and 6 under 60s each"
        % (alg, secs_a, hom, secs_h),
    )


def test_criterion_2_semicontinuity(tmp_path):
    (_, alg, _), (_, hom, _) = surface_values(tmp_path)
    ok = alg >= 3 and hom >= 3
    report_line(2, ok, "alg_index=%r >= 3 and omega_quotient_dim=%r >= 3" % (alg, hom))


def test_criterion_3_combinatorial_identities():
    start = time.perf_counter()
    inverse_ok = True
    for m in range(1, 9):
        for n in range(m, 9):
            for t in range(1, m + 1):
                mats = coeff_matrices(m, n, t)
                for i in range(t):
                    for j in range(t):
                        s = sum(mats.nmat[i][k] * mats.mmat[k][j] for k in range(t))
                        if s != (1 if i == j else 0):
                            inverse_ok = False
    sum_ok = True
    for m in range(1, 11):
        for t in range(1, m + 1):
            if chi_bar_hyperplane(m, m, t) != chi_bar_sum(m, t):
                sum_ok = False
    elapsed = time.perf_counter() - start
    ok = inverse_ok and sum_ok and elapsed < 5
    report_line(
        3, ok,
        "matrix inverses exact for t<=m<=n<=8: %s; hyperplane closed form equals the "
        "alternating sum for t<=m<=10: %s; %.2fs (< 5s)" % (inverse_ok, sum_ok, elapsed),
    )


def _monomial_ideal(ring, exponent_sets):
    gens = []
    for expts in exponent_sets:
        gens.append(Poly(ring, {tuple(expts): Fraction(1)}))
    return Ideal(gens)


def _power_ideal(nvars, k):
    ring = RingContext(tuple("abcd"[:nvars]))
    from itertools import combinations_with_replacement

    gens = []
    for combo in combinations_with_replacement(range(nvars), k):
        expts = [0] * nvars
        for i in combo:
            expts[i] += 1
        gens.append(Poly(ring, {tuple(expts): Fraction(1)}))
    return Ideal(gens), math.comb(nvars + k - 1, nvars)


def _oracle_corpus():
    corpus = []  # (label, ideal, expected or None)
    rxy = RingContext(("x", "y"))
    rxyz = RingContext(("x", "y", "z"))

    for a, b in ((1, 1), (2, 3), (3, 3), (4, 2)):
        corpus.append((
            "monomial x^%d,y^%d" % (a, b),
            _monomial_ideal(rxy, [(a, 0), (0, b)]),
            a * b,
        ))
    corpus.append(("monomial x^2,x*y,y^3", _monomial_ideal(rxy, [(2, 0), (1, 1), (0, 3)]), 4))
    for nvars in (2, 3):
        for k in (2, 3):
            ideal, expected = _power_ideal(nvars, k)
            corpus.append(("m^%d in %d vars" % (k, nvars), ideal, expected))

    def icis_case(label, equation, ring, direction, expected):
        f = parse_poly(equation, ring)
        return (label, icis_ideal([f], OneForm.coordinate(ring, direction)), expected)

    for k in range(1, 5):
        corpus.append(icis_case("A%d + dx" % k, "y^2 + x^%d" % (k + 1), rxy, "x", k + 1))
        corpus.append(icis_case("A%d + dy" % k, "y^2 + x^%d" % (k + 1), rxy, "y", 2 * k))
    corpus.append(icis_case("A1 quadric + dz", "x^2 + y^2 + z^2", rxyz, "z", 2))
    corpus.append(icis_case("A1 quadric + dx", "x^2 + y^2 + z^2", rxyz, "x", 2))

    rng = random.Random(424242)
    for nvars in (2, 3, 4):
        ring = RingContext(tuple("wxyz"[-nvars:]))
        for _ in range(2):
            gens = []
            for _ in range(nvars - 1):
                terms = {}
                for i in range(nvars):
                    mono = [0] * nvars
                    mono[i] = 1
                    terms[tuple(mono)] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)))
                gens.append(Poly(ring, terms))
            quad_terms = {}
            for i in range(nvars):
                for j in range(i, nvars):
                    mono = [0] * nvars
                    mono[i] += 1
                    mono[j] += 1
                    quad_terms[tuple(mono)] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)))
            gens.append(Poly(ring, quad_terms))
            corpus.append(("dense linear+quadric in %d vars" % nvars, Ideal(gens), None))
    return corpus


def test_criterion_4_oracle_equivalence():
    corpus = _oracle_corpus()
    failures = []
    derived = {}
    for label, ideal, expected in corpus:
        engine = colength(ideal)
        oracle = stabilized_colength(ideal)
        if not oracle.stabilized or engine != oracle.value:
            failures.append("%s: engine=%r oracle=%r stabilized=%r"
                            % (label, engine, oracle.value, oracle.stabilized))
        if expected is not None and engine != expected:
            failures.append("%s: engine=%r expected=%r" % (label, engine, expected))
        if label in ("A1 quadric + dz", "A2 + dx"):
            derived[label] = engine
    ok = (
        not failures
        and len(corpus) >= 25
        and derived.get("A1 quadric + dz") == 2
        and derived.get("A2 + dx") == 3
    )
    report_line(
        4, ok,
        "%d ideals, colength == stabilized oracle value on all%s; quadric+dz=%r, cusp+dx=%r"
        % (len(corpus), " (failures: %s)" % "; ".join(failures) if failures else "",
           derived.get("A1 quadric + dz"), derived.get("A2 + dx")),
    )


def test_criterion_5_conversion_properties():
    rng = random.Random(90125)
    t1_ok = True
    for _ in range(1000):
        n = rng.randint(1, 7)
        ambient = rng.randint(1, 10)
        rad, chi = rng.randint(-50, 50), rng.randint(-50, 50)
        d = stratum_dim(1, n, 1, ambient)
        data = StrataIndexData(1, n, 1, ambient, (rad,), (chi,))
        for k in (1, 2, 3):
            if ph_index(data, k) != smoothable_index(rad, chi - 1, d):
                t1_ok = False
    round_trip_ok = True
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(m, 7)
        t = rng.randint(1, m)
        ambient = rng.randint(1, 12)
        rad = [rng.randint(-50, 50) for _ in range(t)]
        chibar = [rng.randint(-50, 50) for _ in range(t)]
        phn = [phn_from_radial(rad[:j], chibar[:j], m, n, j, ambient) for j in range(1, t + 1)]
        if radial_from_phn(phn, m, n, t, ambient, chibar[-1]) != rad[-1]:
            round_trip_ok = False
    degenerate_ok = True
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(m, 7)
        t = rng.randint(1, m)
        ambient = (m - t + 2) * (n - t + 2)
        rad, chibar = rng.randint(-50, 50), rng.randint(-50, 50)
        d = stratum_dim(m, n, t, ambient)
        for k in (1, 2, 3):
            ph, phn = isolated_indices(m, n, t, ambient, rad, chibar, 0, k)
            if ph != smoothable_index(rad, chibar, d) or phn != smoothable_index(rad, chibar, d):
                degenerate_ok = False
    ok = t1_ok and round_trip_ok and degenerate_ok
    report_line(
        5, ok,
        "single-stratum identity on 1000 draws: %s; conversion round trip on 1000 draws: %s; "
        "vanishing deep-stratum count degenerates to the smoothable formula: %s"
        % (t1_ok, round_trip_ok, degenerate_ok),
    )


def test_criterion_6_icis_coincidence():
    cases = []
    rxy = RingContext(("x", "y"))
    for k in range(1, 5):
        for direction in ("x", "y"):
            cases.append(("A%d plane curve, d%s" % (k, direction),
                          "y^2 + x^%d" % (k + 1), rxy, direction))
    rxyz = RingContext(("x", "y", "z"))
    cases.append(("A1 surface, dz", "x^2 + y^2 + z^2", rxyz, "z"))
    cases.append(("A1 surface, dx", "x^2 + y^2 + z^2", rxyz, "x"))
    failures = []
    for label, equation, ring, direction in cases:
        f = parse_poly(equation, ring)
        sing = DetSingularity.create(ring, [[f]], 1)
        form = OneForm.coordinate(ring, direction)
        hom = omega_quotient_dim(sing, form)
        alg = icis_index([f], form)
        if hom != alg:
            failures.append("%s: %r != %r" % (label, hom, alg))
    ok = not failures and len(cases) >= 8
    report_line(
        6, ok,
        "%d instances, top-form quotient equals the minors-algebra dimension on all%s"
        % (len(cases), " (failures: %s)" % "; ".join(failures) if failures else ""),
    )


def test_criterion_7_deep_stratum_count():
    ring = RingContext(tuple("abcdef"))
    generic = DetSingularity.create(
        ring,
        [[ring.variable(i) for i in range(3)], [ring.variable(i) for i in range(3, 6)]],
        2,
    )
    squared = DetSingularity.create(
        ring,
        [[ring.variable(0), ring.variable(1), ring.variable(2)],
         [ring.variable(3), ring.variable(4), ring.variable(5) ** 2]],
        2,
    )
    value_g = chi_singular_stratum(generic)
    value_s = chi_singular_stratum(squared)
    oracle_g = stabilized_colength(stratum_ideal(generic, 1))
    oracle_s = stabilized_colength(stratum_ideal(squared, 1))
    ok = (
        value_g == 1 and value_s == 2
        and oracle_g.stabilized and oracle_g.value == 1
        and oracle_s.stabilized and oracle_s.value == 2
    )
    report_line(
        7, ok,
        "generic model: %r (oracle %r), squared-entry variant: %r (oracle %r); expected 1 and 2"
        % (value_g, oracle_g.value, value_s, oracle_s.value),
    )
