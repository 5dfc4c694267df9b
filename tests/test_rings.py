import random
import re
from fractions import Fraction

import pytest

from detindex import (
    Poly,
    PolyParseError,
    RingContext,
    parse_poly,
    sort_key,
)

from conftest import random_poly


def P(src, ring):
    return parse_poly(src, ring)


# -- parsing ----------------------------------------------------------------

def test_parse_two_term_sum(ring_xyzu):
    p = P("y+u", ring_xyzu)
    assert p.terms == {
        (0, 1, 0, 0): Fraction(1),
        (0, 0, 0, 1): Fraction(1),
    }


def test_parse_zero(ring_xyzu):
    assert not P("0", ring_xyzu)


def test_parse_binomial_identity(ring_xy):
    assert P("(x+y)^2 - x^2 - 2*x*y", ring_xy) == P("y^2", ring_xy)


def test_parse_rational_literals(ring_xy):
    p = P("1/2*x + 3/4", ring_xy)
    assert p.terms[(1, 0)] == Fraction(1, 2)
    assert p.terms[(0, 0)] == Fraction(3, 4)


def test_parse_unary_minus_and_powers(ring_xy):
    assert P("-x^2", ring_xy) == -P("x", ring_xy) ** 2
    assert P("-(x - y)", ring_xy) == P("y - x", ring_xy)


def test_parse_unknown_variable(ring_xy):
    with pytest.raises(PolyParseError, match="unknown variable"):
        P("x + w", ring_xy)


def test_parse_syntax_error_carries_position(ring_xy):
    with pytest.raises(PolyParseError) as err:
        P("x + * y", ring_xy)
    assert err.value.position == 4


def test_parse_unexpected_character_carries_position(ring_xy):
    with pytest.raises(PolyParseError, match=r"unexpected character '\$'") as err:
        P("x $ y", ring_xy)
    assert err.value.position == 2


def test_parse_ignores_trailing_whitespace(ring_xy):
    assert P("x + y ", ring_xy) == P("x + y", ring_xy)


def test_parse_rejects_trailing_garbage(ring_xy):
    with pytest.raises(PolyParseError):
        P("x y", ring_xy)


def test_parse_deep_nesting_is_a_parse_error(ring_xy):
    assert P("(" * 100 + "x" + ")" * 100, ring_xy) == P("x", ring_xy)
    with pytest.raises(PolyParseError, match="nested too deeply") as err:
        P("(" * 3000 + "x" + ")" * 3000, ring_xy)
    assert err.value.position == 100


@pytest.mark.parametrize("src, position", [("7" * 5000 + "*x", 0), ("x^" + "7" * 5000, 2)])
def test_parse_numeral_past_the_digit_limit_is_a_parse_error(ring_xy, src, position):
    # Was a ValueError from int(): past the interpreter's 4300-digit limit.
    with pytest.raises(PolyParseError, match="numeral too long") as err:
        P(src, ring_xy)
    assert err.value.position == position


def test_render_parse_round_trip_specific(ring_xyzu):
    for src in ("0", "1", "-1", "y + u", "x^2 - y^2", "1/2*x*y - 3*z^4 + 7",
                "x*y*z*u", "-x + 1/3"):
        p = P(src, ring_xyzu)
        assert P(p.render(), ring_xyzu) == p


def test_render_parse_round_trip_random(ring_xyz):
    rng = random.Random(101)
    for _ in range(200):
        p = random_poly(ring_xyz, rng)
        assert P(p.render(), ring_xyz) == p


# -- arithmetic ---------------------------------------------------------------

def test_additive_inverse(ring_xy):
    x = ring_xy.variable("x")
    assert not x + (-x)


def test_difference_of_squares(ring_xy):
    x, y = ring_xy.variable("x"), ring_xy.variable("y")
    assert (x + y) * (x - y) == P("x^2 - y^2", ring_xy)


def test_matrix_minor_expansion(ring_xyzu):
    # 2x2 minor of the columns (y+u, x) / (x, y) block
    prod = P("y+u", ring_xyzu) * P("y", ring_xyzu) - P("x", ring_xyzu) * P("x", ring_xyzu)
    assert prod == P("y^2 + u*y - x^2", ring_xyzu)


def test_mixed_ring_contexts_rejected(ring_xy, ring_xyz):
    with pytest.raises(ValueError, match="mixed ring"):
        ring_xy.variable("x") + ring_xyz.variable("x")


def test_ring_axioms_randomized(ring_xyz):
    rng = random.Random(7)
    for _ in range(80):
        f = random_poly(ring_xyz, rng)
        g = random_poly(ring_xyz, rng)
        h = random_poly(ring_xyz, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def _term_by_term_product(f, g):
    """f*g one Fraction product at a time, in the order of the terms: a
    term that cancels is dropped and, met again, appended.  Also returns
    whether that happened."""
    out, reappeared, dropped = {}, False, set()
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            if m not in out:
                reappeared = reappeared or m in dropped
                out[m] = ca * cb
            elif out[m] + ca * cb:
                out[m] += ca * cb
            else:
                del out[m]
                dropped.add(m)
    return out, reappeared


def test_product_matches_the_term_by_term_fraction_product(ring_xyz):
    # The product works on integer numerators over one denominator per
    # factor; its terms, values and order are those of the Fraction product.
    rng = random.Random(8)
    # x*yz, then y*(-xz) cancels it, then z*xy brings xyz back at the end
    pairs = [(P("1/2*x + y + 2/3*z", ring_xyz), P("y*z - 1/2*x*z + 3/4*x*y", ring_xyz))]
    for _ in range(300):
        pairs.append(tuple(
            Poly(ring_xyz, {m: c / rng.choice((1, 2, 3, 4, 6, 9, 35)) for m, c in
                            random_poly(ring_xyz, rng, max_terms=7, max_deg=2).terms.items()})
            for _ in range(2)))
    reappeared = 0
    for f, g in pairs:
        expected, again = _term_by_term_product(f, g)
        got = f * g
        assert list(got.terms.items()) == list(expected.items())
        assert all(type(c) is Fraction for c in got.terms.values())
        reappeared += again
    assert reappeared


def test_power_builds_no_product_past_the_result(monkeypatch, ring_xy):
    multiply = Poly.__mul__
    degrees = []

    def recording(self, other):
        out = multiply(self, other)
        degrees.append(out.total_degree())
        return out

    p = P("x + y", ring_xy)
    expected = [ring_xy.one_poly()]
    for _ in range(9):
        expected.append(expected[-1] * p)
    monkeypatch.setattr(Poly, "__mul__", recording)
    for e in range(10):
        degrees.clear()
        assert p ** e == expected[e]
        assert all(d <= e * p.total_degree() for d in degrees), (e, degrees)


def test_exactness_no_rounding(ring_xy):
    third = ring_xy.constant(Fraction(1, 3))
    assert third + third + third == ring_xy.one_poly()


# -- derivatives --------------------------------------------------------------

def test_partial_derivative_examples(ring_xyzu):
    assert P("x^2*y", ring_xyzu).partial_derivative(0) == P("2*x*y", ring_xyzu)
    assert not P("y+u", ring_xyzu).partial_derivative(2)
    assert P("z*x - u*(y+u)", ring_xyzu).partial_derivative(3) == P("-y - 2*u", ring_xyzu)


def test_partial_derivative_index_range(ring_xy):
    with pytest.raises(IndexError):
        P("x", ring_xy).partial_derivative(2)


def test_leibniz_rule_randomized(ring_xyz):
    rng = random.Random(23)
    for _ in range(60):
        f = random_poly(ring_xyz, rng)
        g = random_poly(ring_xyz, rng)
        for i in range(3):
            lhs = (f * g).partial_derivative(i)
            rhs = f * g.partial_derivative(i) + g * f.partial_derivative(i)
            assert lhs == rhs


# -- the local order ----------------------------------------------------------
# A smaller sort key means a greater monomial.

key = sort_key


def test_one_is_greatest():
    assert key((0, 0)) < key((1, 0))
    assert key((0, 0)) < key((0, 3))


def test_equal_degree_revlex_tie_break():
    # x^2 vs x*y at equal degree: reverse lexicographic puts x^2 first
    assert key((2, 0)) < key((1, 1))
    assert key((1, 1)) > key((2, 0))


def test_compare_reflexive():
    assert key((1, 0)) == key((1, 0))


def _random_monomials(rng, nvars, count, max_deg=4):
    out = []
    for _ in range(count):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(nvars)] += 1
        out.append(tuple(mono))
    return out


def test_order_axioms_randomized():
    rng = random.Random(5)
    monos = _random_monomials(rng, 3, 40)
    for a in monos:
        for b in monos:
            ka, kb = key(a), key(b)
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            assert (ka == kb) == (a == b)
            if sum(a) < sum(b):
                assert ka < kb  # anti-graded: lower degree is greater
            for c in monos:
                # multiplication compatible
                if ka < kb:
                    pa = tuple(x + y for x, y in zip(a, c))
                    pb = tuple(x + y for x, y in zip(b, c))
                    assert key(pa) < key(pb)
    # transitivity on sorted triples
    s = sorted(monos, key=key)
    for i in range(len(s) - 2):
        if key(s[i]) < key(s[i + 1]) and key(s[i + 1]) < key(s[i + 2]):
            assert key(s[i]) < key(s[i + 2])


def test_leading_monomial_has_least_degree(ring_xy):
    p = P("x + x^2 + y^3", ring_xy)
    assert p.leading_monomial() == (1, 0)


def test_variable_names_validated():
    with pytest.raises(ValueError):
        RingContext(("x", "x"))
    with pytest.raises(ValueError):
        RingContext(("2bad",))
    with pytest.raises(ValueError):
        RingContext(())


XY = RingContext(("x", "y"))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: XY.variable(5), IndexError, "variable index out of range", id="variable-index"),
    pytest.param(lambda: XY.zero_poly().leading_monomial(), ValueError,
                 "zero polynomial has no leading monomial", id="zero-leading-monomial"),
    pytest.param(lambda: XY.variable(0) ** -1, ValueError, "exponent must be a nonnegative integer",
                 id="negative-power"),
    pytest.param(lambda: P("(x", XY), PolyParseError, "expected ')' (at position 2)", id="unclosed"),
    pytest.param(lambda: P("x^y", XY), PolyParseError, "exponent must be a nonnegative integer (at position 2)",
                 id="variable-exponent"),
    pytest.param(lambda: P("1/x", XY), PolyParseError, "expected integer denominator (at position 2)",
                 id="variable-denominator"),
    pytest.param(lambda: P("1/0", XY), PolyParseError, "zero denominator (at position 2)", id="zero-denominator"),
])
def test_rejected_calls_name_the_fault(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_zero_polynomial_accessors_and_repr(ring_xy):
    zero = ring_xy.zero_poly()
    assert zero.constant_term() == Fraction(0) and isinstance(zero.constant_term(), Fraction)
    assert zero.total_degree() == 0
    assert repr(zero) == "Poly(0)"
    assert repr(P("x - 2*y", ring_xy)) == "Poly(x - 2*y)"
