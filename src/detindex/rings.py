"""Exact sparse multivariate polynomials with a local monomial ordering.

A polynomial is a map from exponent tuples to nonzero rational
coefficients (``fractions.Fraction``).  The zero polynomial has an empty
term map, so equality of canonical forms is plain dict equality.

The single supported term order is anti-graded reverse lexicographic:
lower total degree wins, ties are broken reverse-lexicographically.  Under
this order the constant monomial 1 is the greatest monomial, which is what
makes leading terms those of the local ring at the origin.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Tuple

Monomial = Tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class RingContext:
    """Ambient polynomial ring over the rationals: ordered variable names."""

    variables: Tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError("invalid variable name %r" % (name,))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError("unknown variable name %r" % (name,)) from None

    def zero_poly(self) -> "Poly":
        return Poly(self, {})

    def one_poly(self) -> "Poly":
        return self.constant(1)

    def constant(self, value) -> "Poly":
        c = Fraction(value)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def variable(self, index) -> "Poly":
        if isinstance(index, str):
            index = self.variable_index(index)
        if not 0 <= index < self.nvars:
            raise IndexError("variable index out of range")
        expt = [0] * self.nvars
        expt[index] = 1
        return Poly(self, {tuple(expt): Fraction(1)})


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def sort_key(mono: Monomial):
    """The one term order, anti-graded reverse lexicographic: smaller key
    means greater monomial, so ascending-key iteration walks monomials
    from greatest to least."""
    return (sum(mono), mono[::-1])


# The order's name, as reports print it.
LOCAL_ORDER = "anti-graded reverse lexicographic"


def _add_term(terms: dict, m: Monomial, c) -> None:
    """Add c to the coefficient of m in terms, dropping m if it cancels."""
    if m not in terms:
        terms[m] = c
        return
    s = terms[m] + c
    if s:
        terms[m] = s
    else:
        del terms[m]


class Poly:
    """Immutable multivariate polynomial in canonical form (no zero terms)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Max total degree of a term; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def leading_monomial(self) -> Monomial:
        """The greatest monomial under the local order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=sort_key)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        if not self.terms or not other.terms:
            return Poly(self.ring, {})
        # integer numerators over one common denominator per factor, and
        # one Fraction per term of the product
        da = lcm(*(c.denominator for c in self.terms.values()))
        db = lcm(*(c.denominator for c in other.terms.values()))
        right = [(mb, cb.numerator * (db // cb.denominator)) for mb, cb in other.terms.items()]
        out: dict = {}
        for ma, ca in self.terms.items():
            na = ca.numerator * (da // ca.denominator)
            for mb, nb in right:
                _add_term(out, mono_mul(ma, mb), na * nb)
        den = da * db
        return Poly(self.ring, {m: Fraction(c, den) for m, c in out.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one_poly()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def partial_derivative(self, index: int) -> "Poly":
        if not 0 <= index < self.ring.nvars:
            raise IndexError("variable index out of range")
        out: dict = {}
        for m, c in self.terms.items():
            e = m[index]
            if e == 0:
                continue
            dm = list(m)
            dm[index] = e - 1
            _add_term(out, tuple(dm), c * e)
        return Poly(self.ring, out)

    # -- rendering -----------------------------------------------------------

    def _mono_str(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.ring.variables, mono):
            if e == 0:
                continue
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts)

    def render(self) -> str:
        """Canonical text form: terms in decreasing order under the local order."""
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=sort_key):
            c = self.terms[mono]
            sign, mag = ("-", -c) if c < 0 else ("+", c)
            mono_s = self._mono_str(mono)
            coeff_s = str(mag)
            if not mono_s:
                body = coeff_s
            elif mag == 1:
                body = mono_s
            else:
                body = coeff_s + "*" + mono_s
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "Poly(%s)" % self.render()


# ---------------------------------------------------------------------------
# parser

class PolyParseError(ValueError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(
                "unexpected character %r" % stripped[0], len(src) - len(stripped)
            )
        if m.lastgroup == "int":
            try:
                value = int(m.group("int"))
            except ValueError:  # more digits than the interpreter converts
                raise PolyParseError("numeral too long", m.start("int")) from None
            tokens.append(("int", value, m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


# Each parenthesis level costs four Python frames (expr, term, factor,
# atom); this bound keeps the parser well inside the interpreter's
# recursion limit whatever the caller's stack depth.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str, ring: RingContext):
        self.src = src
        self.ring = ring
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise PolyParseError("expected %r" % op, pos)
        return self.advance()

    def parse(self) -> Poly:
        poly = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolyParseError("unexpected trailing input", pos)
        return poly

    def expr(self) -> Poly:
        poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self) -> Poly:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> Poly:
        negate = False
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                if value == "-":
                    negate = not negate
            else:
                break
        poly = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            poly = poly ** value
        return -poly if negate else poly

    def atom(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "int":
            nkind, nvalue, npos = self.peek()
            if nkind == "op" and nvalue == "/":
                self.advance()
                dkind, dvalue, dpos = self.peek()
                if dkind != "int":
                    raise PolyParseError("expected integer denominator", dpos)
                self.advance()
                if dvalue == 0:
                    raise PolyParseError("zero denominator", dpos)
                return self.ring.constant(Fraction(value, dvalue))
            return self.ring.constant(value)
        if kind == "name":
            try:
                return self.ring.variable(value)
            except KeyError:
                raise PolyParseError("unknown variable name %r" % value, pos) from None
        if kind == "op" and value == "(":
            if self.depth == _MAX_NESTING:
                raise PolyParseError("expression nested too deeply", pos)
            self.depth += 1
            poly = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise PolyParseError("expected a number, variable, or parenthesis", pos)


def parse_poly(src: str, ring: RingContext) -> Poly:
    """Parse an expression over + - * ^, integer and a/b literals, and
    the ring's variables into a canonical Poly."""
    return _Parser(src, ring).parse()

