"""Exact polynomials and the local monomial order.

The ring holds named variables over exact rational coefficients.  The
single term order is anti-graded reverse lexicographic: the constant 1
is the greatest monomial, so a polynomial's leading term is its lowest
degree part.  That convention is what makes leading terms those of the
local ring at the origin.
"""

from detindex import RingContext, parse_poly, sort_key

ring = RingContext(("x", "y", "z", "u"))

f = parse_poly("(x+y)^2 - x^2 - 2*x*y", ring)
print("(x+y)^2 - x^2 - 2*x*y  simplifies to:", f.render())

g = parse_poly("1/2*x*y - 3*z^4 + 7", ring)
print("rational coefficients survive round trips:", g.render())
assert parse_poly(g.render(), ring) == g

# 1 beats x, and x beats x^2: lower degree is greater.  A smaller sort
# key means a greater monomial.
print("1 > x:", sort_key((0, 0, 0, 0)) < sort_key((1, 0, 0, 0)))
print("x > x^2:", sort_key((1, 0, 0, 0)) < sort_key((2, 0, 0, 0)))

h = parse_poly("x + x^2 + y^3", ring)
print("leading monomial of x + x^2 + y^3 is x:", h.leading_monomial() == (1, 0, 0, 0))

# derivatives are formal and exact
p = parse_poly("z*x - u*(y+u)", ring)
print("d/du of z*x - u*(y+u):", p.partial_derivative(3).render())
