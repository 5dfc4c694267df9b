"""Standard bases and colengths in the local ring.

A standard basis plays the role of a Groebner basis for the ring of
germs at the origin; the count of monomials under its leading-term
staircase is the vector-space dimension of the quotient.  Units of the
local ring are invisible: x - x^2 = (1 - x) x generates the same ideal
as x alone.
"""

from detindex import (
    INFINITE,
    Ideal,
    RingContext,
    colength,
    parse_poly,
    standard_basis,
)

ring = RingContext(("x", "y"))
P = lambda s: parse_poly(s, ring)

sb = standard_basis(Ideal([P("x - x^2")]))
print("standard basis of (x - x^2):", [e.render() for e in sb.elements])

x_ideal = standard_basis(Ideal([P("x")]))
print("is x^2 in (x)?", x_ideal.contains(P("x^2")))
print("is y   in (x)?", x_ideal.contains(P("y")))

print("colength of (x^2, y^3):", colength(Ideal([P("x^2"), P("y^3")])), "(the 2x3 staircase box)")
print("colength of the unit ideal (1 + x):", colength(Ideal([P("1 + x")])))
print("colength of (x*y):", colength(Ideal([P("x*y")])), "(a curve: infinite)")

# membership in the local ideal: f lies in I exactly when I + (f) has the
# staircase of I
I = Ideal([P("x^3 + y^2"), P("y^3")])
basis = standard_basis(I)
print("staircase of (x^3 + y^2, y^3):", basis.staircase)
print("is x^5 in the ideal?", basis.contains(P("x^5")))
print("colength:", basis.colength())

ring4 = RingContext(("x", "y", "z", "u"))
Q = lambda s: parse_poly(s, ring4)
surface = Ideal([Q("z*x - u*(y+u)"), Q("z*y - u*x"), Q("(y+u)*y - x^2")])
assert colength(surface) == INFINITE
print("the three 2x2 minors of a 2x3 matrix in C^4 cut a surface: colength INFINITE")
