"""The brute-force oracle: trust, but verify.

Every colength the division engine produces can be re-derived by exact
linear algebra on truncations: dim O/(I + m^D) for growing caps D.  Two
equal consecutive values certify the exact answer (the associated graded
module is generated in degree zero, so a flat step can never resume
growing).  The oracle shares no code with the standard-basis engine.
"""

from detindex import (
    DetSingularity,
    Ideal,
    OneForm,
    RingContext,
    algebra_ideal,
    colength,
    omega_quotient_generators,
    module_colength,
    parse_poly,
    stabilized_colength,
    stabilized_module_colength,
)

ring = RingContext(("x", "y", "z", "u"))
P = lambda s: parse_poly(s, ring)

surface = DetSingularity.create(
    ring,
    [[P("z"), P("y+u"), P("x")],
     [P("u"), P("x"), P("y")]],
    2,
)
du = OneForm.coordinate(ring, "u")

ideal = algebra_ideal(surface, du)
report = stabilized_colength(ideal)
print("minors-algebra ideal, truncation dims:", report.per_degree)
print("stabilized:", report.stabilized, "| value:", report.value,
      "| engine:", colength(ideal))

rank, gens = omega_quotient_generators(surface, du)
mreport = stabilized_module_colength(rank, gens)
print("top-form module, truncation dims:", mreport.per_degree)
print("stabilized:", mreport.stabilized, "| value:", mreport.value,
      "| engine:", module_colength(rank, gens))

# a non-stabilizing run is an honest signal of an infinite quotient
r2 = RingContext(("x", "y"))
curve = Ideal([parse_poly("x*y", r2)])
honest = stabilized_colength(curve, ceiling=8)
print("plane curve (x*y), dims keep growing:", [d for _, d in honest.per_degree],
      "| stabilized:", honest.stabilized)
