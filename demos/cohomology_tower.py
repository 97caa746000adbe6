"""Walkthrough: the Gysin tower and renormalized nearby cohomology.

Each truncation of the nearby fiber sits inside the next in codimension d,
with open complement carrying the cohomology of an odd sphere.  Solving the
resulting long exact sequences step by step shows every reduced class being
pushed up by 2d per step -- escaping to infinity -- while the degree-shifted
colimit stabilizes to mu classes in degree d-1.
"""

from loopsing import (
    GradedDims,
    LesSystem,
    gysin_tower,
    milnor_fiber_cohomology,
    milnor_number,
    solve_les_detailed,
    sphere_cohomology,
)
from loopsing.cli import parse_function
from loopsing.cohom import declared_support_floor, residue_onto_unit_fact

print("== One long exact sequence by hand: the quadric ==")
print("""
The base truncation of the nearby fiber of z^2 is the point pair {z^2 = 1},
with cohomology {0: 2}.  The next truncation B fits into
    ... -> A^{s-2} -> B^s -> C^s -> A^{s-1} -> ...
with C the circle.  Exactness alone leaves one free parameter; the declared
full rank of the residue map at the top sphere class pins it down.
""".rstrip())
a = GradedDims({0: 2})
system = LesSystem(
    codim=1,
    a=a,
    c_dims=sphere_cohomology(1),
    rank_facts=(residue_onto_unit_fact(1, a),),
)
print("solved middle column:", solve_les_detailed(system).b, " (the two-sphere)")

print("\n== Underdetermined without the axiom ==")
bare = LesSystem(codim=1, a=a, c_dims=sphere_cohomology(1))
print("no rank facts ->", solve_les_detailed(bare))

print("\n== The tower for x^3 + y^3 ==")
fermat = parse_function("x^3 + y^3")
mu = milnor_number(fermat)
print("mu =", mu, "; base =", milnor_fiber_cohomology(fermat.d, mu))
tower = gysin_tower(fermat.d, mu, n_max=4)
for n, truncation in enumerate(tower.truncations):
    print(f"  H*(truncation {n}) = {truncation}")

print("\n== Escape of the reduced class ==")
print(f"{'n':>3}{'degree':>9}{'declared floor':>17}")
for n, degree in enumerate(tower.degrees):
    print(f"{n:>3}{degree:>9}{declared_support_floor(fermat.d, n):>17}")
print("""
The reduced class climbs by 2d per step, so nothing survives the naive
colimit.  The declared floor column records the coarser bound 2(n+1)d-1
quoted for the vanishing statement; the computed concentration degree sits
exactly d below it, and only the unbounded growth matters downstream.
""".rstrip())

print("== Renormalized colimit ==")
report = tower.renormalized()
print("stable outcome:", report.stable, " (mu in degree d-1)")
interesting = {s: n for s, n in sorted(report.stabilization_step.items()) if -5 <= s <= 2}
print("stabilization steps near 0:", interesting)
print("declared inputs used:")
for axiom in report.axioms:
    print("  -", axiom)

print("\n== Changing the dimension theory only shifts degrees ==")
# delta(n) = k + n*d moves renormalized degree s to s - 2k.
for k in (0, 1, 2):
    print(f"  normalization {k}: stable = {report.stable.shifted(-2 * k)}")
