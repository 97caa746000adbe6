"""Walkthrough: the loop functional of a polynomial and its structure.

Substituting the universal Laurent series z(t) = sum_j z_j t^j into a
polynomial F and keeping the constant term in t yields a function on the
space of formal loops.  This script builds that functional on growing
windows of conformal degrees and verifies, symbolically and exactly, the
three structural facts the rest of the package leans on.
"""

from loopsing import (
    LoopPoly,
    Window,
    check_derivative_identity,
    check_support_bound,
    check_top_linearity,
    jet_coefficient,
    lambda_of,
)
from loopsing.cli import parse_function

banner = lambda title: print(f"\n== {title} " + "=" * max(0, 60 - len(title)))


banner("The quadric z^2")
quadric = parse_function("z^2")
for n in range(4):
    lam = lambda_of(quadric, Window(n, n))
    print(f"  window [-{n}, {n}]:  {lam.to_string(quadric.names)}")
print("""
Each pairing z_j z_{-j} has conformal weight j + (-j) = 0, so every term of
the functional is weight 0; the window only controls how many pairings fit.
""".rstrip())

banner("General t-coefficients")
cubic = parse_function("z^3")
for k in (-1, 0, 1):
    coeff = jet_coefficient(cubic, Window(1, 2), k)
    print(f"  t^{k:>2} coefficient of z(t)^3 on [-1, 2]:  {coeff.to_string(cubic.names)}")

banner("Support bound")
print("""
Bounding poles by b forces every variable in the functional to have
conformal degree at most b*(delta-1): one factor of very positive degree
cannot be balanced by the remaining delta-1 factors of degree >= -b.
""".rstrip())
for source, b in (("z^2", 1), ("z^3", 1), ("x^3 + y^3", 2)):
    report = check_support_bound(parse_function(source), b)
    print(
        f"  {source:<12} b={b}: max conformal degree present "
        f"{report.max_cdeg_present}, bound {report.bound}, ok={report.ok}"
    )

banner("Top-degree linearity")
report = check_top_linearity(cubic, 1)
assert report.ok and not report.offending_monomials
# No monomial has degree 2 or more in the top variables, so the linear part
# is the terms that hold one and the remainder the others.  A monomial's
# factors are sorted by conformal degree: its last is its highest.
N = report.top_cdeg
linear = LoopPoly((m, c) for m, c in report.functional.terms if m.factors[-1][0].cdeg == N)
remainder = LoopPoly((m, c) for m, c in report.functional.terms if m.factors[-1][0].cdeg < N)
print(f"  top degree N = {N}")
print(f"  linear part   {linear.to_string(cubic.names)}")
print(f"  remainder     {remainder.to_string(cubic.names)}")
print("""
No monomial can hold two factors of the top degree N (their weight alone
would exceed what the other factors can cancel), so the functional is
z_N times its z_N-derivative plus terms of lower conformal degree.
""".rstrip())

banner("The derivative identity, two ways")
fermat = parse_function("x^3 + y^3")
report = check_derivative_identity(fermat, 2)
for check in report.checks:
    name = fermat.names[check.coord - 1]
    print(
        f"  d/d{name}_{report.top_cdeg}: as t^-{report.top_cdeg} coefficient: "
        f"{check.via_t_coefficient}; as evaluation at {name}_-2: {check.via_bottom_evaluation}"
    )
print("""
The derivative of the functional with respect to a top variable z^j_N is the
t^-N coefficient of d_jF applied to the series, and chasing weights pins that
coefficient to d_jF evaluated at the most negative window index.  Both routes
are checked as exact polynomial identities.
""".rstrip())
