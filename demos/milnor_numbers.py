"""Walkthrough: Milnor numbers from the Jacobian ideal, two independent ways.

The dimension of the quotient by the partial derivatives counts the vanishing
cycles of an isolated singularity.  The package computes it by Groebner basis
plus standard-monomial enumeration, and cross-checks by the rank of one
Macaulay matrix: the products of each partial with the monomials of one
degree span that degree exactly when the singularity is isolated, and then
the partials form a regular sequence.  For a homogeneous singularity in d
variables of degree delta both must give (delta-1)^d.
"""

from loopsing import (
    NotIsolated,
    buchberger,
    jacobian_ideal,
    milnor_number,
    milnor_number_oracle,
    standard_monomials,
)
from loopsing.cli import parse_function, poly_to_source


def exponents(monomial, d):
    """A monomial's exponent vector, entry i that of coordinate i+1."""
    powers = {var.coord: e for var, e in monomial.factors}
    return tuple(powers.get(coord, 0) for coord in range(1, d + 1))


print("== A worked example: x^3 + y^3 ==")
fermat = parse_function("x^3 + y^3")
partials = [sorted(partial.items()) for partial in fermat.partials]
print("Jacobian generators:", ", ".join(poly_to_source(g, fermat.names) for g in partials))
# The basis comes as primitive integer terms; for a Fermat form they are monic.
basis = buchberger(jacobian_ideal(fermat))
print("reduced Groebner basis:", ", ".join(poly_to_source(g, fermat.names) for g in basis.terms))
monomials = standard_monomials(basis)
print(
    "standard monomials:",
    ", ".join(poly_to_source([(exponents(m, fermat.d), 1)], fermat.names) for m in monomials),
)
print("mu =", len(monomials), "= (3-1)^2")

print("\n== The corpus, three ways ==")
corpus = [
    "z^2", "z^3", "z^5",
    "x^2 + y^2", "x^3 + y^3", "x^4 + y^4",
    "x^2 + y^2 + w^2", "x^3 + y^3 + w^3",
]
print(f"{'function':<18}{'d':>3}{'delta':>7}{'basis':>7}{'matrix':>8}{'(delta-1)^d':>13}")
for source in corpus:
    func = parse_function(source)
    mu = milnor_number(func)
    oracle = milnor_number_oracle(func)
    closed_form = (func.delta - 1) ** func.d
    assert mu == oracle == closed_form
    print(f"{source:<18}{func.d:>3}{func.delta:>7}{mu:>7}{oracle:>8}{closed_form:>13}")

print("\n== Non-isolated singularities are refused ==")
for source in ("x^2*y", "x^3*y + x^2*y^2"):
    func = parse_function(source)
    try:
        milnor_number(func)
    except NotIsolated as exc:
        print(f"  {source}: NotIsolated ({exc})")
print("""
For x^2*y the partials 2xy and x^2 vanish along the whole y-axis, so the
quotient is infinite dimensional: no power of y ever becomes a leading
monomial, and the finiteness criterion fails.
""".rstrip())
