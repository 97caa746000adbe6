"""loopsing: exact computations around loop-space functionals.

Computes the constant-term functional of a homogeneous polynomial applied to
truncated Laurent series, verifies its structural identities symbolically,
counts the Milnor number of the singularity two independent ways, and solves
the Gysin long exact sequences of the truncation tower to reproduce the
renormalized nearby cohomology: mu classes in degree d-1, everything else
escaping to infinity.

The records they return subclass `collections.namedtuple`; the six that
check their fields do so in `__new__`, which `_make` and `_replace` call too.
"""

from .cohom import (
    GradedDims,
    Inconsistent,
    LesSystem,
    NotStabilized,
    RankFact,
    Underdetermined,
    escape_table,
    gysin_step,
    gysin_tower,
    milnor_fiber_cohomology,
    renormalized_nearby_cohomology,
    solve_les_detailed,
    sphere_cohomology,
    truncation_cohomology,
)
from .exactalg import LoopPoly, LoopVar, Monomial
from .grobner import (
    GroebnerBasis,
    Ideal,
    NotIsolated,
    buchberger,
    jacobian_ideal,
    milnor_number,
    milnor_number_oracle,
    standard_monomials,
)
from .loopfun import (
    DegreeTooLow,
    FunctionalTooLarge,
    InputFunction,
    NotHomogeneous,
    Window,
    check_derivative_identity,
    check_support_bound,
    check_top_linearity,
    jet_coefficient,
    lambda_of,
    minimal_window,
    support_window,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeTooLow",
    "FunctionalTooLarge",
    "GradedDims",
    "GroebnerBasis",
    "Ideal",
    "Inconsistent",
    "InputFunction",
    "LesSystem",
    "LoopPoly",
    "LoopVar",
    "Monomial",
    "NotHomogeneous",
    "NotIsolated",
    "NotStabilized",
    "RankFact",
    "Underdetermined",
    "Window",
    "buchberger",
    "check_derivative_identity",
    "check_support_bound",
    "check_top_linearity",
    "escape_table",
    "gysin_step",
    "gysin_tower",
    "jacobian_ideal",
    "jet_coefficient",
    "lambda_of",
    "milnor_fiber_cohomology",
    "milnor_number",
    "milnor_number_oracle",
    "minimal_window",
    "renormalized_nearby_cohomology",
    "solve_les_detailed",
    "sphere_cohomology",
    "standard_monomials",
    "support_window",
    "truncation_cohomology",
    "__version__",
]
