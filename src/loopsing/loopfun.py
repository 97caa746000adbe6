"""Truncated Laurent jets of polynomial functions on affine space.

Substituting the universal Laurent series z^i(t) = sum_j z^i_j t^j into a
homogeneous polynomial F and extracting t-coefficients produces functions on
the loop space of A^d; the constant term is the loop functional of F.  This
module computes those coefficients on finite windows of conformal degrees and
machine-checks the structural identities that they satisfy: the support bound
on conformal degrees, linearity in the top-degree variables, and the two forms
of the top-variable derivative identity.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import LoopPoly, LoopVar, Monomial

__all__ = [
    "Window",
    "InputFunction",
    "NotHomogeneous",
    "DegreeTooLow",
    "FunctionalTooLarge",
    "jet_coefficient",
    "jet_coefficient_by_enumeration",
    "lambda_of",
    "minimal_window",
    "support_window",
    "check_support_bound",
    "check_top_linearity",
    "check_derivative_identity",
    "constant_loop_restriction",
    "SupportBoundReport",
    "TopLinearityReport",
    "DerivativeIdentityReport",
]


class NotHomogeneous(ValueError):
    """The input polynomial mixes two different total degrees."""

    def __init__(self, degree_a: int, degree_b: int):
        self.degrees = (degree_a, degree_b)
        super().__init__(
            f"not homogeneous: monomials of degrees {degree_a} and {degree_b}"
        )


class DegreeTooLow(ValueError):
    """The input polynomial has degree < 2 (no genuine singularity)."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"homogeneity degree must be >= 2, got {degree}")


# Bound on the terms one jet expansion builds: every term of a power expansion
# and every partial product of the convolution, the finished terms among them.
# The loop functional grows combinatorially with the window: for x^10 + y^10
# the expansion builds 67,712 terms at window 4 and 250,960 at window 5, while
# no test or benchmark input builds more than about 2,000.
MAX_JET_TERMS = 100_000


class FunctionalTooLarge(ValueError):
    """A jet expansion would build more than MAX_JET_TERMS terms."""

    def __init__(self, window: "Window"):
        self.window = window
        super().__init__(
            f"the loop functional on window {window} needs more than "
            f"{MAX_JET_TERMS} terms"
        )


@dataclass(frozen=True)
class Window:
    """The closed interval [-bottom, top] of allowed conformal degrees.

    `bottom` bounds the pole order (cdeg >= -bottom), `top` the positive tail.
    """

    bottom: int
    top: int

    def __post_init__(self) -> None:
        if self.bottom < 0:
            raise ValueError(f"window bottom must be nonnegative, got {self.bottom}")
        if self.top < -self.bottom:
            raise ValueError(
                f"window top {self.top} lies below -bottom = {-self.bottom}"
            )

    @property
    def lo(self) -> int:
        return -self.bottom

    @property
    def hi(self) -> int:
        return self.top

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains(self, cdeg: int) -> bool:
        return self.lo <= cdeg <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class InputFunction:
    """A nonzero homogeneous polynomial of degree >= 2 in d ambient coordinates.

    The ambient coordinates are represented by the conformal-degree-0 variables
    z^1_0, ..., z^d_0.  Optional display names (one per coordinate) are carried
    along for parsing and report rendering.
    """

    def __init__(self, poly: LoopPoly, names: Sequence[str] | None = None):
        if poly.is_zero:
            raise DegreeTooLow(0)
        variables = poly.variables()
        if any(v.cdeg != 0 for v in variables):
            raise ValueError("ambient polynomial must use conformal degree 0 only")
        coords = sorted({v.coord for v in variables})
        if coords != list(range(1, len(coords) + 1)):
            raise ValueError(f"coordinates must be contiguous from 1, got {coords}")
        degrees = sorted(poly.weight_set(lambda v: 1))
        if len(degrees) > 1:
            raise NotHomogeneous(degrees[0], degrees[-1])
        if degrees[0] < 2:
            raise DegreeTooLow(degrees[0])

        self.d = len(coords)
        self.delta = degrees[0]
        self.poly = poly
        if names is None:
            names = ("z",) if self.d == 1 else tuple(f"z{i}" for i in coords)
        names = tuple(names)
        if len(names) != self.d or len(set(names)) != self.d:
            raise ValueError(f"need {self.d} distinct coordinate names, got {names}")
        self.names = names
        # The d partial derivatives, in coordinate order.
        self.partials = tuple(poly.partial(LoopVar(i, 0)) for i in range(1, self.d + 1))

    def _named_terms(self) -> frozenset:
        return frozenset(
            (
                tuple(sorted((self.names[v.coord - 1], e) for v, e in mono.factors)),
                coeff,
            )
            for mono, coeff in self.poly.terms
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InputFunction):
            return NotImplemented
        return (
            self.d == other.d
            and self.delta == other.delta
            and self._named_terms() == other._named_terms()
        )

    def __repr__(self) -> str:
        return (
            f"InputFunction(d={self.d}, delta={self.delta}, "
            f"poly={self.poly.to_string(self.names)})"
        )


def minimal_window(func: InputFunction, bottom: int) -> Window:
    """Smallest window that already determines the loop functional.

    With poles bounded by `bottom`, no variable of conformal degree above
    bottom*(delta-1) can occur, so the window [-bottom, bottom*(delta-1)] is
    stable: enlarging the top changes nothing.
    """
    return Window(bottom, bottom * (func.delta - 1))


def support_window(func: InputFunction, bottom: int) -> Window:
    """The window of the support check: delta conformal degrees past the bound.

    It contains the minimal window, whose functional is the one on this
    window with every variable above bottom*(delta-1) set to zero.
    """
    return Window(bottom, bottom * (func.delta - 1) + func.delta)


def _power_expansion(
    coord: int, exp: int, window: Window, sum_lo: int, sum_hi: int, budget: int
) -> dict[int, list[tuple[tuple[tuple[LoopVar, int], ...], int]]]:
    """Terms of (sum_{j in window} z^coord_j t^j)^exp with t-degree in [sum_lo, sum_hi].

    Each term is a multiset of exp window indices, given as the factor items
    ((z^coord_j, count), ...) in increasing j, with its multinomial
    coefficient exp!/prod(count!); the terms are grouped by t-degree.  Raises
    FunctionalTooLarge once more than `budget` terms are found.
    """
    lo, hi = window.lo, window.hi
    variables: dict[int, LoopVar] = {}
    found: dict[int, list[tuple[tuple[tuple[LoopVar, int], ...], int]]] = {}
    made = 0

    def extend(start: int, left: int, total: int, chosen: tuple, weight: int) -> None:
        # The `left` indices still to choose lie in [start, hi].
        # An index below the first cannot reach sum_lo even with the rest at hi.
        nonlocal made
        for j in range(max(start, sum_lo - total - (left - 1) * hi), hi + 1):
            if total + left * j > sum_hi:
                return
            var = variables.get(j)
            if var is None:
                var = variables[j] = LoopVar(coord, j)
            for count in range(left, 0, -1):
                reached = total + count * j
                rest = left - count
                items = chosen + ((var, count),)
                if not rest:
                    if reached >= sum_lo:
                        made += 1
                        if made > budget:
                            raise FunctionalTooLarge(window)
                        found.setdefault(reached, []).append((items, weight))
                elif j < hi and reached + rest * (j + 1) <= sum_hi:
                    extend(j + 1, rest, reached, items, weight * math.comb(left, count))

    extend(lo, exp, 0, (), 1)
    return found


def _jet_of_poly(poly: LoopPoly, window: Window, k: int) -> LoopPoly:
    """Coefficient of t^k after substituting windowed Laurent series.

    Each factor z_i^e of a monomial expands over multisets of e window
    indices, weighted by their multinomial coefficients; the factors are then
    convolved over the t-degree, pruning t-degrees that can no longer reach k
    given the remaining factors.  Distinct ambient monomials give distinct
    loop monomials (the exponents per coordinate differ), and so do distinct
    choices of multisets, so every surviving term is built exactly once.

    Every expansion term and partial product counts against MAX_JET_TERMS,
    before it is built; past the bound FunctionalTooLarge is raised.
    """
    lo, hi = window.lo, window.hi
    built = 0
    terms: list[tuple[Monomial, Fraction]] = []
    for mono, coeff in poly.terms:
        remaining = mono.degree
        # t-degree -> partial products (factor items, integer weight)
        state: dict[int, list[tuple[tuple, int]]] = {0: [((), 1)]}
        for var, exp in mono.factors:
            remaining -= exp
            # The t-degree after this factor must still reach k.
            after_lo, after_hi = k - remaining * hi, k - remaining * lo
            expansion = _power_expansion(
                var.coord,
                exp,
                window,
                max(exp * lo, after_lo - max(state)),
                min(exp * hi, after_hi - min(state)),
                MAX_JET_TERMS - built,
            )
            built += sum(map(len, expansion.values()))
            grown: dict[int, list[tuple[tuple, int]]] = {}
            for t_deg, partials in state.items():
                for factor_deg, group in expansion.items():
                    total = t_deg + factor_deg
                    if not after_lo <= total <= after_hi:
                        continue
                    built += len(partials) * len(group)
                    if built > MAX_JET_TERMS:
                        raise FunctionalTooLarge(window)
                    target = grown.setdefault(total, [])
                    for items, weight in partials:
                        for extra, factor_weight in group:
                            target.append((items + extra, weight * factor_weight))
            state = grown
            if not state:
                break
        # Few distinct weights occur, so each coefficient product is made once.
        products: dict[int, Fraction] = {}
        for items, weight in state.get(k, ()):
            product = products.get(weight)
            if product is None:
                product = products[weight] = coeff * weight
            terms.append((Monomial(items), product))
    return LoopPoly(terms)


def jet_coefficient(func: InputFunction, window: Window, k: int) -> LoopPoly:
    """The t^k coefficient of F(z^1(t), ..., z^d(t)) on the given window.

    Every monomial of the result has conformal degrees summing to k.  Raises
    FunctionalTooLarge when the expansion would build more than
    MAX_JET_TERMS terms.
    """
    return _jet_of_poly(func.poly, window, k)


def jet_coefficient_by_enumeration(
    func: InputFunction, window: Window, k: int
) -> LoopPoly:
    """Brute-force oracle for jet_coefficient.

    Enumerates every assignment of window indices to the factor slots of every
    monomial, with no pruning and no shared code with the convolution route.
    Feasible only for small degree/window combinations.
    """
    indices = list(window.indices())
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in func.poly.terms:
        slots = [v.coord for v, e in mono.factors for _ in range(e)]
        for assignment in itertools.product(indices, repeat=len(slots)):
            if sum(assignment) != k:
                continue
            m = Monomial(tuple((LoopVar(c, j), 1) for c, j in zip(slots, assignment)))
            acc[m] = acc.get(m, Fraction(0)) + coeff
    return LoopPoly(acc)


def lambda_of(func: InputFunction, window: Window) -> LoopPoly:
    """The loop functional of F on a window: the constant-in-t coefficient.

    Checks on the way out that the result is of pure conformal weight 0 and of
    pure scaling weight delta; a violation would be an arithmetic bug.  Raises
    FunctionalTooLarge when the expansion would build more than
    MAX_JET_TERMS terms.
    """
    result = _jet_of_poly(func.poly, window, 0)
    cdeg_weights = result.weight_set(operator.attrgetter("cdeg"))
    if cdeg_weights not in (frozenset(), frozenset({0})):
        raise RuntimeError(f"loop functional has conformal weights {set(cdeg_weights)}")
    scale_weights = frozenset(mono.degree for mono, _ in result.terms)
    if scale_weights not in (frozenset(), frozenset({func.delta})):
        raise RuntimeError(f"loop functional has scaling weights {set(scale_weights)}")
    return result


@dataclass(frozen=True)
class SupportBoundReport:
    bound: int
    max_cdeg_present: int
    ok: bool
    window: Window


def check_support_bound(
    func: InputFunction, bottom: int, functional: LoopPoly | None = None
) -> SupportBoundReport:
    """Verify that no variable of conformal degree > bottom*(delta-1) occurs.

    The functional is computed on a window reaching strictly beyond the bound
    (`support_window`), so the check is not vacuous.  A caller that already
    holds the functional on that window may pass it as `functional`.
    """
    if bottom < 0:
        raise ValueError("bottom must be nonnegative")
    bound = bottom * (func.delta - 1)
    window = support_window(func, bottom)
    lam = lambda_of(func, window) if functional is None else functional
    max_present = max(v.cdeg for v in lam.variables())
    return SupportBoundReport(
        bound=bound,
        max_cdeg_present=max_present,
        ok=max_present <= bound,
        window=window,
    )


def _top_exponent(mono: Monomial, top: int) -> int:
    """The total exponent of mono in the variables of conformal degree `top`."""
    return sum(e for v, e in mono.factors if v.cdeg == top)


@dataclass(frozen=True)
class TopLinearityReport:
    ok: bool
    top_cdeg: int
    offending_monomials: tuple[Monomial, ...]
    functional: LoopPoly
    window: Window

    @property
    def linear_part(self) -> LoopPoly:
        """sum_j z^j_N * d(functional)/d(z^j_N), N being top_cdeg."""
        return LoopPoly(
            {m: _top_exponent(m, self.top_cdeg) * c for m, c in self.functional.terms}
        )

    @property
    def remainder(self) -> LoopPoly:
        """The functional minus its linear part."""
        return LoopPoly(
            {m: (1 - _top_exponent(m, self.top_cdeg)) * c for m, c in self.functional.terms}
        )


def check_top_linearity(
    func: InputFunction, bottom: int, functional: LoopPoly | None = None
) -> TopLinearityReport:
    """Verify that each monomial of the functional is linear in top variables.

    With N = bottom*(delta-1), monomials of the functional can carry at most
    one factor of conformal degree N, so the functional decomposes as

        sum_j z^j_N * d(functional)/d(z^j_N)  +  remainder

    with the remainder free of conformal-degree-N variables.  By Euler's
    identity the first sum is k*c*m over the terms c*m of the functional, k
    being m's total exponent in the degree-N variables, so the remainder is
    (1-k)*c*m.  The report holds the functional and gives the decomposition
    as its properties linear_part and remainder.  A caller that already holds
    the functional on the window [-bottom, N] may pass it as `functional`.
    """
    if bottom < 1:
        raise ValueError("bottom must be >= 1")
    top = bottom * (func.delta - 1)
    window = Window(bottom, top)
    lam = lambda_of(func, window) if functional is None else functional

    offending = tuple(mono for mono, _ in lam.terms if _top_exponent(mono, top) > 1)
    return TopLinearityReport(
        ok=not offending,
        top_cdeg=top,
        offending_monomials=offending,
        functional=lam,
        window=window,
    )


@dataclass(frozen=True)
class CoordinateDerivativeCheck:
    coord: int
    via_t_coefficient: bool
    via_bottom_evaluation: bool

    @property
    def ok(self) -> bool:
        return self.via_t_coefficient and self.via_bottom_evaluation


@dataclass(frozen=True)
class DerivativeIdentityReport:
    checks: tuple[CoordinateDerivativeCheck, ...]
    top_cdeg: int
    window: Window

    @property
    def ok_per_coord(self) -> tuple[bool, ...]:
        return tuple(chk.ok for chk in self.checks)

    @property
    def ok(self) -> bool:
        return all(self.ok_per_coord)


def check_derivative_identity(
    func: InputFunction, bottom: int, functional: LoopPoly | None = None
) -> DerivativeIdentityReport:
    """Verify both forms of the top-variable derivative identity.

    With N = bottom*(delta-1), for each coordinate j the derivative of the
    loop functional with respect to z^j_N equals

      (i)  the t^(-N) coefficient of (d_j F)(z^1(t), ..., z^d(t)), and
      (ii) d_j F evaluated at z^i -> z^i_{-bottom} for all i.

    Form (ii) evaluates at the most negative window index: the derivative of
    the functional has conformal weight -N and d_j F is homogeneous of degree
    delta-1, which forces every factor down to degree -bottom.  A caller that
    already holds the functional on the window [-bottom, N] may pass it as
    `functional`.
    """
    if bottom < 1:
        raise ValueError("bottom must be >= 1")
    top = bottom * (func.delta - 1)
    window = Window(bottom, top)
    lam = lambda_of(func, window) if functional is None else functional

    checks = []
    for j in range(1, func.d + 1):
        lhs = lam.partial(LoopVar(j, top))
        d_j = func.partials[j - 1]
        via_coeff = _jet_of_poly(d_j, window, -top)
        via_eval = d_j.map_variables(lambda v: LoopVar(v.coord, -bottom))
        checks.append(
            CoordinateDerivativeCheck(
                coord=j,
                via_t_coefficient=lhs == via_coeff,
                via_bottom_evaluation=lhs == via_eval,
            )
        )
    return DerivativeIdentityReport(checks=tuple(checks), top_cdeg=top, window=window)


def constant_loop_restriction(func: InputFunction, window: Window) -> LoopPoly:
    """Restrict the loop functional to constant loops.

    Setting every variable of nonzero conformal degree to zero must recover F
    itself in the degree-0 variables.
    """
    if not window.contains(0):
        raise ValueError(f"window {window} does not contain 0")
    restricted = lambda_of(func, window).zero_out(lambda v: v.cdeg != 0)
    if restricted != func.poly:
        raise RuntimeError("constant-loop restriction does not recover the input")
    return restricted
