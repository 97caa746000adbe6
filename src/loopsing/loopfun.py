"""Truncated Laurent jets of polynomial functions on affine space.

Substituting the universal Laurent series z^i(t) = sum_j z^i_j t^j into a
homogeneous polynomial F and extracting t-coefficients produces functions on
the loop space of A^d; the constant term is the loop functional of F.  This
module computes those coefficients on finite windows of conformal degrees and
machine-checks the structural identities that they satisfy: the support bound
on conformal degrees, linearity in the top-degree variables, and the two forms
of the top-variable derivative identity.

The jet kernel computes a coefficient as sorted rows of small int codes (a
`_Jet`), and the weight audits, the truncation, the checks and the printer
all read those codes; no polynomial object is built.  Each public check
computes the functional and reads it with its private reading
(`_support_report`, `_linearity_report`, `_derivative_report`), and
`_functional_checks`, which the command line runs, reads one jet with the
same readings and audits the constant loops beside them.

Coefficients are exact and canonical: an int when integral, else a Fraction
whose denominator is above 1 (`_exact`).  So on an integral F, the usual
input, the kernel, the checks and the printer do int arithmetic only.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .exactalg import _default_names, format_terms, poly_to_source

__all__ = [
    "Window",
    "InputFunction",
    "NotHomogeneous",
    "DegreeTooLow",
    "FunctionalTooLarge",
    "minimal_window",
    "support_window",
    "check_support_bound",
    "check_top_linearity",
    "check_derivative_identity",
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
    """Degree below 2, or the zero polynomial (degree None): no genuine singularity."""

    def __init__(self, degree: int | None):
        self.degree = degree
        got = "the zero polynomial" if degree is None else degree
        super().__init__(f"homogeneity degree must be >= 2, got {got}")


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


class Window(namedtuple("Window", "bottom top")):
    """The closed interval [-bottom, top] of allowed conformal degrees.

    `bottom` bounds the pole order (cdeg >= -bottom), `top` the positive tail.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, bottom: int, top: int) -> Window:
        if bottom < 0:
            raise ValueError(f"window bottom must be nonnegative, got {bottom}")
        if top < -bottom:
            raise ValueError(f"window top {top} lies below -bottom = {-bottom}")
        return super().__new__(cls, bottom, top)

    def __str__(self) -> str:
        return f"[{-self.bottom}, {self.top}]"


class InputFunction:
    """A nonzero homogeneous polynomial F of degree >= 2 in d ambient coordinates.

    F is `terms`, {exponent vector: coefficient}, entry i of a vector being
    the exponent of coordinate i+1 and each coefficient nonzero and in the
    canonical form of `_exact` (an int when integral); its d exact
    `partials` take the same form, the one the jets, the checks and the
    printer read.  Both Milnor routes read `integer_partials`, built once
    from them when first read.  Optional display names (one per coordinate)
    are carried along for parsing and report rendering.

    An InputFunction is immutable: `terms` and each of `partials` are
    read-only mappings, and no attribute can be assigned or deleted.  Equal
    functions hash alike, and a copy or a pickle is rebuilt from terms and names.
    """

    def __init__(
        self, terms: Mapping[tuple[int, ...], Fraction | int], names: Sequence[str] | None = None
    ):
        own = {e: q for e, c in terms.items() if (q := _exact(c))}
        if not own:
            raise DegreeTooLow(None)
        if not all(map(any, zip(*own))):
            raise ValueError("every coordinate must occur in some term")
        degrees = {sum(e) for e in own}
        if len(degrees) > 1:
            raise NotHomogeneous(min(degrees), max(degrees))
        (delta,) = degrees
        if delta < 2:
            raise DegreeTooLow(delta)
        d = len(next(iter(own)))
        names = _default_names(d) if names is None else tuple(names)
        if len(names) != d or len(set(names)) != d:
            raise ValueError(f"need {d} distinct coordinate names, got {names}")
        # Distinct terms have distinct derivatives, so none merge.
        partials = tuple(
            MappingProxyType(
                {e[:i] + (e[i] - 1,) + e[i + 1 :]: _exact(c * e[i]) for e, c in own.items() if e[i]}
            )
            for i in range(d)
        )
        # Assignment is refused, so the attributes go straight into __dict__,
        # where `integer_partials` is cached as well.
        vars(self).update(
            terms=MappingProxyType(own), delta=delta, d=d, names=names, partials=partials
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"InputFunction is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"InputFunction is immutable: cannot delete {name!r}")

    @functools.cached_property
    def integer_partials(self) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
        """Each partial's primitive integer multiple: the Jacobian ideal both Milnor routes read."""
        return tuple(map(_integer_terms, self.partials))

    def _named_terms(self) -> frozenset:
        return frozenset(
            (tuple(sorted((self.names[i], x) for i, x in enumerate(e) if x)), c)
            for e, c in self.terms.items()
        )

    def __eq__(self, other: object) -> bool:
        # Equal named terms have the same coordinates and degree.
        if not isinstance(other, InputFunction):
            return NotImplemented
        return self._named_terms() == other._named_terms()

    def __hash__(self) -> int:
        return hash(self._named_terms())

    def __reduce__(self) -> tuple:
        return (InputFunction, (dict(self.terms), self.names))

    def __repr__(self) -> str:
        # F in decreasing grevlex order, which at its one degree is increasing
        # tuple order, each coordinate written as its variable of conformal degree 0.
        poly = poly_to_source(sorted(self.terms.items()), [f"{name}_0" for name in self.names])
        return f"InputFunction(d={self.d}, delta={self.delta}, poly={poly})"


def _exact(c: Fraction | int) -> Fraction | int:
    """c in canonical exact form: an int when integral, else a Fraction whose
    denominator is above 1.  An int is returned as it is, with no Fraction
    built.  Ints and Fractions mix exactly, and equal values compare and
    hash alike, so every reader takes either."""
    if type(c) is int:
        return c
    q = c if type(c) is Fraction else Fraction(c)
    return q.numerator if q.denominator == 1 else q


def _integer_terms(
    terms: Mapping[tuple[int, ...], Fraction | int],
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The primitive integer multiple of exact-rational terms {exponent vector:
    coefficient}: (vector, int) terms in decreasing grevlex order, with
    content 1 and a positive lead, zeros dropped; () when none is left."""
    # Decreasing grevlex order is decreasing degree, then increasing tuple
    # order, which a stable sort by degree keeps, reversed or not.
    vectors = sorted(terms)
    vectors.sort(key=sum, reverse=True)
    scale = math.lcm(*[c.denominator for c in terms.values()])
    ints = [(e, c.numerator * (scale // c.denominator)) for e in vectors if (c := terms[e])]
    return tuple(_primitive(ints)) if ints else ()


def _primitive(terms: list) -> list:
    """The nonempty terms divided by their content, signed so the lead is positive."""
    content = math.gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        content = -content
    if content == 1:
        return terms
    return [(e, c // content) for e, c in terms]


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
    window with every variable above the minimal window's top set to zero.
    """
    return Window(bottom, minimal_window(func, bottom).top + func.delta)


class _Jet:
    """A jet coefficient in the kernel's codes, the form the functional checks read.

    `rows` are its terms (degree, codes, coefficient) in decreasing
    (degree, codes) order, which is decreasing grevlex order of their
    monomials; each coefficient is nonzero and canonical (see `_exact`), so
    an integral F's jet holds ints alone, and each term's codes are sorted,
    which is factor order.  Code slot*m + (m - n) stands for the factor
    (z^c_j)^n, with slot (j + bottom)*d + (c - 1) (see
    `_jet_of_poly`), so the codes of the variables of conformal degree j are
    [start(j), start(j + 1)).  Floor division decodes a slot below 0 too,
    which a functional forged beneath the window holds.
    """

    __slots__ = ("rows", "m", "d", "bottom")

    def __init__(self, rows: list[tuple[int, tuple[int, ...], Fraction | int]], m: int, d: int,
                 bottom: int) -> None:
        self.rows, self.m, self.d, self.bottom = rows, m, d, bottom

    def __len__(self) -> int:
        return len(self.rows)

    def start(self, cdeg: int) -> int:
        """The least code of a variable of conformal degree cdeg."""
        return (cdeg + self.bottom) * self.d * self.m

    def cdeg(self, code: int) -> int:
        """The conformal degree of a code's variable."""
        return code // self.m // self.d - self.bottom

    def coefficients(self) -> dict[tuple[int, ...], Fraction | int]:
        """The terms as {codes: coefficient}."""
        return {codes: c for _, codes, c in self.rows}

    def coded(
        self, terms: Mapping[tuple[int, ...], Fraction | int], cdeg: int
    ) -> dict[tuple[int, ...], Fraction | int]:
        """Exponent-vector terms in these codes, coordinate i+1 read as z^(i+1)_cdeg."""
        m, base = self.m, (cdeg + self.bottom) * self.d
        return {
            tuple([(base + i) * m + m - x for i, x in enumerate(e) if x]): c
            for e, c in terms.items()
        }

    # -- the printer -----------------------------------------------------

    def text(self, names: Sequence[str]) -> Callable[[int], str]:
        """The text function of codes: (z^c_j)^n is written `names[c-1]_j^n`."""
        m, d, bottom = self.m, self.d, self.bottom

        def text(code: int) -> str:
            slot, rest = divmod(code, m)
            name = f"{names[slot % d]}_{slot // d - bottom}"
            return name if rest == m - 1 else f"{name}^{m - rest}"

        return text

    def to_string(self, names: Sequence[str]) -> str:
        """The jet's text, terms in decreasing grevlex order, each variable as `name_cdeg`."""
        return format_terms(((codes, c) for _, codes, c in self.rows), self.text(names))

    def monomial_text(self, codes: tuple[int, ...]) -> str:
        """The text of the monomial of the codes, (z^c_j)^n written `zc_j^n`."""
        return format_terms(((codes, 1),), self.text([f"z{c}" for c in range(1, self.d + 1)]))

    # -- the structural checks' readings, off each term's end codes -------

    def conformal_weights(self) -> set[int]:
        """The conformal weights of the terms: each the sum of cdeg * exponent."""
        m = self.m
        weight = {code: self.cdeg(code) * (m - code % m)
                  for code in set(chain.from_iterable(map(itemgetter(1), self.rows)))}
        return {sum(map(weight.__getitem__, codes)) for _, codes, _ in self.rows}

    def max_cdeg(self) -> int:
        """The largest conformal degree of a variable, read off last codes."""
        return self.cdeg(max([codes[-1] for _, codes, _ in self.rows if codes]))

    def truncated(self, top: int) -> _Jet:
        """The jet with every variable of conformal degree above `top` set to zero.

        A term survives when its last code lies below start(top + 1); the jet
        itself is returned when every term survives.
        """
        after = self.start(top + 1)
        kept = [row for row in self.rows if not row[1] or row[1][-1] < after]
        return self if len(kept) == len(self.rows) else _Jet(kept, self.m, self.d, self.bottom)

    def on_constant_loops(self) -> dict[tuple[int, ...], Fraction | int]:
        """The terms free of every variable of nonzero conformal degree, as {codes: coefficient}.

        A term is kept when its first and last codes lie at conformal degree 0.
        """
        first, after = self.start(0), self.start(1)
        return {
            codes: c
            for _, codes, c in self.rows
            if not codes or first <= codes[0] and codes[-1] < after
        }


def _power_expansion(
    coord: int, exp: int, window: Window, d: int, m: int, sum_lo: int, sum_hi: int, budget: int
) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Terms of (sum_{j in window} z^coord_j t^j)^exp with t-degree in [sum_lo, sum_hi].

    Each term is a multiset of exp window indices, given as its codes for d
    coordinates and m (see `_jet_of_poly`) in increasing j, with its
    multinomial coefficient exp!/prod(count!); the terms are grouped by
    t-degree.  Raises FunctionalTooLarge once more than `budget` terms are found.
    """
    bottom, hi = window
    found: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    made = 0
    # (start, left, total, chosen, weight): `left` indices still to come from [start, hi]
    stack = [(-bottom, exp, 0, (), 1)]
    while stack:
        start, left, total, chosen, weight = stack.pop()
        # An index below the first cannot reach sum_lo even with the rest at hi.
        for j in range(max(start, sum_lo - total - (left - 1) * hi), hi + 1):
            reached = total + left * j
            if reached > sum_hi:
                break
            code = ((j + bottom) * d + coord) * m  # less the count taken
            if reached >= sum_lo:
                made += 1
                if made > budget:
                    raise FunctionalTooLarge(window)
                found.setdefault(reached, []).append((chosen + (code - left,), weight))
            # With `count` copies of j the rest need at least j + 1 each, a
            # least total that grows as count falls.
            for count in range(left - 1, 0, -1) if j < hi else ():
                reached = total + count * j
                if reached + (left - count) * (j + 1) > sum_hi:
                    break
                stack.append((j + 1, left - count, reached, chosen + (code - count,),
                              weight * math.comb(left, count)))
    return found


def _jet_of_poly(
    terms: Mapping[tuple[int, ...], Fraction | int], window: Window, k: int, m: int | None = None
) -> _Jet:
    """Coefficient of t^k after substituting windowed Laurent series into exponent terms.

    Each factor z_i^e of a monomial expands over multisets of e window
    indices, weighted by their multinomial coefficients; the factors are then
    convolved over the t-degree, pruning t-degrees that can no longer reach k
    given the remaining factors.  Distinct ambient monomials give distinct
    loop monomials (the exponents per coordinate differ), and so do distinct
    choices of multisets, so every surviving term is built exactly once.

    A factor (z^c_j)^n is the int code slot*m + (m - n), the slot
    (j + bottom)*d + (c - 1) numbering the variables in (cdeg, coord) order
    and m exceeding every exponent: deg + 1, or the caller's m, which the
    derivative check gives so that a partial's jet shares the functional's
    codes.  Codes thus order as the
    grevlex key's pairs (variable, -exponent): a term is the sorted tuple of
    its codes, in factor order, and at equal degree tuple order is key order.
    Each power is expanded once per (exp, t-degree bounds), for all monomials
    and coordinates (moved to coordinate c by adding (c - c0)*m to its codes).
    The finished terms are sorted once on (degree, codes) and returned as a
    `_Jet`; no monomial is built.  A monomial built twice, or a coefficient
    product of zero, raises RuntimeError instead of being merged or pruned.

    Every expansion term, at each use of a shared expansion, and every
    partial product counts against MAX_JET_TERMS, before it is built; past
    the bound FunctionalTooLarge is raised.
    """
    bottom, hi = window
    lo, d = -bottom, len(next(iter(terms), ()))
    if m is None:
        m = max(map(sum, terms), default=0) + 1
    built = 0
    # (exp, t-degree bounds) -> (coordinate, that power's expansion in its codes)
    expansions: dict[tuple[int, int, int], tuple[int, dict]] = {}
    rows: list[tuple[int, tuple[int, ...], Fraction | int]] = []
    # t-degree -> partial products (codes, integer weight), before any factor
    start: dict[int, list[tuple[tuple[int, ...], int]]] = {0: [((), 1)]}
    for e, coeff in terms.items():
        remaining = sum(e)
        state = start
        for coord, exp in enumerate(e, 1):
            if not exp:
                continue
            remaining -= exp
            # The t-degree after this factor must still reach k.
            after_lo, after_hi = k - remaining * hi, k - remaining * lo
            s_lo = max(exp * lo, after_lo - max(state))
            s_hi = min(exp * hi, after_hi - min(state))
            key = (exp, s_lo, s_hi)
            if key not in expansions:
                expansions[key] = (coord, _power_expansion(
                    coord, exp, window, d, m, s_lo, s_hi, MAX_JET_TERMS - built))
            source, expansion = expansions[key]
            if coord != source:
                shift = (coord - source) * m
                expansion = {t_deg: [(tuple([x + shift for x in c]), w) for c, w in group]
                             for t_deg, group in expansion.items()}
            # Each use is charged its terms, twice for the first factor's partial products.
            built += sum(map(len, expansion.values())) * (2 if state is start else 1)
            if built > MAX_JET_TERMS:
                raise FunctionalTooLarge(window)
            if state is start:
                state = expansion
            else:
                grown: dict[int, list[tuple[tuple[int, ...], int]]] = {}
                for t_deg, partials in state.items():
                    for factor_deg, group in expansion.items():
                        total = t_deg + factor_deg
                        if not after_lo <= total <= after_hi:
                            continue
                        built += len(partials) * len(group)
                        if built > MAX_JET_TERMS:
                            raise FunctionalTooLarge(window)
                        grown.setdefault(total, []).extend(
                            [(items + extra, weight * factor_weight)
                             for items, weight in partials for extra, factor_weight in group])
                state = grown
            if not state:
                break
        finished = state.get(k, ())
        # Few distinct weights occur, so each coefficient product is made, and
        # checked for zero, once; a unit weight takes the coefficient itself.
        # A Fraction product that comes out integral is stored as its int.
        products = {1: coeff}
        for _, weight in finished:
            if weight not in products:
                products[weight] = _exact(coeff * weight)
        if finished and not all(products.values()):
            raise RuntimeError(f"the jet term of {e} has coefficient zero")
        if sum(map(bool, e)) > 1:
            finished = [(tuple(sorted(codes)), weight) for codes, weight in finished]
        # A code is -n modulo m, and a term's degree, that of its monomial, is
        # below m: -sum(c) % m is the degree of c.
        rows += [(-sum(c) % m, c, products[w]) for c, w in finished]
    # On (degree, codes), decreasing: stable sorts on codes, then on degree.
    rows.sort(key=itemgetter(1), reverse=True)
    rows.sort(key=itemgetter(0), reverse=True)
    jet = _Jet(rows, m, d, bottom)
    # Equal codes have equal degrees, so a term built twice lies next to itself.
    previous = None
    for _, codes, _ in rows:
        if codes == previous:
            mono = jet.monomial_text(codes)
            raise RuntimeError(f"monomial {mono} occurs twice among distinct terms")
        previous = codes
    return jet


def _functional_jet(func: InputFunction, window: Window) -> _Jet:
    """The loop functional of F on a window in the jet's codes, its weights audited.

    A term of conformal weight other than 0 or of scaling weight other than
    delta raises RuntimeError.
    """
    jet = _jet_of_poly(func.terms, window, 0)
    cdeg_weights = jet.conformal_weights()
    if cdeg_weights not in (set(), {0}):
        raise RuntimeError(f"loop functional has conformal weights {cdeg_weights}")
    scale_weights = set(map(itemgetter(0), jet.rows))
    if scale_weights not in (set(), {func.delta}):
        raise RuntimeError(f"loop functional has scaling weights {scale_weights}")
    return jet


class SupportBoundReport(namedtuple("SupportBoundReport", "bound max_cdeg_present ok")):
    __slots__ = ()


def check_support_bound(func: InputFunction, bottom: int) -> SupportBoundReport:
    """Verify that no variable of conformal degree > bottom*(delta-1) occurs.

    The functional is computed on a window reaching strictly beyond the bound
    (`support_window`), so the check is not vacuous.
    """
    return _support_report(func, bottom, _functional_jet(func, support_window(func, bottom)))


def _support_report(func: InputFunction, bottom: int, jet: _Jet) -> SupportBoundReport:
    bound = minimal_window(func, bottom).top
    max_present = jet.max_cdeg()
    return SupportBoundReport(bound=bound, max_cdeg_present=max_present, ok=max_present <= bound)


class TopLinearityReport(namedtuple(
    "TopLinearityReport", "ok top_cdeg offending_monomials window"
)):
    __slots__ = ()


def check_top_linearity(func: InputFunction, bottom: int) -> TopLinearityReport:
    """Verify that each monomial of the functional is linear in top variables.

    With N = bottom*(delta-1), monomials of the functional can carry at most
    one factor of conformal degree N, so the functional decomposes as

        sum_j z^j_N * d(functional)/d(z^j_N)  +  remainder

    with the remainder free of conformal-degree-N variables.  By Euler's
    identity the first sum is k*c*m over the terms c*m of the functional, k
    being m's total exponent in the degree-N variables, so the remainder,
    the sum of (1-k)*c*m, is free of them exactly when no k exceeds 1.  The
    report names the monomials whose k does (`offending_monomials`), each as
    the text that the command line's witness writes.
    """
    if bottom < 1:
        raise ValueError("bottom must be >= 1")
    window = minimal_window(func, bottom)
    return _linearity_report(window, _functional_jet(func, window))


def _linearity_report(window: Window, jet: _Jet) -> TopLinearityReport:
    """The report on a functional in the jet's codes: its terms of total
    exponent above 1 in the variables of conformal degree window.top."""
    top = window.top
    first, after, m = jet.start(top), jet.start(top + 1), jet.m
    offending = tuple([
        jet.monomial_text(codes) for _, codes, _ in jet.rows
        if codes and codes[-1] >= first and _top_exponent(codes, first, after, m) > 1
    ])
    return TopLinearityReport(
        ok=not offending, top_cdeg=top, offending_monomials=offending, window=window
    )


def _top_exponent(codes: tuple[int, ...], first: int, after: int, m: int) -> int:
    """The total exponent of the codes in [first, after), a run read from the end past any above."""
    total = 0
    for code in reversed(codes):
        if code < first:
            break
        if code < after:
            total += m - code % m
    return total


class CoordinateDerivativeCheck(namedtuple(
    "CoordinateDerivativeCheck", "coord via_t_coefficient via_bottom_evaluation"
)):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.via_t_coefficient and self.via_bottom_evaluation


class DerivativeIdentityReport(namedtuple("DerivativeIdentityReport", "checks top_cdeg")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(chk.ok for chk in self.checks)


def check_derivative_identity(func: InputFunction, bottom: int) -> DerivativeIdentityReport:
    """Verify both forms of the top-variable derivative identity.

    With N = bottom*(delta-1), for each coordinate j the derivative of the
    loop functional with respect to z^j_N equals

      (i)  the t^(-N) coefficient of (d_j F)(z^1(t), ..., z^d(t)), and
      (ii) d_j F evaluated at z^i -> z^i_{-bottom} for all i.

    Form (ii) evaluates at the most negative window index: the derivative of
    the functional has conformal weight -N and d_j F is homogeneous of degree
    delta-1, which forces every factor down to degree -bottom.
    """
    if bottom < 1:
        raise ValueError("bottom must be >= 1")
    window = minimal_window(func, bottom)
    return _derivative_report(func, window, _functional_jet(func, window))


def _derivative_report(func: InputFunction, window: Window, jet: _Jet) -> DerivativeIdentityReport:
    """Both forms of the identity on codes; the jets of the partials share the functional's m."""
    top, m = window.top, jet.m
    first = jet.start(top)
    # Only terms reaching conformal degree N hold a degree-N variable.
    reaching = [row for row in jet.rows if row[1] and row[1][-1] >= first]

    checks = []
    for j, d_j in enumerate(func.partials, 1):
        lhs = _partial(reaching, first + (j - 1) * m, m)
        via_coeff = _jet_of_poly(d_j, window, -top, m).coefficients()
        via_eval = jet.coded(d_j, -window.bottom)
        checks.append(
            CoordinateDerivativeCheck(
                coord=j,
                via_t_coefficient=lhs == via_coeff,
                via_bottom_evaluation=lhs == via_eval,
            )
        )
    return DerivativeIdentityReport(checks=tuple(checks), top_cdeg=top)


def _partial(
    rows: Iterable[tuple[int, tuple[int, ...], Fraction | int]], first: int, m: int
) -> dict[tuple[int, ...], Fraction | int]:
    """The partial derivative of the terms `rows` by the variable whose codes
    are [first, first + m), as {codes: coefficient}.

    Lowering the factor's exponent n adds 1 to its code, and n = 1 drops it.
    Distinct terms holding the variable have distinct derivatives, so none merge.
    """
    out = {}
    for _, codes, c in rows:
        i = bisect_left(codes, first)
        if i < len(codes) and codes[i] < first + m:
            n = first + m - codes[i]
            out[codes[:i] + ((codes[i] + 1,) if n > 1 else ()) + codes[i + 1 :]] = c * n
    return out


def _functional_checks(
    func: InputFunction, bottom: int, names: Sequence[str]
) -> tuple[_Jet | None, dict[str, str | None]]:
    """The functional on the minimal window, in the jet's codes, and the
    witness of each named functional check, None when the check passed.

    The functional is computed once, on the support window when the support
    check is named; the functional on the minimal window is that one with
    every variable above its top set to zero.  When the support bound holds
    no term reaches above the minimal window, and the wide functional is kept
    as it is.  An audit that raises fails its check with the error as its
    witness: a failed audit of the functional itself fails every named check
    and leaves no functional.
    """
    window = minimal_window(func, bottom)
    try:
        wide = _functional_jet(func, support_window(func, bottom) if "support" in names else window)
    except RuntimeError as exc:
        return None, dict.fromkeys(names, str(exc))
    lam = wide.truncated(window.top)
    witnesses: dict[str, str | None] = {}
    for name in names:
        witness = None
        try:
            if name == "lambda":
                # The functional's weights are audited as it is computed.
                if lam.on_constant_loops() != lam.coded(func.terms, 0):
                    witness = "constant-loop restriction does not recover the input"
            elif name == "support":
                support = _support_report(func, bottom, wide)
                if not support.ok:
                    witness = (f"conformal degree {support.max_cdeg_present}"
                               f" exceeds bound {support.bound}")
            elif name == "linearity":
                if offending := _linearity_report(window, lam).offending_monomials:
                    witness = "nonlinear monomial " + ", ".join(offending)
            elif not (derivative := _derivative_report(func, window, lam)).ok:
                bad = [c.coord for c in derivative.checks if not c.ok]
                witness = f"identity fails for coordinates {bad}"
        except RuntimeError as exc:
            witness = str(exc)
        witnesses[name] = witness
    return lam, witnesses
