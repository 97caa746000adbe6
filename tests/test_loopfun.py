"""Jet coefficients, the loop functional, and its structural identities."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsing.exactalg import LoopPoly, LoopVar, Monomial
from loopsing import loopfun
from loopsing.loopfun import (
    DegreeTooLow,
    FunctionalTooLarge,
    InputFunction,
    NotHomogeneous,
    TopLinearityReport,
    Window,
    check_derivative_identity,
    check_support_bound,
    check_top_linearity,
    minimal_window,
    support_window,
)

from conftest import (
    CORPUS,
    Poly,
    ambient_poly,
    build,
    coded,
    deadline,
    decoded,
    decoded_monomial,
    homogeneous_forms,
    input_function,
    jet_coefficient,
    jet_coefficient_by_enumeration,
    lambda_of,
    rename_variables,
    substitute,
    top_exponent,
    weight_set,
    zero_out,
)


def lv(coord: int, cdeg: int) -> Poly:
    return Poly.variable(LoopVar(coord, cdeg))


def quadric_lambda(n: int) -> LoopPoly:
    """z_0^2 + 2 sum_{j=1..n} z_j z_{-j}, assembled independently."""
    total = lv(1, 0) ** 2
    for j in range(1, n + 1):
        total = total + 2 * lv(1, j) * lv(1, -j)
    return total


def canonical(c: int | Fraction) -> bool:
    """c is in the package's exact form: an int exactly when integral, else a Fraction."""
    return type(c) is (int if c.denominator == 1 else Fraction)


# Mixed monomials, and a GL transform of x^3 + y^3 (matrix [[1, 2], [3, -1]]).
MIXED_SOURCES = ("x^2*y*w", "x^3*y + y^4", "(x + 2*y)^3 + (3*x - y)^3")


@st.composite
def small_homogeneous_forms(draw) -> InputFunction:
    """A nonzero form of degree 2-4 in at most 3 coordinates, small coefficients."""
    d = draw(st.integers(1, 3))
    delta = draw(st.integers(2, 4))
    monomials = st.lists(st.integers(1, d), min_size=delta, max_size=delta).map(
        lambda coords: Monomial(tuple((LoopVar(c, 0), 1) for c in coords))
    )
    coefficients = st.integers(-3, 3).filter(bool)
    poly = LoopPoly(draw(st.lists(st.tuples(monomials, coefficients), min_size=1, max_size=4)))
    assume(poly)
    used = sorted({v.coord for v in poly.variables()})
    return input_function(rename_variables(poly, lambda v: LoopVar(used.index(v.coord) + 1, 0)))


class TestWindow:
    def test_bounds(self):
        w = Window(2, 3)
        assert (w.bottom, w.top) == (2, 3)
        assert str(w) == "[-2, 3]"

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Window(-1, 0)
        with pytest.raises(ValueError):
            Window(1, -2)

    def test_negative_top_allowed(self):
        assert str(Window(2, -1)) == "[-2, -1]"


class TestInputFunction:
    def test_infers_dimensions(self):
        func = build("x^3 + y^3")
        assert (func.d, func.delta) == (2, 3)
        assert func.names == ("x", "y")

    def test_rejects_mixed_degrees(self):
        with pytest.raises(NotHomogeneous) as excinfo:
            build("x^2 + y^3")
        assert excinfo.value.degrees == (2, 3)

    def test_rejects_low_degree(self):
        with pytest.raises(DegreeTooLow):
            build("x + y")
        with pytest.raises(DegreeTooLow):
            build("3")

    def test_rejects_nonzero_cdeg_variables(self):
        # A LoopPoly reaches an InputFunction only through the tests' helper.
        with pytest.raises(ValueError):
            input_function(lv(1, 1) ** 2)

    def test_semantic_equality_ignores_coordinate_numbering(self):
        assert build("x^3 + y^3") == build("y^3 + x^3")
        assert build("x^3 + y^3") != build("x^3 + w^3")

    def test_is_immutable(self):
        func = build("x^3 + y^3")
        integer_partials, partials = func.integer_partials, func.partials
        for name in ("terms", "partials", "d", "delta", "names", "integer_partials"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(func, name, 7)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(func, name)
        with pytest.raises(TypeError):
            func.terms[(3, 0)] = 5
        for partial in func.partials:
            with pytest.raises(TypeError):
                partial[(2, 0)] = 5
        assert func.delta == 3 and func.terms == {(3, 0): 1, (0, 3): 1}
        assert func.integer_partials is integer_partials
        assert func.partials == partials == ({(2, 0): 3}, {(0, 2): 3})

    @settings(deadline=None)
    @given(homogeneous_forms())
    def test_integer_partials_are_the_primitive_partials(self, terms):
        func = InputFunction(terms)
        assert len(func.integer_partials) == func.d
        for partial, integer in zip(func.partials, func.integer_partials):
            # Decreasing grevlex order: the degree, then the smaller first entry, and so on.
            ordered = sorted(
                partial.items(), key=lambda t: (sum(t[0]), [-x for x in t[0]]), reverse=True
            )
            assert [e for e, _ in integer] == [e for e, _ in ordered]
            ratio = Fraction(integer[0][1]) / ordered[0][1]
            assert all(c == ratio * exact for (_, c), (_, exact) in zip(integer, ordered))
            assert all(type(c) is int for _, c in integer)
            assert integer[0][1] > 0 and math.gcd(*(c for _, c in integer)) == 1
        assert func.integer_partials is func.integer_partials

    @settings(deadline=None)
    @given(homogeneous_forms())
    def test_coefficients_are_exact_and_canonical(self, terms):
        func = InputFunction(terms)
        assert func.terms == terms
        assert all(map(canonical, func.terms.values()))
        for i, partial in enumerate(func.partials):
            expected = {
                e[:i] + (e[i] - 1,) + e[i + 1 :]: Fraction(c) * e[i]
                for e, c in terms.items()
                if e[i]
            }
            assert partial == expected
            assert all(map(canonical, partial.values()))

    def test_integral_fractions_become_ints(self):
        func = InputFunction({(2, 0): Fraction(4, 2), (0, 2): Fraction(1, 2), (1, 1): 3})
        assert func.terms == {(2, 0): 2, (0, 2): Fraction(1, 2), (1, 1): 3}
        assert [type(c) for c in func.terms.values()] == [int, Fraction, int]
        # d/dy of y^2/2 is the integral y.
        assert func.partials[1] == {(0, 1): 1, (1, 0): 3}
        assert all(type(c) is int for c in func.partials[1].values())
        # The Jacobian ideal holds each partial's primitive integer multiple.
        assert func.integer_partials == ((((0, 1), 3), ((1, 0), 4)), (((0, 1), 1), ((1, 0), 3)))


class TestJetCoefficient:
    def test_quadric_window2(self):
        result = jet_coefficient(build("z^2"), Window(2, 2), 0)
        assert result == quadric_lambda(2)

    def test_no_degree_one_combinations(self):
        assert jet_coefficient(build("z^2"), Window(0, 0), 1) == LoopPoly()

    def test_cubic_by_hand(self):
        expected = (
            lv(1, 0) ** 3
            + 6 * lv(1, -1) * lv(1, 0) * lv(1, 1)
            + 3 * lv(1, -1) ** 2 * lv(1, 2)
        )
        assert jet_coefficient(build("z^3"), Window(1, 2), 0) == expected

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_conformal_weight_is_k(self, k):
        result = jet_coefficient(build("x^3 + y^3"), Window(1, 2), k)
        weights = weight_set(result, lambda v: v.cdeg)
        assert weights <= {k}

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3])
    def test_matches_enumeration_oracle_off_center(self, k):
        func = build("x^2 + y^2")
        w = Window(2, 2)
        assert jet_coefficient(func, w, k) == jet_coefficient_by_enumeration(func, w, k)
        # mixed monomials, where a factor's multisets meet other factors
        for source in MIXED_SOURCES:
            func = build(source)
            for bottom in (0, 1, 2):
                w = Window(bottom, 2)
                assert jet_coefficient(func, w, k) == jet_coefficient_by_enumeration(
                    func, w, k
                ), (source, bottom)

    @settings(deadline=None, max_examples=60)
    @given(
        func=small_homogeneous_forms(),
        bottom=st.integers(0, 2),
        extent=st.integers(0, 4),
        k=st.integers(-4, 4),
    )
    def test_matches_enumeration_oracle_on_random_forms(self, func, bottom, extent, k):
        w = Window(bottom, extent - bottom)
        assert jet_coefficient(func, w, k) == jet_coefficient_by_enumeration(func, w, k)


class TestLambda:
    @pytest.mark.parametrize("n", range(6))
    def test_quadric_closed_form(self, n):
        assert lambda_of(build("z^2"), Window(n, n)) == quadric_lambda(n)

    def test_product_of_coordinates(self):
        result = lambda_of(build("x*y"), Window(1, 1))
        expected = (
            lv(1, -1) * lv(2, 1) + lv(1, 0) * lv(2, 0) + lv(1, 1) * lv(2, -1)
        )
        assert result == expected

    def test_pole_free_window_gives_the_function_back(self, corpus_function):
        assert lambda_of(corpus_function, Window(0, 3)) == ambient_poly(corpus_function)

    def test_linearity(self):
        f, g = build("x^3 + y^3"), build("x^2*y + y^3")
        w = Window(2, 4)
        a, b = Fraction(3), Fraction(-1, 2)
        combined = input_function(a * ambient_poly(f) + b * ambient_poly(g), names=("x", "y"))
        assert lambda_of(combined, w) == a * Poly.of(lambda_of(f, w)) + b * Poly.of(lambda_of(g, w))

    def test_window_stability(self, corpus_entry, corpus_function):
        for bottom in (1, 2):
            stable_top = bottom * (corpus_entry.delta - 1)
            base = lambda_of(corpus_function, Window(bottom, stable_top))
            wider = lambda_of(corpus_function, Window(bottom, stable_top + 3))
            assert wider == base

    def test_restriction_from_any_window(self):
        func = build("z^2")
        small = lambda_of(func, Window(1, 1))
        large = lambda_of(func, Window(3, 3))
        assert zero_out(large, lambda v: abs(v.cdeg) > 1) == small

    def test_oracle_equivalence(self, corpus_entry, corpus_function):
        if corpus_entry.delta > 4:
            pytest.skip("oracle budget is delta <= 4")
        for bottom in (0, 1, 2):
            w = minimal_window(corpus_function, bottom)
            assert lambda_of(corpus_function, w) == jet_coefficient_by_enumeration(
                corpus_function, w, 0
            )


class TestPrecomputedFunctional:
    """run() computes the functional once, on the support window, and reads the
    minimal window's functional off it by truncation."""

    SOURCES = ("z^3", "x^3 + y^3", "x^4 + y^4", "(x + 2*y)^3 + (3*x - y)^3", "x^3*y + y^4")

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("bottom", [0, 1, 2, 3])
    def test_minimal_window_functional_from_the_support_window(self, source, bottom):
        func = build(source)
        window = minimal_window(func, bottom)
        wide = lambda_of(func, support_window(func, bottom))
        assert support_window(func, bottom).top > window.top
        assert zero_out(wide, lambda v: v.cdeg > window.top) == lambda_of(func, window)


class TestSupportBound:
    def test_quadric(self):
        report = check_support_bound(build("z^2"), 1)
        assert (report.max_cdeg_present, report.bound, report.ok) == (1, 1, True)

    def test_cubic(self):
        report = check_support_bound(build("z^3"), 1)
        assert (report.max_cdeg_present, report.bound, report.ok) == (2, 2, True)

    def test_fermat_cubic_b2(self):
        report = check_support_bound(build("x^3 + y^3"), 2)
        assert report.bound == 4 and report.ok

    @pytest.mark.parametrize("bottom", [0, 1, 2, 3])
    def test_holds_on_corpus(self, corpus_function, bottom):
        assert check_support_bound(corpus_function, bottom).ok


def _linearity_by_products(func: InputFunction, bottom: int, lam: LoopPoly):
    """Reference: sum_j z^j_N * d(lam)/d(z^j_N) from d products, and lam minus it."""
    top = bottom * (func.delta - 1)
    linear = Poly()
    for j in range(1, func.d + 1):
        var = LoopVar(j, top)
        linear = linear + Poly.variable(var) * Poly.of(lam).partial(var)
    return linear, lam - linear


def _forged_linearity(func: InputFunction, bottom: int, lam: LoopPoly) -> TopLinearityReport:
    """check_top_linearity's report with `lam` as the functional: its private
    reading `_linearity_report` on lam's codes."""
    return loopfun._linearity_report(minimal_window(func, bottom), coded(lam, func, bottom))


LINEARITY_GL_SOURCES = ("(x + 2*y)^3 + (3*x - y)^3", "(x + y - w)^3 + (2*x - y)^3 + (x + 3*w)^3")


class TestTopLinearity:
    @pytest.mark.parametrize("bottom", [1, 2])
    @pytest.mark.parametrize(
        "source", [entry.source for entry in CORPUS] + list(LINEARITY_GL_SOURCES)
    )
    def test_euler_identity_matches_the_products(self, source, bottom):
        # The functional is z_N times its z_N-derivative plus a remainder free
        # of the top variables, the remainder taken from d products.
        func = build(source)
        report = check_top_linearity(func, bottom)
        _, remainder = _linearity_by_products(func, bottom, lambda_of(func, report.window))
        assert report.ok and all(v.cdeg < report.top_cdeg for v in remainder.variables())

    def test_euler_identity_matches_the_products_off_the_theorem(self):
        func = build("z^2")
        lam = lv(1, 1) ** 2 * lv(1, 0) + 3 * lv(1, 0) * lv(1, 1) + lv(1, -1)
        report = _forged_linearity(func, 1, lam)
        assert not report.ok
        assert report.offending_monomials == (str(lam.terms[0][0]),)
        _, remainder = _linearity_by_products(func, 1, lam)
        assert any(v.cdeg == report.top_cdeg for v in remainder.variables())

    def test_quadric_decomposition(self):
        func = build("z^2")
        report = check_top_linearity(func, 1)
        assert report.ok
        assert _linearity_by_products(func, 1, lambda_of(func, report.window)) == (
            2 * lv(1, 1) * lv(1, -1), lv(1, 0) ** 2
        )

    def test_cubic_decomposition(self):
        func = build("z^3")
        report = check_top_linearity(func, 1)
        assert report.ok
        assert _linearity_by_products(func, 1, lambda_of(func, report.window)) == (
            3 * lv(1, 2) * lv(1, -1) ** 2,
            lv(1, 0) ** 3 + 6 * lv(1, -1) * lv(1, 0) * lv(1, 1),
        )

    @pytest.mark.parametrize("bottom", [1, 2, 3])
    def test_holds_on_corpus(self, corpus_function, bottom):
        report = check_top_linearity(corpus_function, bottom)
        assert report.ok and not report.offending_monomials
        assert report.window == minimal_window(corpus_function, bottom)


class TestDerivativeIdentity:
    def test_quadric(self):
        func = build("z^2")
        report = check_derivative_identity(func, 1)
        assert [check.ok for check in report.checks] == [True]
        lam = lambda_of(func, Window(1, 1))
        assert Poly.of(lam).partial(LoopVar(1, 1)) == 2 * lv(1, -1)

    def test_cubic(self):
        func = build("z^3")
        report = check_derivative_identity(func, 1)
        assert report.ok
        lam = lambda_of(func, Window(1, 2))
        assert Poly.of(lam).partial(LoopVar(1, 2)) == 3 * lv(1, -1) ** 2

    def test_plane_quadric(self):
        func = build("x^2 + y^2")
        assert [check.ok for check in check_derivative_identity(func, 1).checks] == [True, True]
        lam = lambda_of(func, Window(1, 1))
        assert Poly.of(lam).partial(LoopVar(1, 1)) == 2 * lv(1, -1)
        assert Poly.of(lam).partial(LoopVar(2, 1)) == 2 * lv(2, -1)

    @pytest.mark.parametrize("bottom", [1, 2, 3])
    def test_both_routes_hold_on_corpus(self, corpus_function, bottom):
        report = check_derivative_identity(corpus_function, bottom)
        for check in report.checks:
            assert check.via_t_coefficient
            assert check.via_bottom_evaluation


def _on_constant_loops(func: InputFunction, window: Window) -> LoopPoly:
    """The functional with every variable of nonzero conformal degree set to zero."""
    return zero_out(lambda_of(func, window), lambda v: v.cdeg != 0)


class TestConstantLoopRestriction:
    def test_quadric(self):
        assert _on_constant_loops(build("z^2"), Window(2, 2)) == lv(1, 0) ** 2

    def test_fermat_cubic(self):
        expected = lv(1, 0) ** 3 + lv(2, 0) ** 3
        assert _on_constant_loops(build("x^3 + y^3"), Window(2, 4)) == expected

    def test_recovers_corpus_functions(self, corpus_function):
        w = minimal_window(corpus_function, 1)
        assert _on_constant_loops(corpus_function, w) == ambient_poly(corpus_function)


# -- the code-reading forms against the scans they replace --------------------
#
# The structural checks read the jet's codes: conformal degrees off a term's
# first and last codes.  Each scan below reads every factor of the LoopPoly
# instead; drawn polynomials, coded as a functional of x^3 + y^3 at bottom 1
# (window [-1, 2], N = 2), mix conformal degrees below, inside and above the
# window, in its two coordinates, and may hold the unit monomial.

ORDER_TOP = 2
ORDER_FUNC = build("x^3 + y^3")


def _coded(poly: LoopPoly) -> loopfun._Jet:
    return coded(poly, ORDER_FUNC, 1)


def _decoded(jet: loopfun._Jet, terms: dict) -> dict:
    """{codes: coefficient} as {Monomial: coefficient}."""
    return {decoded_monomial(jet, codes): c for codes, c in terms.items()}


def _scan_max_cdeg(poly: LoopPoly) -> int:
    return max(v.cdeg for v in poly.variables())


drawn_monomials = st.lists(
    st.tuples(
        st.builds(LoopVar, st.integers(1, 2), st.integers(-3, ORDER_TOP + 2)),
        st.integers(1, 3),
    ),
    max_size=4,
).map(Monomial)
drawn_polys = st.lists(
    st.tuples(drawn_monomials, st.integers(-4, 4).filter(bool)), max_size=8
).map(Poly)
drawn_tops = st.integers(-3, ORDER_TOP + 2)


class TestOrderReadingForms:
    @given(drawn_polys)
    @settings(deadline=None)
    def test_codes_decode_to_the_polynomial_and_its_text(self, poly):
        jet = _coded(poly)
        assert [decoded_monomial(jet, codes) for codes, _ in jet.rows] == [
            m for m, _ in poly.terms
        ]
        assert decoded(jet) == poly
        for names in (("x", "y"), ("a1", "b22")):
            assert jet.to_string(names) == poly.to_string(names)
        for (codes, _), (mono, _) in zip(jet.rows, poly.terms):
            assert jet.monomial_text(codes) == str(mono)

    @given(drawn_polys)
    @settings(deadline=None)
    def test_max_cdeg_is_the_largest_variable(self, poly):
        if poly.variables():
            assert _coded(poly).max_cdeg() == _scan_max_cdeg(poly)
        else:
            with pytest.raises(ValueError):
                _coded(poly).max_cdeg()

    @given(drawn_polys, drawn_tops)
    @settings(deadline=None)
    def test_top_exponent_and_reaching_terms(self, poly, top):
        # The reading takes only the window's top; the jet's codes carry
        # their own bottom, so bottom 3 admits every drawn top.
        report = loopfun._linearity_report(Window(3, top), _coded(poly))
        assert report.offending_monomials == tuple(
            str(m) for m, _ in poly.terms if top_exponent(m, top) > 1
        )

    @given(drawn_polys, drawn_tops)
    @settings(deadline=None)
    def test_truncation_and_constant_loops_match_zero_out(self, poly, top):
        jet = _coded(poly)
        reference = zero_out(poly, lambda v: v.cdeg > top)
        truncated = jet.truncated(top)
        assert decoded(truncated) == reference
        assert (truncated is jet) == (reference is poly)
        assert _decoded(jet, jet.on_constant_loops()) == dict(
            zero_out(poly, lambda v: v.cdeg != 0).terms
        )

    @given(drawn_polys)
    @settings(deadline=None)
    def test_conformal_weights_match_weight_set(self, poly):
        assert _coded(poly).conformal_weights() == weight_set(poly, lambda v: v.cdeg)

    @given(drawn_polys, drawn_tops)
    @settings(deadline=None)
    def test_partials_of_the_reaching_terms(self, poly, top):
        jet = _coded(poly)
        for coord in (1, 2):
            first = jet.start(top) + (coord - 1) * jet.m
            partial = loopfun._partial(jet.rows, first, jet.m)
            assert _decoded(jet, partial) == dict(Poly.of(poly).partial(LoopVar(coord, top)).terms)

    @given(drawn_polys)
    @settings(deadline=None)
    def test_checks_match_their_scans(self, extra):
        window = minimal_window(ORDER_FUNC, 1)
        lam = lambda_of(ORDER_FUNC, window) + extra
        linearity = _forged_linearity(ORDER_FUNC, 1, lam)
        assert linearity.offending_monomials == tuple(
            str(m) for m, _ in lam.terms if top_exponent(m, ORDER_TOP) > 1
        )
        derivative = loopfun._derivative_report(ORDER_FUNC, window, _coded(lam))
        at_bottom = {LoopVar(i, 0): Poly.variable(LoopVar(i, -1)) for i in (1, 2)}
        for check, d_j in zip(derivative.checks, ORDER_FUNC.partials):
            lhs = lam.partial(LoopVar(check.coord, ORDER_TOP))
            via_coeff = decoded(loopfun._jet_of_poly(d_j, window, -2))
            assert check.via_t_coefficient == (lhs == via_coeff)
            d_j_at_bottom = substitute(
                ambient_poly(ORDER_FUNC).partial(LoopVar(check.coord, 0)), at_bottom
            )
            assert check.via_bottom_evaluation == (lhs == d_j_at_bottom)
        if lam.variables():
            support = loopfun._support_report(ORDER_FUNC, 1, _coded(lam))
            assert support.max_cdeg_present == _scan_max_cdeg(lam)

    @pytest.mark.parametrize("functional", [LoopPoly(), Poly.constant(3)], ids=["zero", "unit"])
    def test_a_functional_without_variables_is_a_value_error(self, functional):
        with pytest.raises(ValueError):
            loopfun._support_report(ORDER_FUNC, 1, _coded(functional))

    def test_the_unit_monomial_is_skipped(self):
        lam = Poly.constant(3) + lv(1, -1) * lv(1, 1) ** 2
        assert loopfun._support_report(ORDER_FUNC, 1, _coded(lam)).max_cdeg_present == 1
        window = minimal_window(ORDER_FUNC, 1)
        assert loopfun._linearity_report(window, _coded(lam)).offending_monomials == ()
        jet = _coded(lam)
        assert jet.on_constant_loops() == {(): 3}
        assert decoded(jet.truncated(0)) == Poly.constant(3)

    def test_a_variable_beyond_the_coordinates_is_a_value_error(self):
        with pytest.raises(ValueError, match="z3_0 lies beyond F's 2 coordinates"):
            _coded(lv(1, 0) * lv(3, 0) ** 2)


class TestSizeBudget:
    def test_oversized_expansion_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(loopfun, "MAX_JET_TERMS", 20)
        with pytest.raises(FunctionalTooLarge) as excinfo:
            lambda_of(build("x^3 + y^3"), Window(2, 4))
        # Not a RuntimeError: the CLI reads those as failed audits (exit 1).
        assert isinstance(excinfo.value, ValueError)
        assert not isinstance(excinfo.value, RuntimeError)
        assert excinfo.value.window == Window(2, 4)
        assert str(excinfo.value) == "the loop functional on window [-2, 4] needs more than 20 terms"

    @pytest.mark.parametrize("source", ["x^3 + y^3", "x^2*y + y^3", "(x + 2*y)^3 + (3*x - y)^3"])
    def test_budget_counts_the_partial_products(self, monkeypatch, source):
        # Every result term is built once as a partial product, so a budget
        # below the term count cannot be met; the support window's expansion
        # on these inputs builds fewer than 300 terms in all.
        func = build(source)
        window = support_window(func, 2)
        functional = lambda_of(func, window)
        monkeypatch.setattr(loopfun, "MAX_JET_TERMS", len(functional) - 1)
        with pytest.raises(FunctionalTooLarge):
            lambda_of(func, window)
        monkeypatch.setattr(loopfun, "MAX_JET_TERMS", 300)
        assert lambda_of(func, window) == functional

    def test_a_single_power_stops_inside_its_expansion(self):
        # z^10 at window 8 has one factor, so only the expansion's own count
        # can stop it; unbounded, it runs for minutes.
        with deadline(10):
            with pytest.raises(FunctionalTooLarge):
                lambda_of(build("z^10"), Window(8, 72))


def _determinant(matrix: list[list[int]]) -> int:
    """Leibniz expansion; the sign of a permutation is the parity of its inversions."""
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(len(perm)))
    return total


def _invertible_matrix(d: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if _determinant(matrix) != 0:
            return matrix


def _linear_change(matrix: list[list[int]], cdeg: int) -> dict[LoopVar, LoopPoly]:
    """z^i_cdeg -> sum_j A_ij z^j_cdeg, for every coordinate i."""
    return {
        LoopVar(i + 1, cdeg): sum(
            (a * lv(j + 1, cdeg) for j, a in enumerate(row) if a), LoopPoly()
        )
        for i, row in enumerate(matrix)
    }


# The matrix of MIXED_SOURCES' GL transform, then seeded ones.
GL_MATRICES = [[[1, 2], [3, -1]]] + [
    _invertible_matrix(d, seed) for d in (2, 3) for seed in (1, 2, 3)
]
GL_BASES = {2: ("x^3 + y^3", "x^3 + x*y^2 + 2*y^3"), 3: ("x^3 + y^3 + w^3", "x^3 + y^3 + w^3 + x*y*w")}


class TestGLInvariance:
    """F(Ax) has the functional of F with A applied to every loop coefficient z_k."""

    @pytest.mark.parametrize("bottom", [1, 2])
    @pytest.mark.parametrize("matrix", GL_MATRICES, ids=str)
    def test_functional_of_a_linear_change(self, matrix, bottom):
        d = len(matrix)
        for source in GL_BASES[d]:
            func = build(source)
            transformed = input_function(substitute(ambient_poly(func), _linear_change(matrix, 0)))
            window = minimal_window(func, bottom)
            assert minimal_window(transformed, bottom) == window
            change = {}
            for cdeg in range(-window.bottom, window.top + 1):
                change.update(_linear_change(matrix, cdeg))
            assert lambda_of(transformed, window) == substitute(lambda_of(func, window), change)

    def test_hand_checked_transform(self):
        func = build("(x + 2*y)^3 + (3*x - y)^3")
        expected = substitute(ambient_poly(build("x^3 + y^3")), _linear_change(GL_MATRICES[0], 0))
        assert ambient_poly(func) == expected


def _canonical_jets(func: InputFunction, bottom: int):
    """The jets run() builds for func at `bottom`: the functional on the
    support and minimal windows, and the t^(-N) coefficient of each partial
    in the functional's codes."""
    window = minimal_window(func, bottom)
    yield loopfun._functional_jet(func, support_window(func, bottom))
    functional = loopfun._functional_jet(func, window)
    yield functional
    for d_j in func.partials:
        yield loopfun._jet_of_poly(d_j, window, -window.top, functional.m)


def _fraction_jets(func: InputFunction, bottom: int):
    """The jets of `_canonical_jets`, built from F's terms and partials with
    every coefficient a Fraction, integral ones included."""

    def fractions(terms):
        return {e: Fraction(c) for e, c in terms.items()}

    window = minimal_window(func, bottom)
    yield loopfun._jet_of_poly(fractions(func.terms), support_window(func, bottom), 0)
    functional = loopfun._jet_of_poly(fractions(func.terms), window, 0)
    yield functional
    for d_j in func.partials:
        yield loopfun._jet_of_poly(fractions(d_j), window, -window.top, functional.m)


DENSE_GL_FORMS = [(source, matrix) for matrix in GL_MATRICES for source in GL_BASES[len(matrix)]]


class TestCanonicalJets:
    """The jet sorts its coded terms itself; the checked constructors are the reference."""

    @staticmethod
    def assert_canonical(jet: loopfun._Jet):
        for codes, coeff in jet.rows:
            mono = decoded_monomial(jet, codes)
            # One code per variable, in factor order.
            assert list(codes) == sorted(codes) and len(mono.factors) == len(codes)
            # The kernel's degree reading: a code is -n modulo m.
            assert -sum(codes) % jet.m == mono.key[0]
            assert canonical(coeff) and coeff
        # Every term has one degree, which the kernel's one sort on codes relies on.
        assert len({decoded_monomial(jet, codes).key[0] for codes, _ in jet.rows}) <= 1
        # LoopPoly merges repeats and orders by key: it keeps every row, in order.
        rows = [(decoded_monomial(jet, codes), c) for codes, c in jet.rows]
        assert list(LoopPoly(rows).terms) == rows

    @given(func=small_homogeneous_forms(), bottom=st.integers(0, 2), k=st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_on_random_forms(self, func, bottom, k):
        self.assert_canonical(loopfun._jet_of_poly(func.terms, Window(bottom, bottom + 2), k))
        if bottom:
            for jet in _canonical_jets(func, bottom):
                self.assert_canonical(jet)

    @pytest.mark.parametrize("bottom", [1, 2])
    def test_on_corpus(self, corpus_function, bottom):
        for jet in _canonical_jets(corpus_function, bottom):
            self.assert_canonical(jet)

    @given(terms=homogeneous_forms(max_d=3, max_delta=4), bottom=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_int_and_fraction_coefficients_give_the_same_jets(self, terms, bottom):
        # Every jet a report builds has the same rows, in order and by value,
        # whether F's integral coefficients are ints or Fractions.
        func = InputFunction(terms)
        jets = list(_canonical_jets(func, bottom))
        wrapped = list(_fraction_jets(func, bottom))
        assert [(jet.m, jet.rows) for jet in jets] == [(jet.m, jet.rows) for jet in wrapped]
        for jet in jets:
            self.assert_canonical(jet)
        functional = lambda_of(func, minimal_window(func, bottom))
        assert all(type(c) is Fraction for _, c in functional.terms)

    @pytest.mark.parametrize("source, matrix", DENSE_GL_FORMS, ids=str)
    def test_on_dense_gl_forms(self, source, matrix):
        func = input_function(substitute(ambient_poly(build(source)), _linear_change(matrix, 0)))
        for bottom in (1, 2):
            for jet in _canonical_jets(func, bottom):
                self.assert_canonical(jet)


class TestExpansionSharing:
    """One jet expands each power once per (exp, t-degree bounds), for every
    ambient monomial and coordinate that needs it."""

    # SHA-256 of str(lambda_of(F, support_window(F, 2))), as computed before
    # the expansions were shared, with the term counts.
    PINNED = {
        "fermat": (21, "05636b65e5099b4c321614c1fcff4731e02ada0223ebc12f07579d5dd75c32da"),
        "dense": (138, "818c5d095b2b0f611cb53f7865aa4b0861fa2d9bd19965caaa131664e5b09e93"),
    }

    @staticmethod
    def function(case: str) -> InputFunction:
        if case == "fermat":
            return build("x^3 + y^3 + w^3")
        source, matrix = next((s, m) for s, m in DENSE_GL_FORMS if len(m) == 3)
        return input_function(substitute(ambient_poly(build(source)), _linear_change(matrix, 0)))

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_each_power_is_expanded_once(self, monkeypatch, case):
        func = self.function(case)
        expansion = loopfun._power_expansion
        expanded = []

        def counted(coord, exp, window, d, m, sum_lo, sum_hi, budget):
            expanded.append((exp, sum_lo, sum_hi))
            return expansion(coord, exp, window, d, m, sum_lo, sum_hi, budget)

        monkeypatch.setattr(loopfun, "_power_expansion", counted)
        functional = lambda_of(func, support_window(func, 2))
        assert len(set(expanded)) == len(expanded)
        # Every ambient monomial expands a power per coordinate it holds.
        powers = sum(1 for e in func.terms for exp in e if exp)
        assert len(expanded) == 1 if case == "fermat" else len(expanded) < powers
        count, digest = self.PINNED[case]
        assert len(functional) == count
        assert hashlib.sha256(str(functional).encode()).hexdigest() == digest


class TestJetAudits:
    def test_a_term_built_twice_raises(self, monkeypatch):
        expansion = loopfun._power_expansion

        def doubled(*args):
            found = expansion(*args)
            group = next(iter(found.values()))
            group.append(group[0])
            return found

        monkeypatch.setattr(loopfun, "_power_expansion", doubled)
        with pytest.raises(RuntimeError, match="occurs twice among distinct terms"):
            lambda_of(build("x^3 + y^3"), Window(1, 2))

    def test_a_zero_coefficient_raises(self):
        with pytest.raises(RuntimeError, match="coefficient zero"):
            loopfun._jet_of_poly({(2,): Fraction(0)}, Window(1, 1), 0)
