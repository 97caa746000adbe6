"""Buchberger, standard monomials, and the two Milnor-number routes."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, mul, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopsing import grobner
from loopsing.cli import ParseError
from loopsing.exactalg import LoopPoly, LoopVar, Monomial
from loopsing.loopfun import DegreeTooLow
from loopsing.grobner import (
    GroebnerBasis,
    Ideal,
    NotIsolated,
    buchberger,
    jacobian_ideal,
    milnor_number,
    milnor_number_oracle,
)

from conftest import (
    CORPUS,
    NON_ISOLATED_SOURCES,
    Poly,
    bench_module,
    build,
    exponent_terms,
    fermat_source,
    ideal_of,
    packed_vector,
    unpacked_vector,
)


def lv(coord: int) -> Poly:
    return Poly.variable(LoopVar(coord, 0))


x, y, w = lv(1), lv(2), lv(3)


def mono(*pairs) -> Monomial:
    return Monomial(tuple((LoopVar(c, 0), e) for c, e in pairs))


def _quotient(m: Monomial, lead: Monomial) -> Monomial | None:
    """m / lead when lead divides m, else None."""
    exponents = dict(m.factors)
    for v, e in lead.factors:
        if exponents.get(v, 0) < e:
            return None
        exponents[v] -= e
    return Monomial(exponents)


def _normal_form(p: LoopPoly, divisors) -> Poly:
    """Reference division on Poly terms, independent of the packed kernel:
    the largest term of p is cancelled against the first divisor whose lead
    divides it, else moved to the remainder, until p is zero."""
    p, remainder = Poly.of(p), []
    divisors = [g for g in divisors if g]
    while p:
        m, c = p.terms[0]
        for g in divisors:
            lead, lead_c = g.terms[0]
            q = _quotient(m, lead)
            if q is not None:
                p = p - Poly({q: c / lead_c}) * g
                break
        else:
            remainder.append((m, c))
            p = Poly(p.terms[1:])
    return Poly(remainder)


def _s_polynomial(f: LoopPoly, g: LoopPoly) -> Poly:
    """Reference S-polynomial lcm/lead(f) * f - lcm/lead(g) * g, on Poly terms."""
    (lead_f, c_f), (lead_g, c_g) = f.terms[0], g.terms[0]
    exponents = dict(lead_f.factors)
    for v, e in lead_g.factors:
        exponents[v] = max(exponents.get(v, 0), e)
    lcm = Monomial(exponents)
    return (Poly({_quotient(lcm, lead_f): 1 / c_f}) * f
            - Poly({_quotient(lcm, lead_g): 1 / c_g}) * g)


class TestBuchberger:
    def test_principal_ideal_normalizes(self):
        gb = buchberger(ideal_of([2 * x], 1))
        assert gb.elements == (x,)

    def test_fermat_cubic_jacobian(self):
        gb = buchberger(ideal_of([3 * x**2, 3 * y**2], 2))
        assert gb.elements == (x**2, y**2)

    def test_linear_pair(self):
        gb = buchberger(ideal_of([x + y, x - y], 2))
        assert gb.elements == (x, y)

    def test_idempotent(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3 + w^3")))
        again = buchberger(ideal_of(gb.elements, gb.d))
        assert again == gb

    def test_all_s_polynomials_reduce_to_zero(self):
        gb = buchberger(jacobian_ideal(build("x^4 + y^4")))
        elements = gb.elements
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                assert not _normal_form(_s_polynomial(elements[i], elements[j]), elements)

    def test_nontrivial_pair_processing(self):
        # x^2 y - 1 and x y^2 - 1 need genuine S-polynomial work
        f = x**2 * y - Poly.constant(1)
        g = x * y**2 - Poly.constant(1)
        gb = buchberger(ideal_of([f, g], 2))
        for p in (f, g):
            assert not _normal_form(p, gb.elements)
        lead = {e.terms[0][0] for e in gb.elements}
        assert mono((1, 1)) in lead or mono((2, 1)) in lead  # x - y reduces one of them


def _divides(a: Monomial, b: Monomial) -> bool:
    exponents = dict(b.factors)
    return all(exponents.get(v, 0) >= e for v, e in a.factors)


class TestNormalForm:
    def test_reduction_is_idempotent(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3")))
        probe = x**4 + x * y**2 + y + Poly.constant(5)
        once = _normal_form(probe, gb.elements)
        assert _normal_form(once, gb.elements) == once

    def test_remainder_has_no_reducible_monomial(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3")))
        remainder = _normal_form(x**5 + y**5 + x**2 * y**2, gb.elements)
        heads = [g.terms[0][0] for g in gb.elements]
        for m, _ in remainder.terms:
            assert not any(_divides(h, m) for h in heads)


def loop_var(coord: int, cdeg: int) -> Poly:
    return Poly.variable(LoopVar(coord, cdeg))


def _kernel_terms(p: LoopPoly, variables) -> tuple:
    """p's primitive integer multiple as exponent vectors over `variables`."""
    return grobner._integer_terms({
        tuple(dict(m.factors).get(v, 0) for v in variables): c for m, c in p.terms
    })


def _kernel_normal_form(p: LoopPoly, divisors) -> LoopPoly:
    """p's remainder by the packed integer kernel, each variable of p and the
    divisors one coordinate, ascending; the integer multiples undone."""
    variables = LoopPoly.variables(sum(divisors, Poly.of(p)))
    terms = _kernel_terms(p, variables)
    remainder, multiplier = grobner._reduce(
        grobner._packed_terms(terms),
        grobner._Divisors(grobner._packed_terms(_kernel_terms(g, variables)) for g in divisors),
        grobner._Run(len(variables)),
    )
    return grobner._from_terms(
        grobner._unpacked_terms(remainder, len(variables)),
        variables,
        p.terms[0][1] / (multiplier * terms[0][1]),
    )


def _kernel_s_polynomial(f: LoopPoly, g: LoopPoly) -> LoopPoly:
    """The S-polynomial by the packed integer kernel, its scale undone."""
    variables = LoopPoly.variables(Poly.of(f) + g)
    f_terms, g_terms = _kernel_terms(f, variables), _kernel_terms(g, variables)
    c_f, c_g = f_terms[0][1], g_terms[0][1]
    s_terms = grobner._s_terms(
        grobner._packed_terms(f_terms), grobner._packed_terms(g_terms),
        grobner._packed(tuple(map(max, f_terms[0][0], g_terms[0][0]))),
    )
    return grobner._from_terms(
        grobner._unpacked_terms(s_terms, len(variables)),
        variables,
        Fraction(math.gcd(c_f, c_g), c_f * c_g),
    )


class TestLoopVariables:
    """Division and S-polynomials over variables of nonzero conformal degree.

    The packed kernel runs on them as on coordinates, one exponent position
    per variable.  The expected strings were computed with the LoopPoly-based
    division this module used before it ran on exponent vectors; the Poly
    reference division agrees with each.
    """

    a, b, c, e, t = (loop_var(1, -1), loop_var(2, 1), loop_var(1, 0), loop_var(2, -2), loop_var(1, 1))
    p = a**2 * b + 3 * c * b - t**2 + Fraction(1, 2) * e + a * e**2
    f = a * b - t
    g = b**2 + 2 * c * e
    h = e**2 - Fraction(1, 3) * a

    def test_normal_form(self):
        expected = "-z1_1^2 + 3*z1_0*z2_1 + z1_-1*z1_1 + 1/3*z1_-1^2 + 1/2*z2_-2"
        divisors = [self.f, self.g, self.h]
        assert str(_kernel_normal_form(self.p, divisors)) == expected
        assert str(_normal_form(self.p, divisors)) == expected

    def test_normal_form_of_a_square_in_another_divisor_order(self):
        expected = (
            "-2*z2_-2*z1_-1^4*z1_0 - 12*z2_-2*z1_-1^2*z1_0^2 + z1_1^4 - 6*z1_0*z1_1^2*z2_1"
            " - 2*z1_-1*z1_1^3 - 2/3*z1_-1^2*z1_1^2 + 2/3*z1_-1^3*z1_1 + 1/9*z1_-1^4"
            " - 18*z2_-2*z1_0^3 + 2*z1_-1*z1_0*z1_1 - z2_-2*z1_1^2 + 3*z2_-2*z1_0*z2_1"
            " + z2_-2*z1_-1*z1_1 + 1/3*z2_-2*z1_-1^2 + 1/12*z1_-1"
        )
        divisors = [self.h, self.g, self.f]
        assert str(_kernel_normal_form(self.p**2, divisors)) == expected
        assert str(_normal_form(self.p**2, divisors)) == expected

    @pytest.mark.parametrize(
        "pair, expected",
        [
            ("fg", "-2*z2_-2*z1_-1*z1_0 - z1_1*z2_1"),
            ("gh", "2*z2_-2^3*z1_0 + 1/3*z1_-1*z2_1^2"),
            ("fh", "1/3*z1_-1^2*z2_1 - z2_-2^2*z1_1"),
        ],
    )
    def test_s_polynomial(self, pair, expected):
        left, right = (getattr(self, name) for name in pair)
        assert str(_kernel_s_polynomial(left, right)) == expected
        assert _kernel_s_polynomial(right, left) == -Poly.of(_kernel_s_polynomial(left, right))
        assert str(_s_polynomial(left, right)) == expected

    def test_zero_divisors_are_skipped(self):
        # _Divisors keeps no triple for an element with no terms.
        assert _kernel_normal_form(self.p, [LoopPoly(), self.f]) == _kernel_normal_form(
            self.p, [self.f]
        )


def _monomial_standard_monomials(gb: GroebnerBasis) -> list[Monomial] | None:
    """Reference: the Monomial-based enumeration grobner ran before it counted
    on exponent vectors; None when the standard monomials are infinite."""
    heads = [g.terms[0][0] for g in gb.elements]
    if any(not head.factors for head in heads):
        return []
    exponents: list[int | None] = [None] * gb.d
    for head in heads:
        if len(head.factors) == 1:
            var, exp = head.factors[0]
            current = exponents[var.coord - 1]
            if current is None or exp < current:
                exponents[var.coord - 1] = exp
    if any(e is None for e in exponents):
        return None
    out = []
    for combo in itertools.product(*(range(k) for k in exponents)):
        m = Monomial(tuple((LoopVar(i + 1, 0), e) for i, e in enumerate(combo) if e))
        if not any(_divides(h, m) for h in heads):
            out.append(m)
    out.sort()
    return out


@st.composite
def _monomial_and_binomial_ideals(draw) -> Ideal:
    """Ideals on 1-3 variables whose generators have one or two terms of degree <= 3."""
    d = draw(st.integers(1, 3))
    generators = draw(
        st.lists(_polys(d, max_degree=3, max_terms=2), min_size=1, max_size=4)
    )
    return ideal_of(generators, d)


@st.composite
def _boxes_and_leads(draw) -> tuple[list[int], list[tuple[int, ...]]]:
    """A box in 1-4 coordinates, and its pure powers plus up to six other
    exponent vectors (the zero vector among the possible ones)."""
    d = draw(st.integers(1, 4))
    box = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    leads = [tuple(side if i == j else 0 for j in range(d)) for i, side in enumerate(box)]
    return box, leads + draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=6))


def _count_and_top(gb: GroebnerBasis) -> tuple[int, int]:
    """The staircase's count and top, as the Milnor count reads them off the leads."""
    leads = [g[0][0] for g in gb.terms]
    return grobner._staircase(leads, grobner._box(leads, gb.d))


class TestStandardMonomials:
    def test_principal(self):
        gb = buchberger(ideal_of([x], 1))
        assert _monomial_standard_monomials(gb) == [Monomial()]
        assert _count_and_top(gb) == (1, 0)

    def test_fermat_cubic(self):
        gb = buchberger(ideal_of([x**2, y**2], 2))
        assert _monomial_standard_monomials(gb) == [
            Monomial(),
            mono((1, 1)),
            mono((2, 1)),
            mono((1, 1), (2, 1)),
        ]
        assert _count_and_top(gb) == (4, 2)

    def test_infinite_when_a_variable_is_free(self):
        gb = buchberger(ideal_of([x], 2))
        with pytest.raises(NotIsolated):
            _count_and_top(gb)

    def test_unit_ideal_has_empty_quotient(self):
        gb = buchberger(ideal_of([Poly.constant(2), x], 1))
        assert grobner._staircase([g[0][0] for g in gb.terms], [1]) == (0, -1)

    @settings(deadline=None, max_examples=200)
    @given(_monomial_and_binomial_ideals())
    @example(ideal_of([x], 2))
    @example(ideal_of([x * y - y**2, y], 3))
    @example(ideal_of([x**2, y**3, x * y], 2))
    @example(ideal_of([x**2 - y * w, y**2, w**3, x * y * w], 3))
    def test_staircase_count_matches_the_enumeration(self, ideal):
        gb = buchberger(ideal)
        leads = [g[0][0] for g in gb.terms]
        assume(all(map(any, leads)))  # the unit ideal has no box
        expected = _monomial_standard_monomials(gb)
        if expected is None:
            with pytest.raises(NotIsolated):
                grobner._box(leads, gb.d)
        else:
            assert grobner._staircase(leads, grobner._box(leads, gb.d))[0] == len(expected)

    @settings(deadline=None, max_examples=200)
    @given(_boxes_and_leads())
    def test_staircase_count_of_any_leads(self, box_and_leads):
        box, leads = box_and_leads
        expected = sum(
            not any(all(map(le, lead, e)) for lead in leads)
            for e in itertools.product(*map(range, box))
        )
        assert grobner._staircase(leads, box)[0] == expected

    @settings(deadline=None, max_examples=200)
    @given(_monomial_and_binomial_ideals())
    @example(ideal_of([x], 2))
    @example(ideal_of([x + Poly.constant(1), x], 1))
    @example(ideal_of([x**2, y**3, x * y], 2))
    @example(ideal_of([x**2 - y * w, y**2, w**3, x * y * w], 3))
    def test_staircase_top_matches_the_enumeration(self, ideal):
        gb = buchberger(ideal)
        leads = [g[0][0] for g in gb.terms]
        standard = _monomial_standard_monomials(gb)
        if standard is None:
            expected = None  # infinitely many standard monomials: no top
        else:
            expected = max((m.key[0] for m in standard), default=-1)  # -1 for the unit ideal
        assert _staircase_top(leads, gb.d) == expected

    @settings(deadline=None, max_examples=200)
    @given(_boxes_and_leads())
    def test_slab_top_of_any_leads(self, box_and_leads):
        box, leads = box_and_leads
        expected = max(
            (
                sum(e)
                for e in itertools.product(*map(range, box))
                if not any(all(map(le, lead, e)) for lead in leads)
            ),
            default=-1,
        )
        assert grobner._staircase(leads, box)[1] == expected
        # Buchberger's degree cut reads the leads of a basis not yet reduced,
        # where a pure power may repeat and the box takes the last of them.
        assert _staircase_top(leads, len(box)) == expected


class TestMilnorNumber:
    def test_quadric(self):
        assert milnor_number(build("z^2")) == 1
        assert milnor_number_oracle(build("z^2")) == 1

    def test_fermat_cubic(self):
        assert milnor_number(build("x^3 + y^3")) == 4
        assert milnor_number_oracle(build("x^3 + y^3")) == 4

    def test_space_quadric(self):
        assert milnor_number_oracle(build("x^2 + y^2 + w^2")) == 1

    def test_corpus_values(self, corpus_entry, corpus_function):
        assert milnor_number(corpus_function) == corpus_entry.mu
        assert milnor_number_oracle(corpus_function) == corpus_entry.mu

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_fermat_family(self, d, delta):
        func = build(fermat_source(d, delta))
        expected = (delta - 1) ** d
        assert milnor_number(func) == expected
        assert milnor_number_oracle(func) == expected

    @pytest.mark.parametrize("source", NON_ISOLATED_SOURCES)
    def test_non_isolated_raises(self, source):
        func = build(source)
        with pytest.raises(NotIsolated):
            milnor_number(func)
        with pytest.raises(NotIsolated):
            milnor_number_oracle(func)

    def test_mixed_cubic_is_isolated(self):
        # x^3 + x*y^2 has Jacobian (3x^2 + y^2, 2xy): only common zero is 0
        assert milnor_number(build("x^3 + x*y^2")) == 4


_FORM_NAMES = ("x", "y", "w", "v")


def _dense_rank(rows: list[list[Fraction]]) -> int:
    """Reference rank: Gaussian elimination on dense Fraction rows."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _gl_fermat_source(d: int, delta: int, seed: int) -> str:
    """The Fermat form of degree delta composed with a seeded invertible integer matrix."""
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if _dense_rank([[Fraction(x) for x in row] for row in matrix]) == d:
            break
    forms = (
        " + ".join(f"({a})*{name}" for a, name in zip(row, _FORM_NAMES) if a)
        for row in matrix
    )
    return " + ".join(f"({form})^{delta}" for form in forms)


# Reduced bases computed with the LoopPoly-based Buchberger this module used
# before it ran on exponent vectors; the two dense GL transforms, where the
# integer coefficients grow most, with the Fraction kernel that came before
# the integer one.
PINNED_BASES = {
    "(x + 2*y)^4 + (3*x - y)^4": [
        "z1_0*z2_0^2 - 5/2*z1_0^2*z2_0 + 31/12*z1_0^3",
        "z2_0^3 + 9/2*z1_0^2*z2_0 - 15/4*z1_0^3",
        "z1_0^3*z2_0 - 5/4*z1_0^4",
        "z_0^5",
    ],
    "(x + y - w)^3 + (2*x - y)^3 + (x + 3*w)^3": [
        "z2_0^2 - 4*z1_0*z2_0 + 4*z1_0^2",
        "z2_0*z3_0 + 4/3*z1_0*z3_0 - 3*z1_0*z2_0 + 14/9*z1_0^2",
        "z3_0^2 + 2/3*z1_0*z3_0 + 1/9*z1_0^2",
        "z1_0^2*z2_0 - 8/9*z1_0^3",
        "z1_0^2*z3_0 - 7/9*z1_0^3",
        "z_0^4",
    ],
    "x^3 + y^3 + w^3 + x*y*w": [
        "z2_0^2 + 1/3*z1_0*z3_0",
        "z2_0*z3_0 + 3*z1_0^2",
        "z3_0^2 + 1/3*z1_0*z2_0",
        "z1_0^2*z2_0",
        "z1_0^2*z3_0",
        "z_0^4",
    ],
    "1/2*x^3 + 3/7*y^3 + x*y^2": [
        "z1_0*z2_0 - 27/28*z1_0^2",
        "z2_0^2 + 3/2*z1_0^2",
        "z_0^3",
    ],
    _gl_fermat_source(3, 5, 2): [
        (
            "z1_0*z3_0^3 - 3*z1_0*z2_0*z3_0^2 + 3*z1_0*z2_0^2*z3_0 - z1_0*z2_0^3 + 3/4*z1_0^2*z3_0^2"
            " - 3/2*z1_0^2*z2_0*z3_0 + 3/4*z1_0^2*z2_0^2 + 7/4*z1_0^3*z3_0 - 7/4*z1_0^3*z2_0"
            " + 13/32*z1_0^4"
        ),
        (
            "z2_0*z3_0^3 + 3*z2_0^2*z3_0^2 + 7*z2_0^3*z3_0 + 5*z2_0^4 + 9*z1_0*z2_0*z3_0^2"
            " + 18*z1_0*z2_0^2*z3_0 + 21*z1_0*z2_0^3 + 9/4*z1_0^2*z3_0^2 + 45/2*z1_0^2*z2_0*z3_0"
            " + 117/4*z1_0^2*z2_0^2 + 21/4*z1_0^3*z3_0 + 87/4*z1_0^3*z2_0 + 147/32*z1_0^4"
        ),
        (
            "z3_0^4 + 18*z2_0^2*z3_0^2 + 24*z2_0^3*z3_0 + 21*z2_0^4 + 36*z1_0*z2_0*z3_0^2"
            " + 72*z1_0*z2_0^2*z3_0 + 84*z1_0*z2_0^3 + 18*z1_0^2*z3_0^2 + 72*z1_0^2*z2_0*z3_0"
            " + 126*z1_0^2*z2_0^2 + 24*z1_0^3*z3_0 + 84*z1_0^3*z2_0 + 21*z1_0^4"
        ),
        (
            "z1_0^3*z3_0^2 - 2*z1_0^3*z2_0*z3_0 + z1_0^3*z2_0^2 + 1/2*z1_0^4*z3_0 - 1/2*z1_0^4*z2_0"
            " + 3/8*z1_0^5"
        ),
        (
            "z1_0*z2_0^2*z3_0^2 + 2/3*z1_0*z2_0^3*z3_0 + z1_0*z2_0^4 + 11/8*z1_0^2*z2_0*z3_0^2"
            " + 13/4*z1_0^2*z2_0^2*z3_0 + 27/8*z1_0^2*z2_0^3 + 101/24*z1_0^3*z2_0*z3_0"
            " + 115/24*z1_0^3*z2_0^2 + 11/16*z1_0^4*z3_0 + 719/192*z1_0^4*z2_0 + 5/8*z1_0^5"
        ),
        (
            "z2_0^3*z3_0^2 + 2*z2_0^4*z3_0 + 9/5*z2_0^5 + 6*z1_0*z2_0^3*z3_0 + 6*z1_0*z2_0^4"
            " - 9/8*z1_0^2*z2_0*z3_0^2 + 9/4*z1_0^2*z2_0^2*z3_0 + 63/8*z1_0^2*z2_0^3"
            " - 21/8*z1_0^3*z2_0*z3_0 + 21/8*z1_0^3*z2_0^2 - 9/16*z1_0^4*z3_0 - 111/64*z1_0^4*z2_0"
            " - 9/20*z1_0^5"
        ),
        "z1_0^5*z3_0 - z1_0^5*z2_0 + 1/4*z1_0^6",
        (
            "z1_0*z2_0^4*z3_0 + 3/5*z1_0*z2_0^5 + 11/4*z1_0^2*z2_0^3*z3_0 + 3*z1_0^2*z2_0^4"
            " + 97/32*z1_0^3*z2_0^2*z3_0 + 167/32*z1_0^3*z2_0^3 + 803/512*z1_0^4*z2_0*z3_0"
            " + 2247/512*z1_0^4*z2_0^2 + 277/128*z1_0^5*z2_0 + 2409/10240*z1_0^6"
        ),
        (
            "z2_0^5*z3_0 + z2_0^6 + 3*z1_0*z2_0^5 - 15/4*z1_0^2*z2_0^3*z3_0"
            " - 165/32*z1_0^3*z2_0^2*z3_0 - 195/32*z1_0^3*z2_0^3 - 1455/512*z1_0^4*z2_0*z3_0"
            " - 3555/512*z1_0^4*z2_0^2 - 489/128*z1_0^5*z2_0 - 873/2048*z1_0^6"
        ),
        "z_0^7",
        (
            "z1_0^3*z2_0^3*z3_0 + 33/16*z1_0^4*z2_0^2*z3_0 + 15/16*z1_0^4*z2_0^3"
            " + 207/64*z1_0^5*z2_0^2 + 583/512*z1_0^6*z2_0"
        ),
        (
            "z1_0*z2_0^6 + 33/8*z1_0^2*z2_0^5 + 485/64*z1_0^3*z2_0^4 + 4015/512*z1_0^4*z2_0^3"
            " + 19515/4096*z1_0^5*z2_0^2 + 52283/32768*z1_0^6*z2_0"
        ),
        (
            "z2_0^7 - 63/8*z1_0^2*z2_0^5 - 1155/64*z1_0^3*z2_0^4 - 10185/512*z1_0^4*z2_0^3"
            " - 50589/4096*z1_0^5*z2_0^2 - 136605/32768*z1_0^6*z2_0"
        ),
        "z1_0^3*z2_0^5 + 55/16*z1_0^4*z2_0^4 + 315/64*z1_0^5*z2_0^3 + 935/256*z1_0^6*z2_0^2",
        "z1_0^5*z2_0^4 + 11/4*z1_0^6*z2_0^3",
    ],
    _gl_fermat_source(4, 3, 2): [
        (
            "z2_0*z4_0 + 121/136*z2_0*z3_0 + 11/136*z2_0^2 + 15/17*z1_0*z4_0 + 10/17*z1_0*z3_0"
            " - 1/136*z1_0*z2_0"
        ),
        (
            "z3_0^2 - 3/34*z2_0*z3_0 + 9/34*z2_0^2 + 12/17*z1_0*z4_0 - 26/17*z1_0*z3_0"
            " + 27/34*z1_0*z2_0 + z1_0^2"
        ),
        (
            "z3_0*z4_0 + 7/17*z2_0*z3_0 + 9/34*z2_0^2 - 5/17*z1_0*z4_0 + 8/17*z1_0*z3_0"
            " + 5/17*z1_0*z2_0"
        ),
        (
            "z4_0^2 - 65/68*z2_0*z3_0 + 25/68*z2_0^2 - 6/17*z1_0*z4_0 - 4/17*z1_0*z3_0"
            " + 41/68*z1_0*z2_0"
        ),
        (
            "z1_0*z2_0^2 + 544/405*z1_0^2*z4_0 + 484/405*z1_0^2*z3_0 + 896/405*z1_0^2*z2_0"
            " + 452/1215*z1_0^3"
        ),
        (
            "z1_0*z2_0*z3_0 + 8/135*z1_0^2*z4_0 + 172/135*z1_0^2*z3_0 - 47/135*z1_0^2*z2_0"
            " - 76/135*z1_0^3"
        ),
        "z2_0^3 - 32/9*z1_0^2*z4_0 - 64/27*z1_0^2*z3_0 - 32/9*z1_0^2*z2_0 - 64/81*z1_0^3",
        (
            "z2_0^2*z3_0 - 224/405*z1_0^2*z4_0 - 28/405*z1_0^2*z3_0 + 128/405*z1_0^2*z2_0"
            " - 4/81*z1_0^3"
        ),
        "z1_0^3*z2_0 + 142/135*z1_0^4",
        "z1_0^3*z3_0 - 31/45*z1_0^4",
        "z1_0^3*z4_0 - 7/27*z1_0^4",
        "z_0^5",
    ],
}


class TestBeyondFermat:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("delta", [3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_gl_invariance(self, d, delta, seed):
        func = build(_gl_fermat_source(d, delta, seed))
        assert func.d == d and func.delta == delta
        expected = (delta - 1) ** d
        assert milnor_number(func) == milnor_number_oracle(func) == expected

    def test_singular_hesse_cubic_is_not_isolated(self):
        func = build("x^3 + y^3 + w^3 - 3*x*y*w")
        with pytest.raises(NotIsolated):
            milnor_number(func)
        with pytest.raises(NotIsolated):
            milnor_number_oracle(func)

    @pytest.mark.parametrize("t", [1, 6])
    def test_smooth_hesse_cubics(self, t):
        func = build(f"x^3 + y^3 + w^3 + {t}*x*y*w")
        assert milnor_number(func) == milnor_number_oracle(func) == 8

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_pinned_reduced_basis(self, source):
        gb = buchberger(jacobian_ideal(build(source)))
        assert [str(g) for g in gb.elements] == PINNED_BASES[source]

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_staircase_count_of_a_dense_basis(self, source):
        gb = buchberger(jacobian_ideal(build(source)))
        leads = [g[0][0] for g in gb.terms]
        assert grobner._staircase(leads, grobner._box(leads, gb.d))[0] == len(
            _monomial_standard_monomials(gb)
        )


_entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


@st.composite
def _rational_matrices(draw) -> list[list[Fraction]]:
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=width, max_size=width), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        rows.append(list(row) if draw(st.booleans()) else [draw(_entries) * x for x in row])
    rows += [[Fraction(0)] * width for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows))


class TestRank:
    @settings(deadline=None)
    @given(_rational_matrices())
    def test_matches_dense_gaussian_elimination(self, rows):
        expected = _dense_rank(rows)
        assert grobner._rank([{c: x for c, x in enumerate(row) if x} for row in rows]) == expected
        assert grobner._rank([dict(enumerate(row)) for row in rows]) == expected

    def test_empty_matrix(self):
        assert grobner._rank([]) == 0
        assert grobner._rank([{}, {}]) == 0

    def test_rational_entries_stay_exact(self):
        # The second matrix differs from a rank-1 one by 10^-30, far below
        # double precision.
        rows = [{0: Fraction(1, 3), 1: Fraction(1, 6)}, {0: Fraction(2, 3), 1: Fraction(1, 3)}]
        assert grobner._rank(rows) == 1
        rows[1][1] = Fraction(1, 3) + Fraction(1, 10**30)
        assert grobner._rank(rows) == 2


def _exact_hilbert_function(func) -> list[int]:
    """The Hilbert function of the Jacobian ring in degrees 0 .. d*(delta-2)+1,
    each the corank of that degree's (monomial * partial) matrix, by the exact
    `_rank` on lexicographic columns."""
    d, delta = func.d, func.delta
    gens = jacobian_ideal(func).terms
    out = []
    for degree in range(d * (delta - 2) + 2):
        basis = grobner._monomial_exponents(d, degree)
        index = {e: i for i, e in enumerate(basis)}
        shifts = grobner._monomial_exponents(d, degree - delta + 1)
        rows = [{index[tuple(map(add, e, s))]: c for e, c in g} for g in gens for s in shifts]
        out.append(len(basis) - grobner._rank(rows))
    return out


def _fermat_form(d: int, delta: int) -> str:
    return " + ".join(f"{name}^{delta}" for name in _FORM_NAMES[:d])


# A GL transform of the Fermat form with d = 4 and delta = 4, every matrix entry nonzero.
_DENSE_4_4 = (
    "(x + 2*y - w + v)^4 + (3*x - y + w - 2*v)^4 + (x + y + 2*w + 3*v)^4 + (2*x - y - 3*w + v)^4"
)


@st.composite
def _dense_forms(draw) -> str:
    """A GL transform of the Fermat form, or one of two non-isolated shapes
    made of the same dense linear forms: the sum of d-1 of their powers, and
    L1^(delta-1)*L2 plus the powers of the others."""
    d = draw(st.integers(2, 3))
    delta = draw(st.integers(3, 4))
    entries = st.sampled_from((-3, -2, -1, 1, 2, 3))
    matrix = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    forms = [" + ".join(f"({a})*{n}" for a, n in zip(row, _FORM_NAMES)) for row in matrix]
    shape = draw(st.sampled_from(("gl", "fewer", "product")))
    if shape == "gl":
        assume(_dense_rank([[Fraction(a) for a in row] for row in matrix]) == d)
        return " + ".join(f"({form})^{delta}" for form in forms)
    if shape == "fewer":
        return " + ".join(f"({form})^{delta}" for form in forms[:-1])
    return " + ".join(
        [f"({forms[0]})^{delta - 1}*({forms[1]})"] + [f"({form})^{delta}" for form in forms[2:]]
    )


def _rank_refused(rows):
    raise AssertionError("the exact rank ran")


def _complete_intersection_hilbert(d: int, delta: int) -> list[int]:
    """HF_CI(k) for k = 0 .. d*(delta-2)+1: the coefficients of
    (1 + t + ... + t^(delta-2))^d, then the 0 one past the top degree.

    It is the Hilbert function of the quotient by d forms of degree delta-1
    that form a regular sequence (Froeberg 1985; Eisenbud, Commutative
    Algebra, section 17).
    """
    series = [1]
    for _ in range(d):
        series = [
            sum(series[max(0, k - delta + 2) : k + 1]) for k in range(len(series) + delta - 2)
        ]
    return series + [0]


def _per_degree_oracle(func) -> int:
    """Reference: the oracle as it was before one matrix decided isolation.

    Each degree up to one past the top degree d*(delta-2) is ranked modulo the
    prime until the rank reaches the column count minus HF_CI there, with the
    exact `_rank` where it falls short; the coranks below the top are summed,
    and a nonzero corank one past the top raises NotIsolated.
    """
    d, delta = func.d, func.delta
    top = d * (delta - 2) + 1
    weights = [(top + 1) ** i for i in range(d - 1)] + [0]
    gens = [
        {sum(map(mul, e, weights)): c for e, c in gen} for gen in jacobian_ideal(func).terms
    ]
    packed = [grobner._pack(gen) for gen in gens]
    floors = _complete_intersection_hilbert(d, delta)
    total = 0
    for degree in range(top + 1):
        columns = math.comb(degree + d - 1, d - 1)
        offsets = [
            sum(map(mul, e, weights))
            for e in grobner._monomial_exponents(d, degree - delta + 1)
        ]
        target = columns - floors[degree]
        rows = (g << (grobner._SLOT * o) for g in packed for o in offsets)
        rank = grobner._rank_mod_p(rows, target)
        if rank < target:
            rank = grobner._rank(
                {col + o: c for col, c in g.items()} for g in gens for o in offsets
            )
        if degree == top:
            if columns > rank:
                raise NotIsolated("positive-dimensional singular locus")
        else:
            total += columns - rank
    return total


def _oracle_outcome(oracle, func) -> int | str:
    try:
        return oracle(func)
    except NotIsolated:
        return "not isolated"


def _agrees_with_the_reference(func) -> int | str:
    """The oracle's outcome, after asserting that the reference's is the same."""
    outcome = _oracle_outcome(milnor_number_oracle, func)
    assert outcome == _oracle_outcome(_per_degree_oracle, func)
    return outcome


# A d = 4 form with a line of singular points: three cubes of dense linear
# forms vanish to second order on their common kernel.
_DENSE_4_3_NOT_ISOLATED = (
    "(x + 2*y - w + v)^3 + (3*x - y + w - 2*v)^3 + (x + y + 2*w + 3*v)^3"
)


class TestModularOracle:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 6])
    def test_complete_intersection_bound_is_the_fermat_hilbert_function(self, d, delta):
        floors = _complete_intersection_hilbert(d, delta)
        assert floors == _exact_hilbert_function(build(_fermat_form(d, delta)))
        top = d * (delta - 2) + 1
        assert len(floors) == top + 1 and floors[top] == 0
        assert sum(floors) == (delta - 1) ** d

    @settings(deadline=None, max_examples=40)
    @given(_dense_forms())
    @example("(x + 2*y - w)^4 + (3*x - y + w)^4")
    @example("x^3 + y^3 + w^3 - 3*x*y*w")
    def test_matches_the_exact_route(self, source):
        try:
            func = build(source)
        except (ParseError, DegreeTooLow):  # the powers cancel a variable, or all of them, away
            assume(False)
        hf = _exact_hilbert_function(func)
        top = len(hf) - 1
        if hf[top]:
            with pytest.raises(NotIsolated):
                milnor_number_oracle(func)
        else:
            assert milnor_number_oracle(func) == sum(hf[:top])

    def test_unlucky_prime_falls_back_to_the_exact_rank(self, monkeypatch):
        # Modulo 7 the cubic is the singular Hesse cubic: t^3 = -27 at t = 1.
        func = build("x^3 + y^3 + w^3 + x*y*w")
        rank, calls = grobner._rank, []

        def counted(rows):
            calls.append(rows)
            return rank(rows)

        monkeypatch.setattr(grobner, "_rank", counted)
        assert milnor_number_oracle(func) == 8
        assert calls == []
        monkeypatch.setattr(grobner, "_PRIME", 7)
        assert milnor_number_oracle(func) == 8
        assert calls

    @pytest.mark.parametrize(
        "source", [entry.source for entry in CORPUS] + [_gl_fermat_source(3, 5, 2), _DENSE_4_4]
    )
    def test_isolated_inputs_need_no_exact_rank(self, monkeypatch, source):
        func = build(source)
        monkeypatch.setattr(grobner, "_rank", _rank_refused)
        assert milnor_number_oracle(func) == (func.delta - 1) ** func.d

    @pytest.mark.parametrize(
        "source",
        [entry.source for entry in CORPUS]
        + list(NON_ISOLATED_SOURCES)
        + ["x^3 + y^3 + w^3 - 3*x*y*w", _DENSE_4_4],
    )
    def test_matches_the_per_degree_reference(self, source):
        _agrees_with_the_reference(build(source))

    def test_matches_the_per_degree_reference_on_the_benchmark(self):
        for case in bench_module("workloads").generate("jacobian", 1, 20.0):
            expected = case.mu if case.isolated else "not isolated"
            assert _agrees_with_the_reference(build(case.source)) == expected, case.source

    @settings(deadline=None, max_examples=40)
    @given(_dense_forms())
    def test_matches_the_per_degree_reference_on_dense_forms(self, source):
        try:
            func = build(source)
        except (ParseError, DegreeTooLow):  # the powers cancel a variable, or all of them, away
            assume(False)
        _agrees_with_the_reference(func)

    @pytest.mark.parametrize(
        "source, expected",
        [
            (_gl_fermat_source(3, 6, 1), 125),
            (_gl_fermat_source(4, 3, 1), 16),
            (_gl_fermat_source(4, 3, 2), 16),
            (_DENSE_4_4, 81),
            (_DENSE_4_3_NOT_ISOLATED, "not isolated"),
        ],
    )
    def test_shapes_the_command_line_does_not_run(self, source, expected):
        # The milnor check runs the oracle for d <= 3 and delta <= 5 only.
        func = build(source)
        assert (func.d, func.delta) in ((3, 6), (4, 3), (4, 4))
        assert _oracle_outcome(milnor_number, func) == expected
        assert _agrees_with_the_reference(func) == expected

    @pytest.mark.parametrize("prime", [grobner._PRIME, 7])
    def test_ranks_one_matrix(self, monkeypatch, prime):
        calls = {"mod p": 0, "exact": 0}

        def counted(name, rank):
            def call(*args):
                calls[name] += 1
                return rank(*args)

            return call

        monkeypatch.setattr(grobner, "_rank_mod_p", counted("mod p", grobner._rank_mod_p))
        monkeypatch.setattr(grobner, "_rank", counted("exact", grobner._rank))
        monkeypatch.setattr(grobner, "_PRIME", prime)
        sources = [entry.source for entry in CORPUS] + list(NON_ISOLATED_SOURCES) + [
            "x^3 + y^3 + w^3 + x*y*w", _DENSE_4_4, _DENSE_4_3_NOT_ISOLATED,
        ]
        for source in sources:
            calls.update({"mod p": 0, "exact": 0})
            _oracle_outcome(milnor_number_oracle, build(source))
            assert calls["mod p"] == 1 and calls["exact"] <= 1, source

    def test_benchmark_inputs_need_no_exact_rank(self, monkeypatch):
        cases = [case for case in bench_module("workloads").generate("jacobian", 1, 20.0)
                 if case.isolated]
        assert len(cases) > 50
        monkeypatch.setattr(grobner, "_rank", _rank_refused)
        for case in cases:
            assert milnor_number_oracle(build(case.source)) == case.mu, case.source



def _fraction_terms(p: LoopPoly, variables) -> list:
    """p as (exponent vector, Fraction) terms over the ascending `variables`."""
    position = {v: i for i, v in enumerate(variables)}
    out = []
    for m, c in p.terms:
        e = [0] * len(variables)
        for v, k in m.factors:
            e[position[v]] = k
        out.append((tuple(e), c))
    return out


def _fraction_reduce(terms, divisors) -> list:
    """Reference division: the Fraction kernel that grobner ran before its integer one."""
    pending = {}
    for e, c in terms:
        pending[e] = pending.get(e, 0) + c
    heap = [(-sum(e), e) for e in pending]
    heapify(heap)
    heads = [(g[0][0], g[0][1], g[1:]) for g in divisors if g]
    remainder = []
    while heap:
        e = heappop(heap)[1]
        c = pending.pop(e)
        if not c:
            continue
        for lead, lead_c, tail in heads:
            if all(map(le, lead, e)):
                shift = tuple(map(sub, e, lead))
                factor = c / lead_c
                for t, tc in tail:
                    m = tuple(map(add, t, shift))
                    old = pending.get(m)
                    if old is None:
                        pending[m] = -factor * tc
                        heappush(heap, (-sum(m), m))
                    else:
                        pending[m] = old - factor * tc
                break
        else:
            remainder.append((e, c))
    return remainder


def _fraction_s_terms(f, g):
    """Reference S-polynomial f/c_f*x^(l-l_f) - g/c_g*x^(l-l_g), without the cancelled leads."""
    (lead_f, c_f), (lead_g, c_g) = f[0], g[0]
    lcm = tuple(map(max, lead_f, lead_g))
    shift_f, shift_g = tuple(map(sub, lcm, lead_f)), tuple(map(sub, lcm, lead_g))
    inv_f, inv_g = 1 / c_f, -1 / c_g
    for e, c in f[1:]:
        yield tuple(map(add, e, shift_f)), c * inv_f
    for e, c in g[1:]:
        yield tuple(map(add, e, shift_g)), c * inv_g


_ring = [LoopVar(coord, 0) for coord in (1, 2, 3)]
_coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))


@st.composite
def _polys(draw, d: int, max_degree: int = 3, min_terms: int = 1, max_terms: int = 4) -> LoopPoly:
    exponents = st.tuples(*[st.integers(0, max_degree)] * d)
    terms = draw(st.dictionaries(exponents, _coefficients, min_size=min_terms, max_size=max_terms))
    return LoopPoly((Monomial(zip(_ring, e)), c) for e, c in terms.items())


@st.composite
def _divisions(draw) -> tuple[int, LoopPoly, list[LoopPoly]]:
    d = draw(st.integers(1, 3))
    p = draw(_polys(d, max_degree=4, min_terms=0, max_terms=6))
    divisors = st.one_of(st.just(LoopPoly()), _polys(d, max_degree=2, max_terms=3))
    return d, p, draw(st.lists(divisors, max_size=3))


class TestIntegerKernel:
    """The integer kernel against the Fraction kernel it replaced, on rational inputs."""

    @settings(deadline=None, max_examples=300)
    @given(_divisions())
    # y^2 goes to the remainder before x*y is cancelled against the lead 2*x*y.
    @example((2, y**2 + x * y + x, [2 * x * y + y]))
    def test_reduce_matches_the_fraction_kernel(self, division):
        # The remainder is the rational one times the returned multiplier,
        # the dividend's integer multiple undone.
        d, p, divisors = division
        terms = exponent_terms(p, d)
        expected = _fraction_reduce(
            terms.items(), [list(exponent_terms(g, d).items()) for g in divisors]
        )
        scale = math.lcm(*(c.denominator for c in terms.values()))
        remainder, multiplier = grobner._reduce(
            [(grobner._packed(e), c.numerator * (scale // c.denominator)) for e, c in terms.items()],
            grobner._Divisors(
                grobner._packed_terms(grobner._integer_terms(exponent_terms(g, d)))
                for g in divisors
            ),
            grobner._Run(d),
        )
        assert [
            (grobner._unpacked(e, d), Fraction(c, multiplier * scale)) for e, c in remainder
        ] == expected

    @settings(deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_s_terms_match_the_fraction_kernel(self, d, data):
        # The S-polynomial times c_f*c_g/gcd(c_f, c_g), for the integer leads.
        f, g = (exponent_terms(data.draw(_polys(d)), d) for _ in range(2))
        f_ints, g_ints = grobner._integer_terms(f), grobner._integer_terms(g)
        (lead_f, c_f), (lead_g, c_g) = f_ints[0], g_ints[0]
        scale = Fraction(math.gcd(c_f, c_g), c_f * c_g)
        got, expected = {}, {}
        for e, c in grobner._s_terms(
            grobner._packed_terms(f_ints), grobner._packed_terms(g_ints),
            grobner._packed(tuple(map(max, lead_f, lead_g))),
        ):
            got[grobner._unpacked(e, d)] = got.get(grobner._unpacked(e, d), 0) + c * scale
        for e, c in _fraction_s_terms(list(f.items()), list(g.items())):
            expected[e] = expected.get(e, 0) + c
        assert {e: c for e, c in got.items() if c} == {e: c for e, c in expected.items() if c}

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 3), st.data())
    def test_basis_is_invariant_under_rescaled_generators(self, d, data):
        generators = data.draw(st.lists(_polys(d, max_degree=2), min_size=1, max_size=3))
        scales = data.draw(
            st.lists(_coefficients, min_size=len(generators), max_size=len(generators))
        )
        gb = buchberger(ideal_of(generators, d))
        assert buchberger(ideal_of([q * Poly.of(g) for q, g in zip(scales, generators)], d)) == gb

        variables = tuple(LoopVar(coord, 0) for coord in range(1, d + 1))
        elements = [_fraction_terms(g, variables) for g in gb.elements]
        for i, j in itertools.combinations(range(len(elements)), 2):
            assert not _fraction_reduce(_fraction_s_terms(elements[i], elements[j]), elements)
        for g in generators:
            assert not _fraction_reduce(_fraction_terms(g, variables), elements)


def _key(e) -> tuple:
    """Reference grevlex key of an exponent vector; its tuple order is Monomial.key order.

    At equal degree the first position whose exponents differ decides, and the
    larger exponent there ranks lower: the rule the Monomial key encodes.
    """
    return (sum(e), tuple(-x for x in e))


def _tuple_reduce(terms, divisors) -> tuple[list, int]:
    """Reference division: the integer kernel grobner ran on tuple vectors
    before it packed them, with the same steps and multiplier as `_reduce`."""
    pending = {}
    for e, c in terms:
        pending[e] = pending.get(e, 0) + c
    heap = [(-sum(e), e) for e in pending]
    heapify(heap)
    heads = [(g[0][0], g[0][1], g[1:]) for g in divisors if g]
    remainder = []
    multiplier = 1
    while heap:
        e = heappop(heap)[1]
        c = pending.pop(e)
        if not c:
            continue
        for lead, lead_c, tail in heads:
            if all(map(le, lead, e)):
                shift = tuple(map(sub, e, lead))
                common = math.gcd(c, lead_c)
                scale = lead_c // common
                if scale != 1:
                    multiplier *= scale
                    for m in pending:
                        pending[m] *= scale
                    remainder = [(r, rc * scale) for r, rc in remainder]
                factor = c // common
                for t, tc in tail:
                    m = tuple(map(add, t, shift))
                    old = pending.get(m)
                    if old is None:
                        pending[m] = -factor * tc
                        heappush(heap, (-sum(m), m))
                    else:
                        pending[m] = old - factor * tc
                break
        else:
            remainder.append((e, c))
    return remainder, multiplier


def _tuple_s_terms(f, g):
    """Reference S-polynomial on tuple vectors, scaled as `_s_terms` scales it."""
    (lead_f, c_f), (lead_g, c_g) = f[0], g[0]
    lcm = tuple(map(max, lead_f, lead_g))
    shift_f, shift_g = tuple(map(sub, lcm, lead_f)), tuple(map(sub, lcm, lead_g))
    common = math.gcd(c_f, c_g)
    scale_f, scale_g = c_g // common, -(c_f // common)
    for e, c in f[1:]:
        yield tuple(map(add, e, shift_f)), c * scale_f
    for e, c in g[1:]:
        yield tuple(map(add, e, shift_g)), c * scale_g


def _packed(polys) -> list:
    """Tuple-vector term lists with every vector packed."""
    return [grobner._packed_terms(g) for g in polys]


def _unpacked(polys, d: int) -> list:
    return [grobner._unpacked_terms(g, d) for g in polys]


def _packed_verify(elements, generators) -> None:
    """grobner's audit on tuple-vector elements and generators, packed for it."""
    d = len(generators[0][0][0])
    grobner._verify_basis(_packed(elements), _packed(generators), grobner._Run(d))


def _all_pairs_verify(elements, generators) -> None:
    """Reference audit: the one grobner ran before it pruned pairs, every S-pair reduced."""
    for i, j in itertools.combinations(range(len(elements)), 2):
        if _tuple_reduce(_tuple_s_terms(elements[i], elements[j]), elements)[0]:
            raise RuntimeError("S-polynomial does not reduce to zero")
    for g in generators:
        if _tuple_reduce(g, elements)[0]:
            raise RuntimeError("an ideal generator does not reduce to zero")


def _reference_pairs_to_reduce(basis, run):
    """Reference pair loop: the one grobner ran before it kept the staircase
    as leads arrive.  It queues every non-coprime pair, keeps `treated` as
    lists of bools, scans every lead for the chain criterion, and takes the
    degree cut from nothing (`_degree_cut`) whenever the basis has grown.
    It reads each lead as a tuple and packs each lcm from its tuple, field by
    field (`packed_vector`)."""
    d, guard = run.d, run.guard
    degree_shift = grobner._FIELD * (2 * d - 1)
    leads, packed_leads, treated, queue = [], [], [], []
    cut, cut_size = None, 0
    while True:
        for new in range(len(leads), len(basis)):
            lead = unpacked_vector(basis[new][0][0], d)
            row = []
            for k, other in enumerate(leads):
                coprime = not any(map(min, other, lead))
                treated[k].append(coprime)
                row.append(coprime)
                if not coprime:
                    heappush(queue, (packed_vector(tuple(map(max, other, lead))), k, new))
            treated.append(row + [False])
            leads.append(lead)
            packed_leads.append(basis[new][0][0])
        if not queue:
            return
        lcm, i, j = heappop(queue)
        if cut_size < len(basis):
            cut, cut_size = _degree_cut(basis, leads, d), len(basis)
        if cut is not None and lcm >> degree_shift > cut:
            return
        probe = lcm | guard
        with_i, with_j = treated[i], treated[j]
        if not any(
            with_i[k] and with_j[k] and (probe - lead) & guard == guard
            for k, lead in enumerate(packed_leads)
        ):
            yield lcm, i, j
        with_i[j] = with_j[i] = True


def _degree_cut(elements, leads, d: int):
    """The degree past which every S-pair of the packed elements reduces to
    zero, or None when they are not all homogeneous or the staircase of
    their leads is infinite."""
    shift = grobner._FIELD * (2 * d - 1)
    if any(g[0][0] >> shift != g[-1][0] >> shift for g in elements):
        return None
    return _staircase_top(leads, d)


def _staircase_top(leads, d: int):
    """The largest degree of an exponent vector no leading vector divides:
    None when some coordinate has no pure-power lead, -1 for a unit lead."""
    if not all(map(any, leads)):
        return -1
    try:
        box = grobner._box(leads, d)
    except NotIsolated:
        return None
    return grobner._staircase(leads, box)[1]


def _replayed_pairs(pairs_to_reduce, ideal) -> tuple[list, list]:
    """The pairs a pair loop yields to Buchberger on the ideal, and the basis
    it leaves: each yielded pair is reduced and a nonzero remainder appended,
    as `buchberger` does."""
    run = grobner._Run(ideal.d)
    basis = []
    for g in _packed(ideal.terms):
        if g not in basis:
            basis.append(g)
    divisors = grobner._Divisors(basis)
    pairs = []
    for lcm, i, j in pairs_to_reduce(basis, run):
        pairs.append((lcm, i, j))
        remainder, _ = grobner._reduce(grobner._s_terms(basis[i], basis[j], lcm), divisors, run)
        if remainder:
            basis.append(grobner._primitive(remainder))
            divisors.append(basis[-1])
    return pairs, basis


def _audited_pairs(pairs_to_reduce, elements, d: int) -> list:
    """The pairs a pair loop yields to the audit of the elements, given as one batch."""
    return list(pairs_to_reduce(_packed(elements), grobner._Run(d)))


def _assert_same_pairs(ideal, *audited) -> None:
    """The pair loop yields the reference loop's pairs, in its order, to
    Buchberger on the ideal and to the audit of each list of elements."""
    assert _replayed_pairs(grobner._pairs_to_reduce, ideal) == _replayed_pairs(
        _reference_pairs_to_reduce, ideal
    )
    for elements in audited:
        assert _audited_pairs(grobner._pairs_to_reduce, elements, ideal.d) == _audited_pairs(
            _reference_pairs_to_reduce, elements, ideal.d
        )


def _staircase_calls(monkeypatch, call) -> int:
    """The number of staircases `call()` takes: the calls of `_staircase`
    on a whole box, not counting its recursion on the slabs."""
    staircase, count = grobner._staircase, []

    def counted(leads, box):
        count.append(len(box))
        return staircase(leads, box)

    with monkeypatch.context() as patch:
        patch.setattr(grobner, "_staircase", counted)
        call()
    return count.count(max(count, default=0))


def _fixed_point_reduce_basis(basis) -> list:
    """Reference interreduction: the loop grobner ran before its one pass.

    Keeps the elements whose lead no other element's divides, then
    tail-reduces each against the rest until nothing changes.
    """
    minimal = []
    for idx, g in enumerate(basis):
        lm = g[0][0]
        redundant = any(
            all(map(le, other[0][0], lm))
            for kdx, other in enumerate(basis)
            if kdx != idx and (other[0][0] != lm or kdx < idx)
        )
        if not redundant:
            minimal.append(g)
    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            others = minimal[:idx] + minimal[idx + 1 :]
            reduced = grobner._primitive(_tuple_reduce(minimal[idx], others)[0])
            if reduced != minimal[idx]:
                minimal[idx] = reduced
                changed = True
    minimal.sort(key=lambda g: _key(g[0][0]))
    return minimal


def _audit_outcome(audit, elements, generators) -> str | None:
    """The audit's error message, or None when it passes."""
    try:
        audit(elements, generators)
    except RuntimeError as exc:
        return str(exc)
    return None


def _sorted_terms(terms: dict) -> list:
    """The nonzero terms of {vector: coefficient} in decreasing grevlex order."""
    return sorted(
        ((e, c) for e, c in terms.items() if c), key=lambda t: _key(t[0]), reverse=True
    )


def _plus_multiple(f, g, c: int, shift) -> list:
    """f + c * x^shift * g, as terms."""
    out = dict(f)
    for e, gc in g:
        e = tuple(map(add, e, shift))
        out[e] = out.get(e, 0) + c * gc
    return _sorted_terms(out)


def _vectors_below(lead) -> list:
    """The exponent vectors of degree at most lead's that grevlex ranks below it."""
    return [
        e
        for e in itertools.product(range(sum(lead) + 1), repeat=len(lead))
        if sum(e) <= sum(lead) and _key(e) < _key(lead)
    ]


def _mutate(basis, kind: str, index: int, pick: int, step: int) -> list:
    """The basis with one element changed: `kind` is "drop" (delete it),
    "coefficient" (add `step` to one tail coefficient) or "term" (add `step`
    times a vector below its lead); `pick` chooses the tail term or vector,
    and an element without a tail gets a term instead of a changed coefficient.
    """
    basis = [list(g) for g in basis]
    if kind == "drop":
        del basis[index]
        return basis
    g = basis[index]
    if kind == "coefficient" and len(g) > 1:
        e, c = g[1 + pick % (len(g) - 1)]
        basis[index] = _sorted_terms({**dict(g), e: c + step})
        return basis
    below = _vectors_below(g[0][0])
    if below:
        e = below[pick % len(below)]
        terms = dict(g)
        basis[index] = _sorted_terms({**terms, e: terms.get(e, 0) + step})
    return basis


_mutations = st.tuples(
    st.sampled_from(("drop", "coefficient", "term")),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from((-2, -1, 1, 3)),
)


@st.composite
def _audited_ideals(draw) -> Ideal:
    """A random ideal, or the Jacobian ideal of a dense form."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        return ideal_of(draw(st.lists(_polys(d, max_degree=2), min_size=1, max_size=3)), d)
    try:
        return jacobian_ideal(build(draw(_dense_forms())))
    except (ParseError, DegreeTooLow):  # the powers cancel a variable, or all of them, away
        assume(False)


@st.composite
def _dense_jacobian_ideals(draw) -> Ideal:
    """The Jacobian ideal of a dense form: its generators are homogeneous."""
    try:
        return jacobian_ideal(build(draw(_dense_forms())))
    except (ParseError, DegreeTooLow):  # the powers cancel a variable, or all of them, away
        assume(False)


def _audit_reductions(monkeypatch, elements, generators) -> int:
    """The number of divisions `_verify_basis` makes on the elements and generators."""
    reduce, count = grobner._reduce, []

    def counted(terms, divisors, run):
        count.append(None)
        return reduce(terms, divisors, run)

    monkeypatch.setattr(grobner, "_reduce", counted)
    _packed_verify(elements, generators)
    monkeypatch.setattr(grobner, "_reduce", reduce)
    return len(count)


class TestAudit:
    """The audit on the S-pairs that its pair criteria keep, against the all-pairs audit."""

    @settings(deadline=None, max_examples=150)
    @given(_audited_ideals(), st.lists(_mutations, max_size=2))
    def test_pruned_audit_raises_exactly_when_all_pairs_does(self, ideal, mutations):
        elements = [list(g) for g in buchberger(ideal).terms]
        for kind, index, pick, step in mutations:
            if elements:
                elements = _mutate(elements, kind, index % len(elements), pick, step)
        assert _audit_outcome(_packed_verify, elements, ideal.terms) == _audit_outcome(
            _all_pairs_verify, elements, ideal.terms
        )

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_every_single_mutation_of_a_pinned_basis(self, source):
        ideal = jacobian_ideal(build(source))
        elements = [list(g) for g in buchberger(ideal).terms]
        assert _audit_outcome(_packed_verify, elements, ideal.terms) is None
        failures = 0
        for index, kind, pick in itertools.product(
            range(len(elements)), ("drop", "coefficient", "term"), (0, 1)
        ):
            mutated = _mutate(elements, kind, index, pick, 1)
            outcome = _audit_outcome(_packed_verify, mutated, ideal.terms)
            assert outcome == _audit_outcome(_all_pairs_verify, mutated, ideal.terms)
            failures += outcome is not None
        assert failures >= len(elements)

    def test_a_chain_relies_only_on_pairs_treated_before_it(self):
        # The leads xy, xz and yz share the lcm xyz, so the pairs come in the
        # order (0, 1), (0, 2), (1, 2).  S_01 reduces to zero and S_02 does
        # not.  Lead 1 divides lcm_02 and (0, 1) came before it, but (1, 2)
        # comes after it, so (0, 2) is reduced.  Skipped on (0, 1) alone, it
        # would let (1, 2) be skipped on (0, 1) and (0, 2), and the audit pass.
        elements = [
            [((1, 1, 0), 1), ((2, 0, 0), 1)],
            [((1, 0, 1), 1), ((1, 1, 0), 1)],
            [((0, 1, 1), 1), ((0, 2, 0), -1)],
        ]
        assert not _tuple_reduce(_tuple_s_terms(elements[0], elements[1]), elements)[0]
        assert _tuple_reduce(_tuple_s_terms(elements[0], elements[2]), elements)[0]
        with pytest.raises(RuntimeError, match="S-polynomial does not reduce to zero"):
            _packed_verify(elements, elements)

    def test_criteria_skip_pairs_of_a_dense_basis(self, monkeypatch):
        ideal = jacobian_ideal(build(_gl_fermat_source(3, 5, 2)))
        elements = buchberger(ideal).terms
        # Of the 105 pairs of the 15 elements, the criteria leave 21 to reduce
        # (the strict chain criterion left 33); the 3 generators are reduced too.
        assert (len(elements), len(ideal.terms)) == (15, 3)
        assert _audit_reductions(monkeypatch, elements, ideal.terms) == 21 + 3

    def test_criteria_skip_pairs_in_buchberger(self, monkeypatch):
        ideal = jacobian_ideal(build(_gl_fermat_source(3, 5, 2)))
        # Buchberger reduces 23 S-pairs on the way to the basis above.  Its
        # chain test against the pairs still pending, without the degree cut,
        # reduced 26.
        with monkeypatch.context() as patch:
            s_terms, count = grobner._s_terms, []

            def counted(f, g, lcm):
                count.append(None)
                return s_terms(f, g, lcm)

            patch.setattr(grobner, "_s_terms", counted)
            patch.setattr(grobner, "_verify_basis", lambda *args: None)
            buchberger(ideal)
        assert len(count) == 23

    @settings(deadline=None, max_examples=100)
    @given(_audited_ideals(), st.lists(_mutations, max_size=2))
    def test_pair_loop_yields_the_reference_pairs(self, ideal, mutations):
        elements = [list(g) for g in buchberger(ideal).terms]
        mutated = elements
        for kind, index, pick, step in mutations:
            if mutated:
                mutated = _mutate(mutated, kind, index % len(mutated), pick, step)
        _assert_same_pairs(ideal, elements, mutated, ideal.terms)

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_pair_loop_yields_the_reference_pairs_on_a_pinned_basis(self, source):
        ideal = jacobian_ideal(build(source))
        _assert_same_pairs(ideal, [list(g) for g in buchberger(ideal).terms])

    @pytest.mark.parametrize(
        "ideal",
        [
            ideal_of([x * y, x**2 + y**2, Poly.constant(3)], 2),  # homogeneous: the top is -1
            ideal_of([x + Poly.constant(1), x], 1),  # Buchberger appends the unit
            ideal_of([x**2 * y - Poly.constant(1), x * y**2 - Poly.constant(1), x * y], 2),
        ],
    )
    def test_pair_loop_yields_the_reference_pairs_with_a_unit_lead(self, ideal):
        _assert_same_pairs(ideal, [list(g) for g in buchberger(ideal).terms], ideal.terms)

    @pytest.mark.parametrize("source", [entry.source for entry in CORPUS])
    def test_pair_loop_yields_the_reference_pairs_on_the_corpus(self, source):
        ideal = jacobian_ideal(build(source))
        _assert_same_pairs(ideal, [list(g) for g in buchberger(ideal).terms], ideal.terms)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pair_loop_yields_the_reference_pairs_on_the_benchmark(self, seed):
        sources = {case.source for case in bench_module("workloads").generate("jacobian", seed, 20.0)}
        assert len(sources) > 50
        for source in sorted(sources):
            ideal = jacobian_ideal(build(source))
            _assert_same_pairs(ideal, [list(g) for g in buchberger(ideal).terms])

    def test_a_basis_of_coprime_pairs_unpacks_no_lead(self, monkeypatch):
        # Every pair of the Fermat quartic's partials, x^3, y^3 and w^3, is coprime.
        ideal = jacobian_ideal(build("x^4 + y^4 + w^4"))
        monkeypatch.setattr(grobner, "_unpacked", None)
        assert _replayed_pairs(grobner._pairs_to_reduce, ideal) == ([], _packed(ideal.terms))
        assert _audited_pairs(grobner._pairs_to_reduce, ideal.terms, ideal.d) == []

    def test_the_staircase_top_is_taken_only_when_a_pair_needs_it(self, monkeypatch):
        # The Fermat cubic's partials have pure-power leads, so every pair of
        # Buchberger's basis and of its audit is coprime.
        fermat = jacobian_ideal(build("x^3 + y^3 + w^3"))
        assert _staircase_calls(monkeypatch, lambda: buchberger(fermat)) == 0
        # The audit takes its whole basis as one batch, so one top serves it.
        ideal = jacobian_ideal(build(_gl_fermat_source(3, 5, 2)))
        elements = buchberger(ideal).terms
        assert _staircase_calls(monkeypatch, lambda: _packed_verify(elements, ideal.terms)) == 1

    # Buchberger and its audit share one pair loop, so the reference audit,
    # which reduces every pair, checks Buchberger's own choice of pairs.
    @settings(deadline=None, max_examples=100)
    @given(_audited_ideals())
    def test_buchberger_passes_the_all_pairs_audit(self, ideal):
        _all_pairs_verify([list(g) for g in buchberger(ideal).terms], ideal.terms)

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_buchberger_passes_the_all_pairs_audit_on_a_pinned_basis(self, source):
        ideal = jacobian_ideal(build(source))
        _all_pairs_verify([list(g) for g in buchberger(ideal).terms], ideal.terms)

    @settings(deadline=None, max_examples=100)
    @given(_dense_jacobian_ideals(), st.lists(_mutations, max_size=2))
    def test_s_pairs_past_the_staircase_top_reduce_to_zero(self, ideal, mutations):
        """On homogeneous elements, Groebner basis or not, as the degree cut assumes."""
        elements = [list(g) for g in buchberger(ideal).terms]
        for _, index, pick, step in mutations:  # a changed coefficient keeps the degree
            elements = _mutate(elements, "coefficient", index % len(elements), pick, step)
        leads = [g[0][0] for g in elements]
        top = _degree_cut(_packed(elements), leads, ideal.d)
        if top is None:  # a term of lower degree, or an infinite staircase
            assert not all(
                len({sum(e) for e, _ in g}) == 1 for g in elements
            ) or _staircase_top(leads, ideal.d) is None
            return
        for f, g in itertools.combinations(elements, 2):
            if sum(map(max, f[0][0], g[0][0])) > top:
                assert _tuple_reduce(_tuple_s_terms(f, g), elements)[0] == []

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_a_lower_degree_term_gets_no_degree_cut(self, monkeypatch, source):
        ideal = jacobian_ideal(build(source))
        elements = [list(g) for g in buchberger(ideal).terms]
        leads = [g[0][0] for g in elements]
        top = _degree_cut(_packed(elements), leads, ideal.d)
        assert top == ideal.d * (build(source).delta - 2)
        # The last element gains a term one degree below its lead.
        lead = elements[-1][0][0]
        i = lead.index(max(lead))
        lower = lead[:i] + (lead[i] - 1,) + lead[i + 1 :]
        forged = elements[:-1] + [elements[-1] + [(lower, 1)]]
        assert _degree_cut(_packed(forged), leads, ideal.d) is None
        # The pair loop takes one top for the basis and none for the forgery.
        assert [
            _staircase_calls(monkeypatch, lambda: _audit_outcome(_packed_verify, g, ideal.terms))
            for g in (elements, forged)
        ] == [1, 0]
        assert _audit_outcome(_packed_verify, forged, ideal.terms) == _audit_outcome(
            _all_pairs_verify, forged, ideal.terms
        )
        # Without the cut the audit reduces the pairs past the top as well.
        past = sum(
            any(map(min, f, g)) and sum(map(max, f, g)) > top
            for f, g in itertools.combinations(leads, 2)
        )
        monkeypatch.setattr(grobner, "_staircase", lambda leads, box: (0, math.inf))
        uncut = _audit_reductions(monkeypatch, elements, ideal.terms)
        monkeypatch.undo()
        assert past > 0 and _audit_reductions(monkeypatch, elements, ideal.terms) < uncut

    @settings(deadline=None, max_examples=150)
    @given(_audited_ideals(), st.data())
    def test_one_pass_interreduction_matches_the_fixed_point_loop(self, ideal, data):
        reduced = [list(g) for g in buchberger(ideal).terms]
        basis = [list(g) for g in reduced]
        # Ideal elements with a lead a basis lead divides keep it a Groebner basis.
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, len(basis) - 1))
            j = data.draw(st.integers(0, len(basis) - 1))
            lead_i, lead_j = basis[i][0][0], basis[j][0][0]
            shifts = [
                s
                for s in itertools.product(range(3), repeat=len(lead_i))
                if _key(tuple(map(add, s, lead_j))) < _key(lead_i)
            ]
            c = data.draw(st.sampled_from((-2, -1, 1, 2)))
            how = data.draw(st.sampled_from(("multiple", "replace", "append")))
            shift = data.draw(st.sampled_from(shifts)) if shifts else None
            if how == "multiple" or shift is None:
                extra = tuple(data.draw(st.integers(0, 2)) for _ in lead_j)
                basis.append(_plus_multiple([], basis[j], abs(c), extra))
            elif how == "replace":
                basis[i] = _plus_multiple(basis[i], basis[j], c, shift)
            else:
                basis.append(_plus_multiple(basis[i], basis[j], c, shift))
        basis = [[(e, 2 * c) for e, c in g] if data.draw(st.booleans()) else g for g in basis]
        basis = data.draw(st.permutations(basis))
        packed = grobner._reduce_basis(_packed(basis), grobner._Run(ideal.d))
        assert _unpacked(packed, ideal.d) == _fixed_point_reduce_basis(basis) == reduced


_key_variables = st.lists(
    st.builds(LoopVar, st.integers(1, 3), st.integers(-2, 2)), unique=True, min_size=1, max_size=5
).map(sorted)


@settings(deadline=None)
@given(_key_variables, st.data())
def test_vector_key_orders_as_monomial_key(variables, data):
    vectors = st.lists(st.integers(0, 3), min_size=len(variables), max_size=len(variables))
    a = tuple(data.draw(vectors))
    b = tuple(data.draw(st.one_of(vectors, st.permutations(a))))  # a permutation keeps the degree
    ma, mb = Monomial(zip(variables, a)), Monomial(zip(variables, b))
    assert (_key(a) < _key(b)) == (ma < mb)
    assert (_key(a) == _key(b)) == (ma == mb)


@st.composite
def _vectors(draw, d: int, cap: int | None = None) -> tuple[int, ...]:
    """Exponent vectors of d entries and degree at most `cap`, by default
    the largest degree a packed field holds; a single entry can reach it."""
    cap = grobner._MAX_DEGREE if cap is None else cap
    cap = draw(st.sampled_from((min(3, cap), cap)))
    e = draw(st.lists(st.integers(0, cap), min_size=d, max_size=d))
    total = sum(e)
    return tuple(x * cap // total if total > cap else x for x in e)


@st.composite
def _packed_divisions(draw) -> tuple[int, list, list]:
    """d, terms in any order with repeated vectors, and divisors in decreasing order."""
    d = draw(st.integers(1, 4))
    coefficients = st.integers(-9, 9).filter(bool)
    small = st.tuples(*[st.integers(0, 4)] * d)
    terms = draw(st.lists(st.tuples(small, st.integers(-9, 9)), max_size=8))
    divisor = st.dictionaries(st.tuples(*[st.integers(0, 2)] * d), coefficients, max_size=3)
    divisors = [
        sorted(g.items(), key=lambda t: _key(t[0]), reverse=True)
        for g in draw(st.lists(divisor, max_size=3))
    ]
    return d, terms, divisors


class TestPacking:
    """The packed exponent vectors against the tuple vectors they stand for."""

    @settings(deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_pack_matches_the_field_by_field_reference(self, d, data):
        # d = 0 is the vector of no entries.
        e = data.draw(_vectors(d))
        assert grobner._packed(e) == packed_vector(e)

    @settings(deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_unpack_inverts_pack(self, d, data):
        e = data.draw(_vectors(d))
        assert grobner._unpacked(grobner._packed(e), d) == unpacked_vector(packed_vector(e), d) == e

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 6), st.data())
    def test_a_queued_pair_has_the_packed_lcm(self, d, data):
        """The pair loop forms each lcm, its degree and its key on the packed
        leads; a's term of degree 0 keeps the pair from any cut."""
        a, b = data.draw(_vectors(d)), data.draw(_vectors(d))
        basis = [[(grobner._packed(a), 1), (0, 1)], [(grobner._packed(b), 1)]]
        pairs = grobner._pairs_to_reduce(basis, grobner._Run(d))
        lcm = tuple(map(max, a, b))
        if not any(map(min, a, b)):  # coprime leads
            assert list(pairs) == []
        elif sum(lcm) > grobner._MAX_DEGREE:
            with pytest.raises(grobner._BasisTooLarge) as packing:
                grobner._packed(lcm)
            with pytest.raises(grobner._BasisTooLarge) as queueing:
                list(pairs)
            assert str(queueing.value) == str(packing.value)
        else:
            assert list(pairs) == [(packed_vector(lcm), 0, 1)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_queued_pair_past_the_field_is_refused(self, d):
        top = grobner._MAX_DEGREE
        zeros = (0,) * (d - 2)
        for side, refused in ((top - 1, False), (top, True)):
            # The lcm has degree side + 1; a's term of degree 0 keeps it from any cut.
            a, b = (side, 0) + zeros, (1, 1) + zeros
            basis = [[(grobner._packed(a), 1), (0, 1)], [(grobner._packed(b), 1)]]
            pairs = grobner._pairs_to_reduce(basis, grobner._Run(d))
            if not refused:
                assert list(pairs) == [(packed_vector((side, 1) + zeros), 0, 1)]
                continue
            with pytest.raises(grobner._BasisTooLarge) as queueing:
                list(pairs)
            with pytest.raises(grobner._BasisTooLarge) as packing:
                grobner._packed((side, 1) + zeros)
            assert str(queueing.value) == str(packing.value) == (
                f"the Groebner basis computation meets a monomial of degree {top + 1}, "
                f"above {top}"
            )

    @settings(deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_int_order_is_grevlex(self, d, data):
        a = data.draw(_vectors(d))
        b = data.draw(st.one_of(_vectors(d), st.permutations(a).map(tuple)))
        assert (grobner._packed(a) < grobner._packed(b)) == (_key(a) < _key(b))
        assert (grobner._packed(a) == grobner._packed(b)) == (a == b)

    @settings(deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_product_is_a_sum(self, d, data):
        a = data.draw(_vectors(d, grobner._MAX_DEGREE // 2))
        b = data.draw(_vectors(d, grobner._MAX_DEGREE - sum(a)))
        assert grobner._packed(tuple(map(add, a, b))) == grobner._packed(a) + grobner._packed(b)

    @settings(deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_guard_test_is_divisibility(self, d, data):
        guard = grobner._Run(d).guard
        a = data.draw(_vectors(d))
        b = data.draw(
            st.one_of(_vectors(d), _vectors(d, grobner._MAX_DEGREE - sum(a)).map(
                lambda c: tuple(map(add, a, c))
            ))
        )
        packed_a, packed_b = grobner._packed(a), grobner._packed(b)
        divides = ((packed_b | guard) - packed_a) & guard == guard
        assert divides == all(map(le, a, b))
        if divides:
            assert packed_b - packed_a == grobner._packed(tuple(map(sub, b, a)))

    @settings(deadline=None, max_examples=300)
    @given(_packed_divisions())
    def test_reduce_matches_the_tuple_reference(self, division):
        d, terms, divisors = division
        remainder, multiplier = grobner._reduce(
            grobner._packed_terms(terms), grobner._Divisors(_packed(divisors)), grobner._Run(d)
        )
        assert (grobner._unpacked_terms(remainder, d), multiplier) == _tuple_reduce(
            terms, divisors
        )

    @settings(deadline=None, max_examples=300)
    @given(_packed_divisions(), st.data())
    def test_a_reused_divisor_record_divides_as_a_fresh_one(self, division, data):
        """One record, appended to between divisions as a growing basis is, remembers
        no first divisor that an appended lead would change."""
        d, terms, divisors = division
        vectors = st.tuples(*[st.integers(0, 4)] * d)
        dividends = [terms] + data.draw(
            st.lists(st.lists(st.tuples(vectors, st.integers(-9, 9)), max_size=8), max_size=3)
        )
        record, run = grobner._Divisors(), grobner._Run(d)
        held = 0
        for dividend in dividends:
            more = data.draw(st.integers(held, len(divisors)))
            for g in divisors[held:more]:
                record.append(grobner._packed_terms(g))
            held = more
            packed = grobner._packed_terms(dividend)
            reused = grobner._reduce(packed, record, run)
            fresh = grobner._reduce(
                packed, grobner._Divisors(_packed(divisors[:held])), grobner._Run(d)
            )
            assert reused == fresh
            assert (grobner._unpacked_terms(reused[0], d), reused[1]) == _tuple_reduce(
                dividend, divisors[:held]
            )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_degree_past_the_field_is_refused(self, d):
        for i in range(d):
            top = tuple(grobner._MAX_DEGREE if k == i else 0 for k in range(d))
            assert grobner._unpacked(grobner._packed(top), d) == top
            over = tuple(x + (k == d - 1 - i) for k, x in enumerate(top))
            with pytest.raises(grobner._BasisTooLarge, match="degree 32768, above 32767"):
                grobner._packed(over)

    def test_lcm_past_the_field_is_refused(self):
        def power(a: int, b: int) -> LoopPoly:
            return LoopPoly([(Monomial(zip(_ring, (a, b))), Fraction(1))])

        top = grobner._MAX_DEGREE
        assert buchberger(ideal_of([power(top, 0)], 2)).elements == (power(top, 0),)
        with pytest.raises(grobner._BasisTooLarge, match=f"degree {top + 1}, above"):
            buchberger(ideal_of([power(top, 1)], 2))
        # Both leads fit; the lcm of the pair does not.
        with pytest.raises(grobner._BasisTooLarge, match="degree 32770, above"):
            buchberger(ideal_of([power(16385, 1), power(1, 16385)], 2))
        assert issubclass(grobner._BasisTooLarge, ValueError)

    def test_work_past_the_budget_is_refused(self, monkeypatch):
        ideal = jacobian_ideal(build(_gl_fermat_source(3, 5, 2)))
        gb = buchberger(ideal)
        monkeypatch.setattr(grobner, "MAX_REDUCTION_WORK", 100)
        with pytest.raises(grobner._BasisTooLarge, match="budget of 100 reduction"):
            buchberger(ideal)


class TestIdealValidation:
    def test_rejects_zero_generator_set(self):
        for generators in ([{}], [{(1,): 0}], [{(1,): Fraction(0)}, ()], []):
            with pytest.raises(ValueError, match="at least one nonzero generator"):
                Ideal(generators, 1)

    def test_rejects_anything_but_exponent_vectors_of_d_entries(self):
        for generators, d in (
            ([{(1, 0): 1}], 1),
            ([{(1,): 1}], 2),
            ([{(2,): 1, (-1,): 1}], 1),
        ):
            with pytest.raises(ValueError, match=f"not a vector of {d} nonnegative exponents"):
                Ideal(generators, d)
        with pytest.raises(ValueError, match="need at least one ambient variable"):
            Ideal([{(): 1}], 0)
        # The tests' helper refuses a loop variable before the ideal sees it.
        with pytest.raises(ValueError, match="has no variable z1_-1"):
            ideal_of([Poly.variable(LoopVar(1, -1))], 1)


class TestIdealTerms:
    def test_each_nonzero_generator_is_its_primitive_integer_multiple(self):
        ideal = Ideal(
            [{(0, 2): Fraction(-3, 4), (2, 0): Fraction(1, 2)}, {}, [((1, 0), 6), ((0, 3), 4)]], 2
        )
        # Decreasing grevlex order: the degree first, then increasing tuple order.
        assert ideal.terms == ((((0, 2), 3), ((2, 0), -2)), (((0, 3), 2), ((1, 0), 3)))

    @pytest.mark.parametrize("source", [entry.source for entry in CORPUS])
    def test_the_partials_canonicalize_to_the_integer_partials_on_the_corpus(self, source):
        func = build(source)
        assert Ideal(func.partials, func.d).terms == func.integer_partials
        assert jacobian_ideal(func).terms is func.integer_partials

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_partials_canonicalize_to_the_integer_partials_on_the_benchmark(self, seed):
        for case in bench_module("workloads").generate("jacobian", seed, 20.0):
            func = build(case.source)
            assert Ideal(func.partials, func.d).terms == func.integer_partials

