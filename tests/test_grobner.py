"""Buchberger, standard monomials, and the two Milnor-number routes."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from pathlib import Path

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
    normal_form,
    s_polynomial,
    standard_monomials,
)

from conftest import CORPUS, NON_ISOLATED_SOURCES, build, fermat_source


def lv(coord: int) -> LoopPoly:
    return LoopPoly.variable(LoopVar(coord, 0))


x, y, w = lv(1), lv(2), lv(3)


def mono(*pairs) -> Monomial:
    return Monomial(tuple((LoopVar(c, 0), e) for c, e in pairs))


class TestBuchberger:
    def test_principal_ideal_normalizes(self):
        gb = buchberger(Ideal([2 * x], 1))
        assert gb.elements == (x,)

    def test_fermat_cubic_jacobian(self):
        gb = buchberger(Ideal([3 * x**2, 3 * y**2], 2))
        assert gb.elements == (x**2, y**2)

    def test_linear_pair(self):
        gb = buchberger(Ideal([x + y, x - y], 2))
        assert gb.elements == (x, y)

    def test_idempotent(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3 + w^3")))
        again = buchberger(Ideal(gb.elements, gb.d))
        assert again == gb

    def test_all_s_polynomials_reduce_to_zero(self):
        gb = buchberger(jacobian_ideal(build("x^4 + y^4")))
        elements = gb.elements
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                assert normal_form(s_polynomial(elements[i], elements[j]), elements).is_zero

    def test_nontrivial_pair_processing(self):
        # x^2 y - 1 and x y^2 - 1 need genuine S-polynomial work
        f = x**2 * y - LoopPoly.constant(1)
        g = x * y**2 - LoopPoly.constant(1)
        gb = buchberger(Ideal([f, g], 2))
        for p in (f, g):
            assert normal_form(p, gb.elements).is_zero
        lead = {e.leading_monomial for e in gb.elements}
        assert mono((1, 1)) in lead or mono((2, 1)) in lead  # x - y reduces one of them


class TestNormalForm:
    def test_reduction_is_idempotent(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3")))
        probe = x**4 + x * y**2 + y + LoopPoly.constant(5)
        once = normal_form(probe, gb.elements)
        assert normal_form(once, gb.elements) == once

    def test_remainder_has_no_reducible_monomial(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3")))
        remainder = normal_form(x**5 + y**5 + x**2 * y**2, gb.elements)
        heads = [g.leading_monomial for g in gb.elements]
        for m, _ in remainder.terms:
            assert not any(h.divides(m) for h in heads)


def loop_var(coord: int, cdeg: int) -> LoopPoly:
    return LoopPoly.variable(LoopVar(coord, cdeg))


class TestLoopVariables:
    """Division and S-polynomials over variables of nonzero conformal degree.

    The expected strings were computed with the LoopPoly-based division this
    module used before it ran on exponent vectors.
    """

    a, b, c, e, t = (loop_var(1, -1), loop_var(2, 1), loop_var(1, 0), loop_var(2, -2), loop_var(1, 1))
    p = a**2 * b + 3 * c * b - t**2 + Fraction(1, 2) * e + a * e**2
    f = a * b - t
    g = b**2 + 2 * c * e
    h = e**2 - Fraction(1, 3) * a

    def test_normal_form(self):
        assert str(normal_form(self.p, [self.f, self.g, self.h])) == (
            "-z1_1^2 + 3*z1_0*z2_1 + z1_-1*z1_1 + 1/3*z1_-1^2 + 1/2*z2_-2"
        )

    def test_normal_form_of_a_square_in_another_divisor_order(self):
        assert str(normal_form(self.p**2, [self.h, self.g, self.f])) == (
            "-2*z2_-2*z1_-1^4*z1_0 - 12*z2_-2*z1_-1^2*z1_0^2 + z1_1^4 - 6*z1_0*z1_1^2*z2_1"
            " - 2*z1_-1*z1_1^3 - 2/3*z1_-1^2*z1_1^2 + 2/3*z1_-1^3*z1_1 + 1/9*z1_-1^4"
            " - 18*z2_-2*z1_0^3 + 2*z1_-1*z1_0*z1_1 - z2_-2*z1_1^2 + 3*z2_-2*z1_0*z2_1"
            " + z2_-2*z1_-1*z1_1 + 1/3*z2_-2*z1_-1^2 + 1/12*z1_-1"
        )

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
        assert str(s_polynomial(left, right)) == expected
        assert s_polynomial(right, left) == -s_polynomial(left, right)

    def test_zero_divisors_are_skipped(self):
        assert normal_form(self.p, [LoopPoly(), self.f]) == normal_form(self.p, [self.f])


def _monomial_standard_monomials(gb: GroebnerBasis) -> list[Monomial] | None:
    """Reference: the Monomial-based enumeration grobner ran before it counted
    on exponent vectors; None when the standard monomials are infinite."""
    heads = [g.leading_monomial for g in gb.elements]
    if any(head.is_unit for head in heads):
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
        if not any(h.divides(m) for h in heads):
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
    return Ideal(generators, d)


@st.composite
def _boxes_and_leads(draw) -> tuple[list[int], list[tuple[int, ...]]]:
    """A box in 1-4 coordinates, and its pure powers plus up to six other
    exponent vectors (the zero vector among the possible ones)."""
    d = draw(st.integers(1, 4))
    box = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    leads = [tuple(side if i == j else 0 for j in range(d)) for i, side in enumerate(box)]
    return box, leads + draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=6))


class TestStandardMonomials:
    def test_principal(self):
        gb = buchberger(Ideal([x], 1))
        assert standard_monomials(gb) == [Monomial()]

    def test_fermat_cubic(self):
        gb = buchberger(Ideal([x**2, y**2], 2))
        assert standard_monomials(gb) == [
            Monomial(),
            mono((1, 1)),
            mono((2, 1)),
            mono((1, 1), (2, 1)),
        ]

    def test_infinite_when_a_variable_is_free(self):
        gb = buchberger(Ideal([x], 2))
        with pytest.raises(NotIsolated):
            standard_monomials(gb)

    def test_unit_ideal_has_empty_quotient(self):
        gb = buchberger(Ideal([LoopPoly.constant(2), x], 1))
        assert standard_monomials(gb) == []

    @settings(deadline=None, max_examples=200)
    @given(_monomial_and_binomial_ideals())
    @example(Ideal([x], 2))
    @example(Ideal([x * y - y**2, y], 3))
    @example(Ideal([x + LoopPoly.constant(1), x], 1))
    def test_matches_the_monomial_enumeration(self, ideal):
        gb = buchberger(ideal)
        expected = _monomial_standard_monomials(gb)
        if expected is None:
            with pytest.raises(NotIsolated):
                standard_monomials(gb)
        else:
            assert standard_monomials(gb) == expected

    @settings(deadline=None, max_examples=200)
    @given(_monomial_and_binomial_ideals())
    @example(Ideal([x**2, y**3, x * y], 2))
    @example(Ideal([x**2 - y * w, y**2, w**3, x * y * w], 3))
    def test_staircase_count_matches_the_enumeration(self, ideal):
        gb = buchberger(ideal)
        leads = [g[0][0] for g in gb._terms]
        assume(all(map(any, leads)))  # the unit ideal has no box
        try:
            expected = len(standard_monomials(gb))
        except NotIsolated:
            with pytest.raises(NotIsolated):
                grobner._box(leads, gb.d)
        else:
            assert grobner._staircase_size(leads, grobner._box(leads, gb.d)) == expected

    @settings(deadline=None, max_examples=200)
    @given(_boxes_and_leads())
    def test_staircase_count_of_any_leads(self, box_and_leads):
        box, leads = box_and_leads
        expected = sum(
            not any(all(map(le, lead, e)) for lead in leads)
            for e in itertools.product(*map(range, box))
        )
        assert grobner._staircase_size(leads, box) == expected


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
        leads = [g[0][0] for g in gb._terms]
        assert grobner._staircase_size(leads, grobner._box(leads, gb.d)) == len(
            standard_monomials(gb)
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
    gens = jacobian_ideal(func)._terms
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


class TestModularOracle:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 6])
    def test_complete_intersection_bound_is_the_fermat_hilbert_function(self, d, delta):
        floors = grobner._complete_intersection_hilbert(d, delta)
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

    def test_benchmark_inputs_need_no_exact_rank(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        cases = [case for case in workloads.generate("jacobian", 1, 20.0) if case.isolated]
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


def _fraction_poly(terms, variables) -> LoopPoly:
    return LoopPoly((Monomial(zip(variables, e)), c) for e, c in terms)


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
def _divisions(draw) -> tuple[LoopPoly, list[LoopPoly]]:
    d = draw(st.integers(1, 3))
    p = draw(_polys(d, max_degree=4, min_terms=0, max_terms=6))
    divisors = st.one_of(st.just(LoopPoly()), _polys(d, max_degree=2, max_terms=3))
    return p, draw(st.lists(divisors, max_size=3))


class TestIntegerKernel:
    """The integer kernel against the Fraction kernel it replaced, on rational inputs."""

    @settings(deadline=None, max_examples=300)
    @given(_divisions())
    # y^2 goes to the remainder before x*y is cancelled against the lead 2*x*y.
    @example((y**2 + x * y + x, [2 * x * y + y]))
    def test_normal_form_matches_the_fraction_kernel(self, division):
        p, divisors = division
        variables = grobner._variables(p, *divisors)
        expected = _fraction_reduce(
            _fraction_terms(p, variables), [_fraction_terms(g, variables) for g in divisors]
        )
        assert normal_form(p, divisors) == _fraction_poly(expected, variables)

    @settings(deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_s_polynomial_matches_the_fraction_kernel(self, d, data):
        f, g = data.draw(_polys(d)), data.draw(_polys(d))
        variables = grobner._variables(f, g)
        expected = _fraction_s_terms(_fraction_terms(f, variables), _fraction_terms(g, variables))
        assert s_polynomial(f, g) == _fraction_poly(expected, variables)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 3), st.data())
    def test_basis_is_invariant_under_rescaled_generators(self, d, data):
        generators = data.draw(st.lists(_polys(d, max_degree=2), min_size=1, max_size=3))
        scales = data.draw(
            st.lists(_coefficients, min_size=len(generators), max_size=len(generators))
        )
        gb = buchberger(Ideal(generators, d))
        assert buchberger(Ideal([q * g for q, g in zip(scales, generators)], d)) == gb

        variables = grobner._ambient(d)
        elements = [_fraction_terms(g, variables) for g in gb.elements]
        for i, j in itertools.combinations(range(len(elements)), 2):
            assert not _fraction_reduce(_fraction_s_terms(elements[i], elements[j]), elements)
        for g in generators:
            assert not _fraction_reduce(_fraction_terms(g, variables), elements)


def _all_pairs_verify(elements, generators) -> None:
    """Reference audit: the one grobner ran before it pruned pairs, every S-pair reduced."""
    for i, j in itertools.combinations(range(len(elements)), 2):
        if grobner._reduce(grobner._s_terms(elements[i], elements[j]), elements)[0]:
            raise RuntimeError("S-polynomial does not reduce to zero")
    for g in generators:
        if grobner._reduce(g, elements)[0]:
            raise RuntimeError("an ideal generator does not reduce to zero")


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
            reduced = grobner._primitive(grobner._reduce(minimal[idx], others)[0])
            if reduced != minimal[idx]:
                minimal[idx] = reduced
                changed = True
    minimal.sort(key=lambda g: grobner._key(g[0][0]))
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
        ((e, c) for e, c in terms.items() if c), key=lambda t: grobner._key(t[0]), reverse=True
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
        if sum(e) <= sum(lead) and grobner._key(e) < grobner._key(lead)
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
        return Ideal(draw(st.lists(_polys(d, max_degree=2), min_size=1, max_size=3)), d)
    try:
        return jacobian_ideal(build(draw(_dense_forms())))
    except (ParseError, DegreeTooLow):  # the powers cancel a variable, or all of them, away
        assume(False)


class TestAudit:
    """The audit on the S-pairs Buchberger's criteria keep, against the all-pairs audit."""

    @settings(deadline=None, max_examples=150)
    @given(_audited_ideals(), st.lists(_mutations, max_size=2))
    def test_pruned_audit_raises_exactly_when_all_pairs_does(self, ideal, mutations):
        elements = [list(g) for g in buchberger(ideal)._terms]
        for kind, index, pick, step in mutations:
            if elements:
                elements = _mutate(elements, kind, index % len(elements), pick, step)
        assert _audit_outcome(grobner._verify_basis, elements, ideal._terms) == _audit_outcome(
            _all_pairs_verify, elements, ideal._terms
        )

    @pytest.mark.parametrize("source", sorted(PINNED_BASES))
    def test_every_single_mutation_of_a_pinned_basis(self, source):
        ideal = jacobian_ideal(build(source))
        elements = [list(g) for g in buchberger(ideal)._terms]
        assert _audit_outcome(grobner._verify_basis, elements, ideal._terms) is None
        failures = 0
        for index, kind, pick in itertools.product(
            range(len(elements)), ("drop", "coefficient", "term"), (0, 1)
        ):
            mutated = _mutate(elements, kind, index, pick, 1)
            outcome = _audit_outcome(grobner._verify_basis, mutated, ideal._terms)
            assert outcome == _audit_outcome(_all_pairs_verify, mutated, ideal._terms)
            failures += outcome is not None
        assert failures >= len(elements)

    def test_criteria_skip_pairs_of_a_dense_basis(self, monkeypatch):
        ideal = jacobian_ideal(build(_gl_fermat_source(3, 5, 2)))
        elements = buchberger(ideal)._terms
        reduce, pairs = grobner._reduce, []

        def counted(terms, divisors):
            terms = list(terms)
            pairs.append(terms)
            return reduce(terms, divisors)

        monkeypatch.setattr(grobner, "_reduce", counted)
        grobner._verify_basis(elements, ideal._terms)
        n = len(elements)
        assert len(ideal._terms) < len(pairs) < len(ideal._terms) + n * (n - 1) // 2

    @settings(deadline=None, max_examples=150)
    @given(_audited_ideals(), st.data())
    def test_one_pass_interreduction_matches_the_fixed_point_loop(self, ideal, data):
        reduced = [list(g) for g in buchberger(ideal)._terms]
        basis = [list(g) for g in reduced]
        # Ideal elements with a lead a basis lead divides keep it a Groebner basis.
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, len(basis) - 1))
            j = data.draw(st.integers(0, len(basis) - 1))
            lead_i, lead_j = basis[i][0][0], basis[j][0][0]
            shifts = [
                s
                for s in itertools.product(range(3), repeat=len(lead_i))
                if grobner._key(tuple(map(add, s, lead_j))) < grobner._key(lead_i)
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
        assert grobner._reduce_basis(basis) == _fixed_point_reduce_basis(basis) == reduced


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
    assert (grobner._key(a) < grobner._key(b)) == (ma < mb)
    assert (grobner._key(a) == grobner._key(b)) == (ma == mb)


class TestIdealValidation:
    def test_rejects_zero_generator_set(self):
        with pytest.raises(ValueError):
            Ideal([LoopPoly()], 1)

    def test_rejects_loop_variables(self):
        with pytest.raises(ValueError):
            Ideal([LoopPoly.variable(LoopVar(1, -1))], 1)

