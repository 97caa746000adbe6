"""Buchberger, standard monomials, and the two Milnor-number routes."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsing import grobner
from loopsing.exactalg import LoopPoly, LoopVar, Monomial
from loopsing.grobner import (
    GroebnerBasis,
    Ideal,
    Infinite,
    NotIsolated,
    buchberger,
    jacobian_ideal,
    milnor_number,
    milnor_number_oracle,
    normal_form,
    s_polynomial,
    standard_monomials,
)

from conftest import NON_ISOLATED_SOURCES, build, fermat_source


def lv(coord: int) -> LoopPoly:
    return LoopPoly.variable(LoopVar(coord, 0))


x, y, w = lv(1), lv(2), lv(3)


def mono(*pairs) -> Monomial:
    return Monomial(tuple((LoopVar(c, 0), e) for c, e in pairs))


class TestBuchberger:
    def test_principal_ideal_normalizes(self):
        gb = buchberger(Ideal([2 * x], 1))
        assert gb.elements == (x,)
        assert gb.reduced

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
        heads = gb.leading_monomials()
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
        assert normal_form(self.p, [LoopPoly.zero(), self.f]) == normal_form(self.p, [self.f])


class TestStandardMonomials:
    def test_principal(self):
        gb = buchberger(Ideal([x], 1))
        assert standard_monomials(gb, 5) == [Monomial()]

    def test_fermat_cubic(self):
        gb = buchberger(Ideal([x**2, y**2], 2))
        assert standard_monomials(gb, 10) == [
            Monomial(),
            mono((1, 1)),
            mono((2, 1)),
            mono((1, 1), (2, 1)),
        ]

    def test_infinite_when_a_variable_is_free(self):
        gb = buchberger(Ideal([x], 2))
        assert standard_monomials(gb, 10) is Infinite

    def test_unit_ideal_has_empty_quotient(self):
        gb = buchberger(Ideal([LoopPoly.constant(2), x], 1))
        assert standard_monomials(gb, 5) == []

    def test_requires_reduced_basis(self):
        gb = GroebnerBasis(elements=(x,), reduced=False, d=1)
        with pytest.raises(ValueError):
            standard_monomials(gb, 5)

    def test_cap_guard(self):
        gb = buchberger(Ideal([x**4], 1))
        with pytest.raises(ValueError):
            standard_monomials(gb, 1)


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


_FORM_NAMES = ("x", "y", "w")


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
# before it ran on exponent vectors.
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


_key_variables = st.lists(
    st.builds(LoopVar, st.integers(1, 3), st.integers(-2, 2)), unique=True, min_size=1, max_size=5
).map(lambda vs: sorted(vs, key=lambda v: v.sort_key))


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
            Ideal([LoopPoly.zero()], 1)

    def test_rejects_loop_variables(self):
        with pytest.raises(ValueError):
            Ideal([LoopPoly.variable(LoopVar(1, -1))], 1)

