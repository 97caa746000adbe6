"""Expression grammar, error reporting, and print/parse round trips."""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsing.cli import (
    ParseError,
    format_function,
    parse_function,
    poly_to_source,
    read_function_file,
)
from loopsing.cli.parser import (
    MAX_COEFFICIENT_DIGITS,
    MAX_COORDINATES,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_PRODUCT_WORK,
    MAX_SOURCE_BYTES,
    _Parser,
)
from loopsing.exactalg import LoopPoly, LoopVar, Monomial
from loopsing.loopfun import (
    DegreeTooLow,
    InputFunction,
    NotHomogeneous,
    minimal_window,
)

from conftest import (
    CORPUS,
    NON_ISOLATED_SOURCES,
    Poly,
    ambient_poly,
    bench_module,
    deadline,
    exponent_terms,
    homogeneous_forms,
    lambda_of,
    parse_polynomial,
    rename_variables,
)


def _coefficient(poly: LoopPoly, mono: Monomial) -> Fraction:
    return dict(poly.terms).get(mono, Fraction(0))


class TestGrammar:
    def test_quadric(self):
        func = parse_function("z^2")
        assert (func.d, func.delta) == (1, 2)
        assert func.names == ("z",)

    def test_fermat_cubic(self):
        func = parse_function("x^3 + y^3")
        assert (func.d, func.delta) == (2, 3)

    def test_first_occurrence_coordinate_order(self):
        poly, names = parse_polynomial("y^3 + x^3")
        assert names == ("y", "x")
        assert _coefficient(poly, Monomial({LoopVar(1, 0): 3})) == 1

    def test_rational_coefficients(self):
        poly, _ = parse_polynomial("1/2*x^2 + 3*x*y - y^2")
        assert _coefficient(poly, Monomial({LoopVar(1, 0): 2})) == Fraction(1, 2)
        assert _coefficient(poly, Monomial({LoopVar(1, 0): 1, LoopVar(2, 0): 1})) == 3
        assert _coefficient(poly, Monomial({LoopVar(2, 0): 2})) == -1

    def test_unary_minus_binds_below_product(self):
        poly, _ = parse_polynomial("-x*y")
        assert _coefficient(poly, Monomial({LoopVar(1, 0): 1, LoopVar(2, 0): 1})) == -1

    def test_parentheses(self):
        poly, _ = parse_polynomial("(x + y)^2")
        expanded, _ = parse_polynomial("x^2 + 2*x*y + y^2")
        assert poly == expanded

    def test_multiline_whitespace(self):
        assert parse_function("x^3\n  + y^3") == parse_function("x^3 + y^3")

    def test_multidigit_numbers(self):
        poly, _ = parse_polynomial("12*x^10")
        assert _coefficient(poly, Monomial({LoopVar(1, 0): 10})) == 12

    def test_long_sum_parses_in_linear_time(self):
        # 2000 operands of both signs over MAX_COORDINATES monomials, so that
        # operands merge; coordinates are numbered by first occurrence, a1
        # first and a0 last.
        n = MAX_COORDINATES
        source = "1*a1^2 " + " ".join(
            f"{'+' if k % 3 else '-'} {k}*a{k % n}^2" for k in range(2, 2001)
        )
        expected: dict[Monomial, Fraction] = {}
        for k in range(1, 2001):
            mono = Monomial({LoopVar(k % n or n, 0): 2})
            expected[mono] = expected.get(mono, Fraction(0)) + (k if k % 3 else -k)
        with deadline(1):
            poly, names = parse_polynomial(source)
        assert names == tuple(f"a{i}" for i in (*range(1, n), 0))
        assert poly == LoopPoly(expected)


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        ["x +", "x ** 2", "2x", "x y", "(x + y", "x ^ y", "^2", "1/0", "x$"],
    )
    def test_syntax_errors(self, source):
        with pytest.raises(ParseError):
            parse_function(source)

    BIG = "9" * MAX_COEFFICIENT_DIGITS
    TEN_250 = "1" + "0" * 250
    FIVE = "(x + y + w + v + u)"
    PAIRS = f"products of at most {MAX_PRODUCT_WORK} term pairs in all"
    DEGREE = f"a total degree of at most {MAX_DEGREE}"
    LONG = f"a coefficient of at most {MAX_COEFFICIENT_DIGITS} digits"
    VANISH = "every variable to occur in a nonzero term"
    CHARACTER = "a number, variable or operator"
    OPERAND = "a number, variable or '('"

    @pytest.mark.parametrize(
        "source, position, expected, found",
        [
            ("x$", 1, CHARACTER, "'$'"),
            ("x^2 + y^2\x0c$", 10, CHARACTER, "'$'"),
            ("x^2 + y^2 é", 10, CHARACTER, "'é'"),
            ("x +", 3, OPERAND, "end of input"),
            ("", 0, OPERAND, "end of input"),
            ("^2", 0, OPERAND, "'^'"),
            ("x + * y", 4, OPERAND, "'*'"),
            ("x ^ y", 4, "an integer exponent", "'y'"),
            ("x^", 2, "an integer exponent", "end of input"),
            ("x^65", 2, f"an exponent of at most {MAX_DEGREE}", "'65'"),
            ("x^002 + y^0065", 10, f"an exponent of at most {MAX_DEGREE}", "'0065'"),
            ("2*x*(x + y)^2*y^70", 16, f"an exponent of at most {MAX_DEGREE}", "'70'"),
            ("x^40*y^40", 4, DEGREE, "degree 80"),
            ("(x^10)^7", 7, DEGREE, "degree 70"),
            ("x^64*y", 4, DEGREE, "degree 65"),
            ("(x + y)^33*x^32", 10, DEGREE, "degree 65"),
            ("x*(x + y)^32*y^32", 12, DEGREE, "degree 65"),
            (f"{FIVE}^20", 20, PAIRS, "21840 term pairs"),
            (f"{FIVE}^11*{FIVE}", 22, PAIRS, "21840 term pairs"),
            # A one-term power is charged a pair per factor, a 1x1 product one pair.
            (f"{FIVE}^11" + " + x^64" * 78, 566, PAIRS, f"{MAX_PRODUCT_WORK + 1} term pairs"),
            (f"{FIVE}^11" + " + x*y" * 4986, 29936, PAIRS, f"{MAX_PRODUCT_WORK + 1} term pairs"),
            (f"1{'0' * MAX_COEFFICIENT_DIGITS}*x^2", 0,
             f"an integer of at most {MAX_COEFFICIENT_DIGITS} digits", "501 digits"),
            (f"x^{'0' * 501}", 2, f"an integer of at most {MAX_COEFFICIENT_DIGITS} digits",
             "501 digits"),
            (f"1/1{'0' * MAX_COEFFICIENT_DIGITS}*x^2", 2,
             f"an integer of at most {MAX_COEFFICIENT_DIGITS} digits", "501 digits"),
            ("((2^64)^64)^64*x^2", 8, LONG, "a longer one"),
            (f"({TEN_250})^2*x^2", 254, LONG, "a longer one"),
            (f"{'9' * 300}*{'9' * 300}*x^2", 300, LONG, "a longer one"),
            (f"1/{'9' * 300}*1/{'9' * 300}*x^2", 302, LONG, "a longer one"),
            (f"{BIG}*x^2 + {BIG}*x^2", 0, LONG, "a longer one"),
            (f"x^2 + ({BIG} + 1)*y^2", 7, LONG, "a longer one"),
            ("1/x", 2, "an integer denominator", "'x'"),
            ("1/", 2, "an integer denominator", "end of input"),
            ("1/0*x^2", 2, "a nonzero denominator", "0"),
            ("(" * 101 + "x" + ")" * 101, MAX_NESTING, f"at most {MAX_NESTING} nested parentheses",
             "'('"),
            ("(x + y", 6, "')'", "end of input"),
            ("(x y)", 3, "')'", "'y'"),
            ("x y", 2, "'+', '-' or end of input", "'y'"),
            ("x^3 + y^3)", 9, "'+', '-' or end of input", "')'"),
            ("x^2 + y^2 ٣", 10, "'+', '-' or end of input", "'٣'"),
            ("x^3*y^0", 4, VANISH, "'y', whose terms all vanish"),
            ("x^3 + 0*y^3", 8, VANISH, "'y', whose terms all vanish"),
            # A zero factor has degree 0, so the product after it stays in budget.
            ("0*x^40*y^40 + x^2", 7, VANISH, "'y', whose terms all vanish"),
        ],
    )
    def test_every_error_is_pinned(self, source, position, expected, found):
        with deadline(10), pytest.raises(ParseError) as excinfo:
            parse_function(source)
        error = excinfo.value
        assert (error.position, error.expected, error.found) == (position, expected, found)
        assert str(error) == (
            f"syntax error at position {position}: expected {expected}, found {found}"
        )

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(ParseError) as excinfo:
            parse_function("x + * y")
        assert excinfo.value.position == 4
        assert "expected" in str(excinfo.value)

    def test_not_homogeneous_reports_degree_pair(self):
        with pytest.raises(NotHomogeneous) as excinfo:
            parse_function("x^2 + y^3")
        assert excinfo.value.degrees == (2, 3)

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            parse_function("x")
        with pytest.raises(DegreeTooLow):
            parse_function("7")

    @pytest.mark.parametrize(
        "source, position",
        [("x^3*y^0", 4), ("x^3 + 0*y^3", 8), ("x^3 + y^3 - y^3", 6), ("x^3 + 0*y + w^3", 8)],
    )
    def test_vanishing_variable_names_its_first_occurrence(self, source, position):
        with pytest.raises(ParseError) as excinfo:
            parse_function(source)
        assert excinfo.value.position == position
        assert "'y', whose terms all vanish" in str(excinfo.value)

    def test_zero_polynomial_is_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            parse_function("x^2 - x^2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_function("")

    def test_deep_nesting_is_a_parse_error(self):
        source = "(" * 3000 + "x" + ")" * 3000 + "^2"
        with pytest.raises(ParseError) as excinfo:
            parse_function(source)
        assert excinfo.value.position == MAX_NESTING

    def test_nesting_up_to_the_limit_parses(self):
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING + "^2"
        assert parse_function(nested).terms == parse_function("x^2").terms

    def test_a_variable_past_the_coordinate_budget_is_refused_where_it_first_occurs(self):
        source = " + ".join(f"a{i}^2" for i in (*range(MAX_COORDINATES + 1), 0))
        with pytest.raises(ParseError) as excinfo:
            parse_function(source)
        first = f"a{MAX_COORDINATES}"
        error = excinfo.value
        assert (error.position, error.expected, error.found) == (
            source.index(first + "^"), f"at most {MAX_COORDINATES} variables", repr(first)
        )

    def test_a_form_at_the_coordinate_budget_parses(self):
        func = parse_function(" + ".join(f"a{i}^2" for i in range(MAX_COORDINATES)))
        assert func.d == MAX_COORDINATES

    def test_long_unary_minus_chain_parses(self):
        assert parse_function("- " * 3001 + "x^2").terms == parse_function("-x^2").terms


class TestDegreeBudget:
    @pytest.mark.parametrize(
        "source, position",
        [
            ("x^200000 + y^200000", 2),
            (f"x^{MAX_DEGREE + 1}", 2),
            (f"(x + y)^{MAX_DEGREE + 1}", 8),
            ("3^100000", 2),
        ],
    )
    def test_exponent_above_the_budget(self, source, position):
        with deadline(10), pytest.raises(ParseError) as excinfo:
            parse_function(source)
        assert excinfo.value.position == position
        assert f"an exponent of at most {MAX_DEGREE}" in str(excinfo.value)

    @pytest.mark.parametrize(
        "source, degree",
        [("x^40*y^40", 80), ("(x^10)^7", 70), ("(x + y)^33*x^32", 65), ("x^64*y", 65)],
    )
    def test_total_degree_above_the_budget(self, source, degree):
        with deadline(10), pytest.raises(ParseError) as excinfo:
            parse_function(source)
        assert f"a total degree of at most {MAX_DEGREE}" in str(excinfo.value)
        assert excinfo.value.found == f"degree {degree}"

    def test_degree_at_the_budget_parses(self):
        with deadline(10):
            func = parse_function(f"x^{MAX_DEGREE} + x^32*y^32 + (x*y)^32")
        assert func.delta == MAX_DEGREE

    def test_leading_zeros_in_an_exponent(self):
        assert parse_function("x^002").terms == parse_function("x^2").terms

    def test_overlong_integer_literal(self):
        with pytest.raises(ParseError) as excinfo:
            parse_function("x^2 + " + "7" * 5000 + "*y^2")
        assert excinfo.value.found == "5000 digits"


class TestCoefficientBudget:
    BIG = "9" * MAX_COEFFICIENT_DIGITS
    TEN_250 = "1" + "0" * 250

    @pytest.mark.parametrize(
        "source, value",
        [
            (f"{BIG}*x^2", int(BIG)),
            (f"1/{BIG}*x^2", Fraction(1, int(BIG))),
            (f"-{BIG}*x^2", -int(BIG)),
            (f"({TEN_250} - 1)*({TEN_250} + 1)*x^2", 10**500 - 1),
            (f"({BIG} + 2 - 1 - 1)*x^2", int(BIG)),
        ],
        ids=["literal", "denominator", "negative", "product", "sum"],
    )
    def test_coefficients_at_the_budget_parse(self, source, value):
        assert parse_function(source).terms == {(2,): Fraction(value)}

    @pytest.mark.parametrize(
        "source, position",
        [
            # At the exponent of the power, the operator of the product, or
            # the start of the sum that first exceeds the budget.
            ("((2^64)^64)^64*x^2", 8),
            (f"({TEN_250})^2*x^2", 254),
            (f"{'9' * 300}*{'9' * 300}*x^2", 300),
            (f"1/{'9' * 300}*1/{'9' * 300}*x^2", 302),
            (f"{BIG}*x^2 + {BIG}*x^2", 0),
            (f"x^2 + ({BIG} + 1)*y^2", 7),
            (f"(x + 3*y)^2*(x + {'9' * 499}*y)^2", 520),
        ],
        ids=[
            "nested powers",
            "power",
            "product",
            "denominator",
            "sum",
            "parenthesized sum",
            "power of a sum",
        ],
    )
    def test_computed_coefficients_above_the_budget(self, source, position):
        with deadline(10), pytest.raises(ParseError) as excinfo:
            parse_function(source)
        assert excinfo.value.position == position
        assert excinfo.value.expected == f"a coefficient of at most {MAX_COEFFICIENT_DIGITS} digits"

    @pytest.mark.parametrize("literal", ["1" + "0" * MAX_COEFFICIENT_DIGITS, "0" + BIG])
    def test_literals_above_the_budget(self, literal):
        for source in (f"{literal}*x^2", f"1/{literal}*x^2", f"x^{literal}"):
            with pytest.raises(ParseError) as excinfo:
                parse_function(source)
            assert excinfo.value.found == f"{MAX_COEFFICIENT_DIGITS + 1} digits"


class TestProductBudget:
    @pytest.mark.parametrize(
        "source, position",
        [
            ("(x + y + w + v + u)^20", 20),
            ("(x + y + w + v + u)^64", 20),
            ("(x + y + w + v + u)^10 + (x + y + w + v + u)^10", 45),
            ("(x + y + 1)^64", 12),
        ],
    )
    def test_products_above_the_budget(self, source, position):
        with deadline(10), pytest.raises(ParseError) as excinfo:
            parse_function(source)
        assert excinfo.value.position == position
        assert f"products of at most {MAX_PRODUCT_WORK} term pairs in all" in str(excinfo.value)

    def test_power_at_the_budget_parses(self):
        # 5 * (1 + 5 + ... + 1001) = 15015 term pairs: 1365 terms of degree 11
        with deadline(10):
            func = parse_function("(x + y + w + v + u)^11")
        assert len(func.terms) == 1365

    def test_single_term_power_charges_one_pair_per_factor(self):
        # 15015 pairs for the sum's power, 64 per x^64: the 78th x^64 passes
        # the budget at its 58th one-pair product.
        source = "(x + y + w + v + u)^11" + " + x^64" * 78
        with pytest.raises(ParseError) as excinfo:
            parse_polynomial(source)
        assert excinfo.value.position == len(source) - 2
        assert excinfo.value.found == f"{MAX_PRODUCT_WORK + 1} term pairs"
        assert len(parse_polynomial(source[: -len(" + x^64")])[0]) == 1366

    @pytest.mark.parametrize(
        "base, exponent",
        [
            ("x", 0), ("-2*x*y^2", 5), ("3/2*w", 3), ("-1", 7), ("x*y", 32),
            ("2", 0), ("0", 3), ("0", 0),
        ],
    )
    def test_single_term_power_is_repeated_product(self, base, exponent):
        power = parse_polynomial(f"({base})^{exponent}")[0]
        assert power == Poly.of(parse_polynomial(base)[0]) ** exponent

    def test_power_is_repeated_product(self):
        base = Poly.of(parse_polynomial("x + 2*y - 3*w")[0])
        assert parse_polynomial("(x + 2*y - 3*w)^5")[0] == base**5
        assert parse_polynomial("(x + 2*y - 3*w)^0")[0] == base**0


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [entry.source for entry in CORPUS]
        + list(NON_ISOLATED_SOURCES)
        + ["1/2*x^2 + 1/2*y^2", "-x^2 - y^2", "(x + y)^3"],
    )
    def test_print_then_parse_is_identity(self, source):
        func = parse_function(source)
        assert parse_function(format_function(func)) == func

    def test_printed_form_uses_the_grammar(self):
        text = format_function(parse_function("y^3 + 2*x^2*y - 1/3*x^3"))
        assert "^" in text and "*" in text
        assert "_" not in text  # ambient rendering, no conformal indices



# -- the grammar against the reference ring ------------------------------------

# An expression tree: ("name", s), ("int", n), ("ratio", p, q), ("neg", t),
# ("+", a, b), ("-", a, b), ("*", a, b), ("^", t, n) or ("()", t).
_TREE_NAMES = ("x", "y", "w2", "v")

_names = st.tuples(st.just("name"), st.sampled_from(_TREE_NAMES))
# Names are drawn twice as often as each kind of constant.
_leaves = st.one_of(
    _names,
    _names,
    st.tuples(st.just("int"), st.integers(0, 12)),
    st.tuples(st.just("ratio"), st.integers(0, 9), st.integers(1, 9)),
)


@st.composite
def _trees(draw, size: int | None = None):
    """A tree of about `size` nodes, drawn from 1 to 12 when not given."""
    if size is None:
        size = draw(st.integers(1, 12))
    if size == 1:
        return draw(_leaves)
    kind = draw(st.sampled_from(("+", "-", "*", "*", "neg", "^", "()", "cancel", "square")))
    if kind in ("neg", "()"):
        return (kind, draw(_trees(size - 1)))
    if kind == "^":
        return ("^", draw(_trees(size - 1)), draw(st.integers(0, 3)))
    left = draw(st.integers(1, size - 1))
    a, b = draw(_trees(left)), draw(_trees(size - left))
    # terms that cancel: a + b - a, and b + a*a - a^2
    if kind == "cancel":
        return ("-", ("+", a, b), a)
    if kind == "square":
        return ("-", ("+", b, ("*", a, a)), ("^", a, 2))
    return (kind, a, b)


# The binding level of each node: sums, unary minus, products, powers; any
# other node is an atom (level 4).
_LEVEL = {"+": 0, "-": 0, "neg": 1, "*": 2, "^": 3}


def _render(tree, at_least: int = 0) -> str:
    """Source text of the tree, parenthesized where it binds more loosely than
    its place in the grammar allows."""
    kind = tree[0]
    if kind == "name":
        text = tree[1]
    elif kind == "int":
        text = str(tree[1])
    elif kind == "ratio":
        text = f"{tree[1]}/{tree[2]}"
    elif kind == "()":
        text = f"({_render(tree[1])})"
    elif kind in ("+", "-"):
        text = f"{_render(tree[1], 0)} {kind} {_render(tree[2], 1)}"
    elif kind == "neg":
        text = "-" + _render(tree[1], 1)
    elif kind == "*":
        text = f"{_render(tree[1], 2)}*{_render(tree[2], 3)}"
    else:
        text = f"{_render(tree[1], 4)}^{tree[2]}"
    return f"({text})" if _LEVEL.get(kind, 4) < at_least else text


def _evaluate(tree, coords: dict[str, int]) -> Poly:
    """The tree's polynomial by the reference ring's arithmetic; `coords`
    numbers the names in the order the source first shows them."""
    kind = tree[0]
    if kind == "name":
        return Poly.variable(LoopVar(coords.setdefault(tree[1], len(coords) + 1), 0))
    if kind == "int":
        return Poly.constant(tree[1])
    if kind == "ratio":
        return Poly.constant(Fraction(tree[1], tree[2]))
    if kind == "()":
        return _evaluate(tree[1], coords)
    if kind == "neg":
        return -_evaluate(tree[1], coords)
    if kind == "^":
        return _evaluate(tree[1], coords) ** tree[2]
    a, b = _evaluate(tree[1], coords), _evaluate(tree[2], coords)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _degree_bound(tree) -> int:
    kind = tree[0]
    if kind == "name":
        return 1
    if kind in ("int", "ratio"):
        return 0
    if kind in ("()", "neg"):
        return _degree_bound(tree[1])
    if kind == "^":
        return _degree_bound(tree[1]) * tree[2]
    if kind == "*":
        return _degree_bound(tree[1]) + _degree_bound(tree[2])
    return max(_degree_bound(tree[1]), _degree_bound(tree[2]))


@settings(deadline=None, max_examples=200)
@given(_trees())
def test_grammar_matches_loop_poly_arithmetic(tree):
    # Degree 10 keeps every input well inside MAX_DEGREE and MAX_PRODUCT_WORK.
    assume(_degree_bound(tree) <= 10)
    source = _render(tree)
    terms, names = _Parser(source).parse()
    coords: dict[str, int] = {}
    expected = _evaluate(tree, coords)
    assert names == tuple(coords)
    assert terms == exponent_terms(expected, len(names))


# -- the printers against the three they replaced ------------------------------
#
# Before one term renderer served them all, the package wrote polynomials
# three ways: the parser's source printer, LoopPoly.to_string and
# Monomial.__str__.  The copies below are those printers, kept as references.


def _reference_coefficient_source(coeff: Fraction) -> str:
    mag = abs(coeff)
    return str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"


def _reference_poly_to_source(poly: LoopPoly, names: Sequence[str]) -> str:
    if not poly:
        return "0"
    parts: list[str] = []
    for i, (mono, coeff) in enumerate(poly.terms):
        factors = "*".join(
            names[v.coord - 1] if e == 1 else f"{names[v.coord - 1]}^{e}"
            for v, e in mono.factors
        )
        mag = abs(coeff)
        if not mono.factors:
            body = _reference_coefficient_source(coeff)
        elif mag == 1:
            body = factors
        else:
            body = f"{_reference_coefficient_source(coeff)}*{factors}"
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _reference_to_string(poly: LoopPoly, names: Sequence[str] | None = None) -> str:
    if not poly.terms:
        return "0"

    if names is None:
        top = max((v.coord for v in poly.variables()), default=1)
        names = ("z",) if top == 1 else tuple(f"z{i}" for i in range(1, top + 1))

    @functools.cache
    def factor_text(factor: tuple[LoopVar, int]) -> str:
        (cdeg, coord), e = factor
        name = f"{names[coord - 1]}_{cdeg}"
        return name if e == 1 else f"{name}^{e}"

    @functools.cache
    def coeff_text(coeff: Fraction) -> tuple[str, str, str, str]:
        mag = abs(coeff)
        lead, sign = ("", "+ ") if coeff > 0 else ("-", "- ")
        return lead, sign, "" if mag == 1 else f"{mag}*", str(mag)

    parts: list[str] = []
    for mono, coeff in poly.terms:
        lead, sign, prefix, mag = coeff_text(coeff)
        body = prefix + "*".join(map(factor_text, mono.factors)) if mono.factors else mag
        parts.append((sign if parts else lead) + body)
    return " ".join(parts)


def _reference_monomial_str(mono: Monomial) -> str:
    if not mono.factors:
        return "1"
    return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in mono.factors)


def _assert_printers_agree(poly: LoopPoly, names: Sequence[str]) -> None:
    for naming in (names, None):
        assert poly.to_string(naming) == _reference_to_string(poly, naming)
    for mono, _ in poly.terms:
        assert str(mono) == _reference_monomial_str(mono)


PRINTER_SOURCES = (
    [entry.source for entry in CORPUS]
    + list(NON_ISOLATED_SOURCES)
    + [
        # GL transforms of Fermat forms, the second and third dense.
        "(x + 2*y)^3 + (3*x - y)^3",
        "(x + 2*y - w)^3 + (3*x - y + w)^3 + (x + y + 2*w)^3",
        "(x + 2*y - w + v)^4 + (3*x - y + w - 2*v)^4 + (x + y + 2*w + 3*v)^4"
        " + (2*x - y - 3*w + v)^4",
        "1/2*x^2 - 3/7*y^2",
        # Negative and unit leading terms, constants among them.
        "-x^3 + 2*y^3",
        "-1/3*x^2*y + y^3",
        "-z^2",
        "x",
        "-x + 5/2",
        "1",
        "-1",
        "-2/5",
        "0",
        "3 - x*y + y",
    ]
)


@pytest.mark.parametrize("source", PRINTER_SOURCES)
def test_printers_match_their_references(source):
    poly, names = parse_polynomial(source)
    terms = exponent_terms(poly, len(names)).items()
    assert poly_to_source(terms, names) == _reference_poly_to_source(poly, names)
    _assert_printers_agree(poly, names)
    try:
        func = parse_function(source)
    except (DegreeTooLow, NotHomogeneous):
        return
    # The loop functional: negative conformal degrees and multinomial weights.
    _assert_printers_agree(lambda_of(func, minimal_window(func, 1)), func.names)


_printer_polys = st.dictionaries(
    st.dictionaries(
        st.builds(LoopVar, st.integers(1, 3), st.integers(-3, 3)), st.integers(1, 4), max_size=3
    ).map(Monomial),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    max_size=6,
).map(LoopPoly)


@settings(deadline=None)
@given(_printer_polys, st.sampled_from([("z",), ("x", "y", "w"), ("a1", "b", "c22")]))
def test_printers_match_their_references_on_drawn_polynomials(poly, names):
    if len(names) == 1:
        poly = rename_variables(poly, lambda v: LoopVar(1, v.cdeg))
    ambient = rename_variables(poly, lambda v: LoopVar(v.coord, 0))
    terms = exponent_terms(ambient, len(names)).items()
    assert poly_to_source(terms, names) == _reference_poly_to_source(ambient, names)
    _assert_printers_agree(poly, names)


def _assert_prints_from_exponents(func: InputFunction) -> None:
    text = format_function(func)
    assert text == _reference_poly_to_source(ambient_poly(func), func.names)
    assert text == poly_to_source(sorted(func.terms.items()), func.names)
    assert parse_function(text) == func


# repr(InputFunction) writes F in decreasing grevlex order, each coordinate
# as its variable of conformal degree 0.
REPRS = {
    "z^2": "InputFunction(d=1, delta=2, poly=z_0^2)",
    "z^3": "InputFunction(d=1, delta=3, poly=z_0^3)",
    "z^5": "InputFunction(d=1, delta=5, poly=z_0^5)",
    "x^2 + y^2": "InputFunction(d=2, delta=2, poly=y_0^2 + x_0^2)",
    "x^3 + y^3": "InputFunction(d=2, delta=3, poly=y_0^3 + x_0^3)",
    "x^4 + y^4": "InputFunction(d=2, delta=4, poly=y_0^4 + x_0^4)",
    "x^2 + y^2 + w^2": "InputFunction(d=3, delta=2, poly=w_0^2 + y_0^2 + x_0^2)",
    "x^3 + y^3 + w^3": "InputFunction(d=3, delta=3, poly=w_0^3 + y_0^3 + x_0^3)",
    "x^3 + y^3 + w^3 + x*y*w": (
        "InputFunction(d=3, delta=3, poly=w_0^3 + y_0^3 + x_0*y_0*w_0 + x_0^3)"
    ),
    "x^4 + 3*x^2*y^2 + y^4": "InputFunction(d=2, delta=4, poly=y_0^4 + 3*x_0^2*y_0^2 + x_0^4)",
    "x^3*y + y^3*w + w^3*x": (
        "InputFunction(d=3, delta=4, poly=y_0^3*w_0 + x_0*w_0^3 + x_0^3*y_0)"
    ),
    "x^2*y + y^2*w + w^2*x": (
        "InputFunction(d=3, delta=3, poly=y_0^2*w_0 + x_0*w_0^2 + x_0^2*y_0)"
    ),
    "x^3*y + y^3*w + w^4": "InputFunction(d=3, delta=4, poly=w_0^4 + y_0^3*w_0 + x_0^3*y_0)",
    "x^2*y + y^2*w + w^2*v + v^2*x": (
        "InputFunction(d=4, delta=3, poly=w_0^2*v_0 + y_0^2*w_0 + x_0*v_0^2 + x_0^2*y_0)"
    ),
    "x^2*y + y^2*w + w^2*v + v^3": (
        "InputFunction(d=4, delta=3, poly=v_0^3 + w_0^2*v_0 + y_0^2*w_0 + x_0^2*y_0)"
    ),
    "x^5 + x*y^4 + y^5": "InputFunction(d=2, delta=5, poly=y_0^5 + x_0*y_0^4 + x_0^5)",
    "1/2*x^2 - 3/7*y^2": "InputFunction(d=2, delta=2, poly=-3/7*y_0^2 + 1/2*x_0^2)",
    "-1/3*x^2*y + y^3": "InputFunction(d=2, delta=3, poly=y_0^3 - 1/3*x_0^2*y_0)",
}


def test_reprs_cover_the_corpus():
    assert {entry.source for entry in CORPUS} <= set(REPRS)


@pytest.mark.parametrize("source", sorted(REPRS))
def test_repr_is_pinned(source):
    assert repr(parse_function(source)) == REPRS[source]


@pytest.mark.parametrize("source", PRINTER_SOURCES)
def test_function_printer_matches_its_reference(source):
    try:
        func = parse_function(source)
    except (DegreeTooLow, NotHomogeneous):
        return
    _assert_prints_from_exponents(func)


def test_function_printer_matches_its_reference_on_the_benchmark():
    for case in bench_module("workloads").generate("jacobian", 1, 20.0):
        _assert_prints_from_exponents(parse_function(case.source))


@settings(deadline=None)
@given(homogeneous_forms(), st.sampled_from([("x", "y", "w", "v"), ("a1", "b", "c22", "z")]))
def test_function_printer_matches_its_reference_on_drawn_forms(terms, pool):
    _assert_prints_from_exponents(InputFunction(terms, pool[: len(next(iter(terms)))]))


class TestFunctionFile:
    def test_comments_are_skipped(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("# the plane cubic\n# second comment\nx^3 + y^3\n")
        assert read_function_file(str(path)) == "x^3 + y^3"

    def test_expression_may_span_lines(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("# comment\nx^3 +\ny^3\n")
        assert parse_function(read_function_file(str(path))) == parse_function("x^3 + y^3")

    def test_lines_end_as_in_a_text_file(self, tmp_path):
        # \r and \r\n end a line; a form feed does not, so "x^2" stays in the comment
        path = tmp_path / "input.txt"
        path.write_bytes(b"# note\r\n# a\x0cx^2\rx^3 +\r\ny^3\n")
        assert read_function_file(str(path)) == "x^3 + y^3"

    @pytest.mark.parametrize(
        "data",
        [b"\xef\xbb\xbfx^3 + y^3\n", b"\xef\xbb\xbf# the plane cubic\nx^3 + y^3\n"],
        ids=["expression", "comment"],
    )
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        assert read_function_file(str(path)) == "x^3 + y^3"

    def test_a_file_at_the_bound_is_read(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"x^3 + y^3" + b" " * (MAX_SOURCE_BYTES - 9))
        assert read_function_file(str(path)) == "x^3 + y^3"

    def test_a_file_past_the_bound_is_refused(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"x^3 + y^3" + b" " * (MAX_SOURCE_BYTES - 8))
        with pytest.raises(OSError, match=f"longer than {MAX_SOURCE_BYTES} bytes") as excinfo:
            read_function_file(str(path))
        assert excinfo.value.filename == str(path)

    def test_a_bad_byte_after_a_mark_is_reported_at_its_file_offset(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(OSError, match="not UTF-8 text at byte 5"):
            read_function_file(str(path))
