"""Expression parser and printer for ambient polynomials.

Grammar: identifiers [A-Za-z][A-Za-z0-9]* are variables, integer and rational
(p/q) literals are constants, operators are + - * ^ with precedence
^ > * > unary minus > binary +/-, explicit * is required (no juxtaposition),
parentheses group.  Ambient coordinates are numbered in order of first
occurrence.
"""

from __future__ import annotations

import errno
import io
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..exactalg import LoopPoly, LoopVar, Monomial, format_terms
from ..loopfun import InputFunction

__all__ = [
    "ParseError",
    "parse_polynomial",
    "parse_function",
    "read_function_file",
    "format_function",
    "poly_to_source",
    "loop_poly_string",
]


class ParseError(ValueError):
    """Syntax error with position and the tokens that were expected."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected {expected}, found {found}"
        )


# Each level of parentheses costs the recursive-descent parser five Python
# frames; this keeps a deep input well inside the interpreter's recursion limit.
MAX_NESTING = 100

# Bound on exponents and on the total degree of every product.  The size of a
# loop functional grows steeply with the degree; test and benchmark inputs
# have degree 10 or less.
MAX_DEGREE = 64

# Bound on the term pairs that the products of one input multiply in all, a
# power counting as repeated products.  It keeps powers of long sums, such as
# (x+y+w+v+u)^20, from running for seconds; test and benchmark inputs need
# a few hundred pairs at most.
MAX_PRODUCT_WORK = 20_000

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/])")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(pos, "a number, variable or operator", repr(source[pos]))
        kind = match.lastgroup or "op"
        tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.cursor = 0
        self.depth = 0
        self.work = 0
        # Variable name -> (coordinate, position of its first occurrence).
        self.coords: dict[str, tuple[int, int]] = {}

    def _peek(self) -> _Token | None:
        return self.tokens[self.cursor] if self.cursor < len(self.tokens) else None

    def _take(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(len(self.source), "more input", "end of input")
        self.cursor += 1
        return token

    def _fail(self, expected: str) -> ParseError:
        token = self._peek()
        if token is None:
            return ParseError(len(self.source), expected, "end of input")
        return ParseError(token.position, expected, repr(token.text))

    def parse(self) -> tuple[LoopPoly, tuple[str, ...]]:
        poly = self._expression()
        if self._peek() is not None:
            raise self._fail("'+', '-' or end of input")
        return poly, tuple(self.coords)

    def _expression(self) -> LoopPoly:
        # The signed operands' terms are collected and merged by one LoopPoly
        # at the end, so a long sum costs one sort instead of one per operand.
        terms = list(self._signed().terms)
        while True:
            token = self._peek()
            if token is None or token.text not in ("+", "-"):
                return LoopPoly(terms)
            self._take()
            operand = self._signed()
            terms.extend(operand.terms if token.text == "+" else (-operand).terms)

    def _signed(self) -> LoopPoly:
        negate = False
        while (token := self._peek()) is not None and token.text == "-":
            self._take()
            negate = not negate
        poly = self._product()
        return -poly if negate else poly

    def _product(self) -> LoopPoly:
        poly = self._power()
        while True:
            token = self._peek()
            if token is None or token.text != "*":
                return poly
            self._take()
            factor = self._power()
            _check_degree(token, _degree(poly) + _degree(factor))
            poly = self._times(token, poly, factor)

    def _power(self) -> LoopPoly:
        base = self._atom()
        token = self._peek()
        if token is not None and token.text == "^":
            self._take()
            exp_token = self._peek()
            if exp_token is None or exp_token.kind != "int":
                raise self._fail("an integer exponent")
            self._take()
            exponent = _int_value(exp_token)
            if exponent > MAX_DEGREE:
                raise ParseError(
                    exp_token.position, f"an exponent of at most {MAX_DEGREE}", repr(exp_token.text)
                )
            _check_degree(exp_token, _degree(base) * exponent)
            if len(base) == 1:
                # One term c*m: the power is c^e * m^e, built directly.  It is
                # charged as e one-pair products, which stop at the first
                # pair past the budget.
                self._charge(exp_token, min(exponent, MAX_PRODUCT_WORK + 1 - self.work))
                ((mono, coeff),) = base.terms
                return LoopPoly.term(
                    Monomial((v, x * exponent) for v, x in mono.factors), coeff**exponent
                )
            power = LoopPoly.constant(1)
            for _ in range(exponent):
                power = self._times(exp_token, power, base)
            return power
        return base

    def _times(self, token: _Token, a: LoopPoly, b: LoopPoly) -> LoopPoly:
        """a * b, rejected before it is built when it exhausts MAX_PRODUCT_WORK."""
        self._charge(token, len(a) * len(b))
        return a * b

    def _charge(self, token: _Token, pairs: int) -> None:
        """Count `pairs` more term pairs, rejecting them when they exhaust MAX_PRODUCT_WORK."""
        self.work += pairs
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(
                token.position,
                f"products of at most {MAX_PRODUCT_WORK} term pairs in all",
                f"{self.work} term pairs",
            )

    def _atom(self) -> LoopPoly:
        token = self._peek()
        if token is None:
            raise self._fail("a number, variable or '('")
        if token.kind == "int":
            self._take()
            numerator = _int_value(token)
            nxt = self._peek()
            if nxt is not None and nxt.text == "/":
                self._take()
                den_token = self._peek()
                if den_token is None or den_token.kind != "int":
                    raise self._fail("an integer denominator")
                self._take()
                denominator = _int_value(den_token)
                if denominator == 0:
                    raise ParseError(den_token.position, "a nonzero denominator", "0")
                return LoopPoly.constant(Fraction(numerator, denominator))
            return LoopPoly.constant(numerator)
        if token.kind == "name":
            self._take()
            coord, _ = self.coords.setdefault(
                token.text, (len(self.coords) + 1, token.position)
            )
            return LoopPoly.variable(LoopVar(coord, 0))
        if token.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    token.position, f"at most {MAX_NESTING} nested parentheses", "'('"
                )
            self._take()
            self.depth += 1
            inner = self._expression()
            self.depth -= 1
            closing = self._peek()
            if closing is None or closing.text != ")":
                raise self._fail("')'")
            self._take()
            return inner
        raise self._fail("a number, variable or '('")


def _int_value(token: _Token) -> int:
    try:
        return int(token.text)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            token.position, f"an integer of at most {limit} digits", f"{len(token.text)} digits"
        ) from None


def _degree(poly: LoopPoly) -> int:
    # The leading monomial has the largest degree in a graded order.
    return poly.leading_monomial.degree if poly else 0


def _check_degree(token: _Token, degree: int) -> None:
    """Reject a product or power of total degree above MAX_DEGREE before it is built."""
    if degree > MAX_DEGREE:
        raise ParseError(
            token.position, f"a total degree of at most {MAX_DEGREE}", f"degree {degree}"
        )


def parse_polynomial(source: str) -> tuple[LoopPoly, tuple[str, ...]]:
    """Parse an expression into an ambient polynomial plus coordinate names."""
    return _Parser(source).parse()


def parse_function(source: str) -> InputFunction:
    """Parse and validate a homogeneous input function.

    The coordinate count is inferred from the variable set and the degree from
    homogeneity; mixed degrees raise NotHomogeneous with the offending pair,
    degree below 2 raises DegreeTooLow.  A variable of a nonzero input whose
    terms all cancel or have exponent 0 raises ParseError at its first
    occurrence.
    """
    parser = _Parser(source)
    poly, names = parser.parse()
    if poly:
        # A variable without a term would leave a gap in the coordinates.
        present = {v.coord for v in poly.variables()}
        for name, (coord, position) in parser.coords.items():
            if coord not in present:
                raise ParseError(
                    position,
                    "every variable to occur in a nonzero term",
                    f"{name!r}, whose terms all vanish",
                )
    return InputFunction(poly, names=names or None)


def read_function_file(path: str) -> str:
    """Read one expression from a file, skipping leading # comment lines.

    A file that is not UTF-8 text raises OSError naming the file and the
    offset of its first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text at byte {exc.start}", path) from None
    lines = [line.strip() for line in io.StringIO(text, newline=None)]
    body = [line for line in lines if line and not line.startswith("#")]
    return " ".join(body)


def poly_to_source(poly: LoopPoly, names: Sequence[str]) -> str:
    """Render an ambient polynomial back into the expression grammar."""
    return format_terms(poly.terms, lambda var: names[var.coord - 1])


def format_function(func: InputFunction) -> str:
    """Source form of an input function; it reparses to an equal InputFunction.

    The text need not be a fixed point: reparsing numbers coordinates by first use.
    """
    return poly_to_source(func.poly, func.names)


def loop_poly_string(poly: LoopPoly, names: Sequence[str]) -> str:
    """Display form of a loop polynomial, variables as name_cdeg (e.g. x_-2)."""
    return poly.to_string(names)
