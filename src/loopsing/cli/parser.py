"""Expression parser and printer for ambient polynomials.

Grammar: identifiers [A-Za-z][A-Za-z0-9]* are variables, integer and rational
(p/q) literals are constants, operators are + - * ^ with precedence
^ > * > unary minus > binary +/-, explicit * is required (no juxtaposition),
parentheses group.  Ambient coordinates are numbered in order of first
occurrence.

The grammar is evaluated with a small dict arithmetic: a value is its terms,
{exponent vector: coefficient}, entry i of a vector being the exponent of
coordinate i+1, equal vectors merged, zero coefficients pruned and trailing
zero exponents left off until parse() pads every vector to the coordinate
count.  parse_function hands the terms to InputFunction, which keeps this form.
"""

from __future__ import annotations

import errno
import io
import re
from collections.abc import Sequence
from fractions import Fraction
from operator import add

from ..exactalg import LoopPoly, format_terms
from ..loopfun import InputFunction

__all__ = [
    "ParseError",
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

# Bound on the decimal digits of the numerator and of the denominator of every
# coefficient the parser reads or computes.  A printed coefficient is one of
# F's, times at most 64 in a partial or a multinomial coefficient of at most
# 64! (90 digits) in a jet, so it stays under 640 digits, the least limit the
# interpreter can set on integer-to-string conversion.
MAX_COEFFICIENT_DIGITS = 500
_COEFFICIENT_LIMIT = 10**MAX_COEFFICIENT_DIGITS

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/])")

_Terms = dict[tuple[int, ...], int | Fraction]


def _tokenize(source: str) -> list[re.Match[str]]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(pos, "a number, variable or operator", repr(source[pos]))
        tokens.append(match)
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

    def _peek(self) -> re.Match[str] | None:
        return self.tokens[self.cursor] if self.cursor < len(self.tokens) else None

    def _take(self) -> re.Match[str]:
        token = self._peek()
        if token is None:
            raise ParseError(len(self.source), "more input", "end of input")
        self.cursor += 1
        return token

    def _fail(self, expected: str) -> ParseError:
        token = self._peek()
        if token is None:
            return ParseError(len(self.source), expected, "end of input")
        return ParseError(token.start(), expected, repr(token[0]))

    def parse(self) -> tuple[_Terms, tuple[str, ...]]:
        """The expression's terms, one vector entry per coordinate, and the coordinate names."""
        terms = self._expression()
        if self._peek() is not None:
            raise self._fail("'+', '-' or end of input")
        d = len(self.coords)
        return {e + (0,) * (d - len(e)): c for e, c in terms.items()}, tuple(self.coords)

    def _expression(self) -> _Terms:
        # The signed operands are summed into one dict, pruned once at the end.
        start = self._peek()
        total: _Terms = {}
        negate = False
        while True:
            while (token := self._peek()) is not None and token[0] == "-":
                self._take()
                negate = not negate
            for e, c in self._product().items():
                total[e] = total.get(e, 0) + (-c if negate else c)
            token = self._peek()
            if token is None or token[0] not in ("+", "-"):
                return _check_coefficients(start, {e: c for e, c in total.items() if c})
            negate = self._take()[0] == "-"

    def _product(self) -> _Terms:
        terms = self._power()
        while (token := self._peek()) is not None and token[0] == "*":
            self._take()
            factor = self._power()
            _check_degree(token, _degree(terms) + _degree(factor))
            terms = self._times(token, terms, factor)
        return terms

    def _power(self) -> _Terms:
        base = self._atom()
        token = self._peek()
        if token is not None and token[0] == "^":
            self._take()
            exp_token = self._peek()
            if exp_token is None or exp_token.lastgroup != "int":
                raise self._fail("an integer exponent")
            exponent = _int_value(self._take())
            if exponent > MAX_DEGREE:
                raise ParseError(
                    exp_token.start(), f"an exponent of at most {MAX_DEGREE}", repr(exp_token[0])
                )
            _check_degree(exp_token, _degree(base) * exponent)
            if len(base) == 1:
                # (c*x^e)^n is c^n*x^(n*e), charged as n one-pair products that
                # stop at the first pair past the budget.
                self._charge(exp_token, min(exponent, MAX_PRODUCT_WORK + 1 - self.work))
                ((e, c),) = base.items()
                return _check_coefficients(
                    exp_token, {tuple(x * exponent for x in e) if exponent else (): c**exponent}
                )
            power: _Terms = {(): 1}
            for _ in range(exponent):
                power = self._times(exp_token, power, base)
            return power
        return base

    def _times(self, token: re.Match[str], a: _Terms, b: _Terms) -> _Terms:
        """a * b, rejected before it is built when it exhausts MAX_PRODUCT_WORK."""
        self._charge(token, len(a) * len(b))
        product: _Terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                # At most one of the vectors has entries past the other's end.
                e = (*map(add, ea, eb), *ea[len(eb) :], *eb[len(ea) :])
                product[e] = product.get(e, 0) + ca * cb
        return _check_coefficients(token, {e: c for e, c in product.items() if c})

    def _charge(self, token: re.Match[str], pairs: int) -> None:
        """Count `pairs` more term pairs, rejecting them when they exhaust MAX_PRODUCT_WORK."""
        self.work += pairs
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(
                token.start(),
                f"products of at most {MAX_PRODUCT_WORK} term pairs in all",
                f"{self.work} term pairs",
            )

    def _atom(self) -> _Terms:
        token = self._peek()
        if token is None:
            raise self._fail("a number, variable or '('")
        if token.lastgroup == "int":
            value: int | Fraction = _int_value(self._take())
            nxt = self._peek()
            if nxt is not None and nxt[0] == "/":
                self._take()
                den_token = self._peek()
                if den_token is None or den_token.lastgroup != "int":
                    raise self._fail("an integer denominator")
                denominator = _int_value(self._take())
                if denominator == 0:
                    raise ParseError(den_token.start(), "a nonzero denominator", "0")
                value = Fraction(value, denominator)
            return {(): value} if value else {}
        if token.lastgroup == "name":
            self._take()
            coord, _ = self.coords.setdefault(token[0], (len(self.coords) + 1, token.start()))
            return {(0,) * (coord - 1) + (1,): 1}
        if token[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    token.start(), f"at most {MAX_NESTING} nested parentheses", "'('"
                )
            self._take()
            self.depth += 1
            inner = self._expression()
            self.depth -= 1
            closing = self._peek()
            if closing is None or closing[0] != ")":
                raise self._fail("')'")
            self._take()
            return inner
        raise self._fail("a number, variable or '('")


def _int_value(token: re.Match[str]) -> int:
    if len(token[0]) > MAX_COEFFICIENT_DIGITS:
        raise ParseError(
            token.start(),
            f"an integer of at most {MAX_COEFFICIENT_DIGITS} digits",
            f"{len(token[0])} digits",
        )
    return int(token[0])


def _check_coefficients(token: re.Match[str], terms: _Terms) -> _Terms:
    """terms, when no numerator or denominator exceeds MAX_COEFFICIENT_DIGITS digits."""
    for c in terms.values():
        if not (
            -_COEFFICIENT_LIMIT < c.numerator < _COEFFICIENT_LIMIT
            and c.denominator < _COEFFICIENT_LIMIT
        ):
            raise ParseError(
                token.start(),
                f"a coefficient of at most {MAX_COEFFICIENT_DIGITS} digits",
                "a longer one",
            )
    return terms


def _degree(terms: _Terms) -> int:
    return max(map(sum, terms), default=0)


def _check_degree(token: re.Match[str], degree: int) -> None:
    """Reject a product or power of total degree above MAX_DEGREE before it is built."""
    if degree > MAX_DEGREE:
        raise ParseError(
            token.start(), f"a total degree of at most {MAX_DEGREE}", f"degree {degree}"
        )


def parse_function(source: str) -> InputFunction:
    """Parse and validate a homogeneous input function.

    The coordinate count is inferred from the variable set and the degree from
    homogeneity; mixed degrees raise NotHomogeneous with the offending pair,
    degree below 2 raises DegreeTooLow.  A variable of a nonzero input whose
    terms all cancel or have exponent 0 raises ParseError at its first
    occurrence.
    """
    parser = _Parser(source)
    terms, names = parser.parse()
    if terms:
        # A variable without a term would leave a coordinate that F lacks.
        for name, (coord, position) in parser.coords.items():
            if not any(e[coord - 1] for e in terms):
                raise ParseError(
                    position,
                    "every variable to occur in a nonzero term",
                    f"{name!r}, whose terms all vanish",
                )
    return InputFunction(terms, names)


def read_function_file(path: str) -> str:
    """Read one expression from a file: every line that is not blank and does
    not start with #, joined by spaces.  One leading byte-order mark is dropped.

    A file that is not UTF-8 text raises OSError naming the file and the
    offset of its first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
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
