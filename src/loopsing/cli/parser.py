"""Expression parser for ambient polynomials, and F's source form.

Grammar: identifiers [A-Za-z][A-Za-z0-9]* are variables, integer and rational
(p/q) literals are constants, operators are + - * ^ with precedence
^ > * > unary minus > binary +/-, explicit * is required (no juxtaposition),
parentheses group.  Ambient coordinates are numbered in order of first
occurrence.

The grammar is evaluated on terms {exponent vector: coefficient}, equal
vectors merged and zero coefficients pruned.  In the parser a vector is one
int, byte i (little-endian) the exponent of coordinate i+1: a product of
monomials adds ints, a power scales one, and the total degree is the int
modulo 255.  That is exact while no degree reaches 255, which the degree bound,
checked before any product or power is built, guarantees.  parse() unpacks
each vector to one entry per coordinate, the form InputFunction keeps.

While the factors of a product are single terms (a constant, a variable, a
power of one, or parentheses holding one term), the product so far is the
pair (vector, coefficient) and no dict is built; a factor of several terms,
or of none, is multiplied by dict arithmetic.  Either way a product is
charged its term pairs and checked where the dict product would be.
"""

from __future__ import annotations

import errno
import io
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ..exactalg import poly_to_source
from ..loopfun import InputFunction, _Jet

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
# have degree 10 or less.  The parser's packed exponent vectors need it below 255.
MAX_DEGREE = 64

# Bound on the variables, which become F's coordinates.  The Milnor count
# (`grobner._staircase`) recurses once per coordinate, and under the
# interpreter's default limit of 1,000 frames it failed at 995.  This bound
# leaves some 700 frames to any caller, pytest included; a default report on
# a diagonal quadric at the bound takes about 0.2 s (2-vCPU Xeon).
MAX_COORDINATES = 256

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

# Bound on the bytes of an input file; reading stops one byte past it.
MAX_SOURCE_BYTES = 1 << 20

_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/])|(?P<bad>\S)"
)

# Terms keyed by packed exponent vectors; a value is its terms, or the pair
# (packed vector, coefficient) of its one term.
_Terms = dict[int, int | Fraction]
_Value = _Terms | tuple[int, int | Fraction]


class _Parser:
    def __init__(self, source: str):
        self.source = source
        # Whitespace matches no group, so the search steps over it.
        self.tokens: list[re.Match[str] | None] = list(_TOKEN_RE.finditer(source))
        for token in self.tokens:
            if token.lastgroup == "bad":
                raise ParseError(token.start(), "a number, variable or operator", repr(token[0]))
        self.tokens.append(None)  # end of input
        self.cursor = 0
        self.depth = 0
        self.work = 0
        # Variable name -> (packed exponent vector, position of its first occurrence).
        self.coords: dict[str, tuple[int, int]] = {}

    def _peek(self) -> re.Match[str] | None:
        return self.tokens[self.cursor]

    def _take(self) -> re.Match[str]:
        """The next token, which the caller has peeked at."""
        self.cursor += 1
        return self.tokens[self.cursor - 1]

    def _fail(self, expected: str) -> ParseError:
        token = self._peek()
        if token is None:
            return ParseError(len(self.source), expected, "end of input")
        return ParseError(token.start(), expected, repr(token[0]))

    def parse(self) -> tuple[dict[tuple[int, ...], int | Fraction], tuple[str, ...]]:
        """The expression's terms, one vector entry per coordinate, and the coordinate names."""
        terms = self._expression()
        if self._peek() is not None:
            raise self._fail("'+', '-' or end of input")
        d = len(self.coords)
        return {tuple(e.to_bytes(d, "little")): c for e, c in terms.items()}, tuple(self.coords)

    def _expression(self) -> _Terms:
        # The signed operands are summed into one dict, pruned once at the end.
        start = self._peek()
        total: _Terms = {}
        negate = False
        while True:
            while (token := self._peek()) is not None and token[0] == "-":
                self.cursor += 1
                negate = not negate
            value = self._product()
            for e, c in value.items() if type(value) is dict else (value,):
                total[e] = total.get(e, 0) + (-c if negate else c)
            token = self._peek()
            if token is None or token[0] not in ("+", "-"):
                total = {e: c for e, c in total.items() if c}
                _check_coefficients(start, total.values())
                return total
            self.cursor += 1
            negate = token[0] == "-"

    def _product(self) -> _Value:
        value = self._power()
        while (token := self._peek()) is not None and token[0] == "*":
            self.cursor += 1
            factor = self._power()
            if type(value) is tuple and type(factor) is tuple:
                # A 1x1 product, with the checks and the one-pair charge of
                # the dict product; a factor 1 leaves a checked coefficient.
                (ea, ca), (eb, cb) = value, factor
                _check_degree(token, ea % 255 + eb % 255)
                self._charge(token, 1)
                if cb != 1:
                    ca *= cb
                    _check_coefficients(token, (ca,))
                value = ea + eb, ca
            else:
                a, b = _terms(value), _terms(factor)
                _check_degree(token, _degree(a) + _degree(b))
                value = self._times(token, a, b)
        return value

    def _power(self) -> _Value:
        base = self._atom()
        token = self._peek()
        if token is not None and token[0] == "^":
            self.cursor += 1
            exp_token = self._peek()
            if exp_token is None or exp_token.lastgroup != "int":
                raise self._fail("an integer exponent")
            exponent = _int_value(self._take())
            if exponent > MAX_DEGREE:
                raise ParseError(
                    exp_token.start(), f"an exponent of at most {MAX_DEGREE}", repr(exp_token[0])
                )
            if type(base) is tuple:
                # (c*x^e)^n is c^n*x^(n*e), charged as n one-pair products that
                # stop at the first pair past the budget.
                e, c = base
                _check_degree(exp_token, e % 255 * exponent)
                self._charge(exp_token, min(exponent, MAX_PRODUCT_WORK + 1 - self.work))
                if c != 1:
                    c **= exponent
                    _check_coefficients(exp_token, (c,))
                return e * exponent, c
            _check_degree(exp_token, _degree(base) * exponent)
            power: _Terms = {0: 1}
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
                product[ea + eb] = product.get(ea + eb, 0) + ca * cb
        product = {e: c for e, c in product.items() if c}
        _check_coefficients(token, product.values())
        return product

    def _charge(self, token: re.Match[str], pairs: int) -> None:
        """Count `pairs` more term pairs, rejecting them when they exhaust MAX_PRODUCT_WORK."""
        self.work += pairs
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError(
                token.start(),
                f"products of at most {MAX_PRODUCT_WORK} term pairs in all",
                f"{self.work} term pairs",
            )

    def _atom(self) -> _Value:
        token = self._peek()
        if token is None:
            raise self._fail("a number, variable or '('")
        kind = token.lastgroup
        if kind == "name":
            self.cursor += 1
            if token[0] not in self.coords:
                if len(self.coords) == MAX_COORDINATES:
                    raise ParseError(
                        token.start(), f"at most {MAX_COORDINATES} variables", repr(token[0])
                    )
                self.coords[token[0]] = (1 << 8 * len(self.coords), token.start())
            return self.coords[token[0]][0], 1
        if kind == "int":
            value: int | Fraction = _int_value(self._take())
            nxt = self._peek()
            if nxt is not None and nxt[0] == "/":
                self.cursor += 1
                den_token = self._peek()
                if den_token is None or den_token.lastgroup != "int":
                    raise self._fail("an integer denominator")
                denominator = _int_value(self._take())
                if denominator == 0:
                    raise ParseError(den_token.start(), "a nonzero denominator", "0")
                value = Fraction(value, denominator)
            return (0, value) if value else {}
        if token[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    token.start(), f"at most {MAX_NESTING} nested parentheses", "'('"
                )
            self.cursor += 1
            self.depth += 1
            inner = self._expression()
            self.depth -= 1
            closing = self._peek()
            if closing is None or closing[0] != ")":
                raise self._fail("')'")
            self.cursor += 1
            return next(iter(inner.items())) if len(inner) == 1 else inner
        raise self._fail("a number, variable or '('")


def _terms(value: _Value) -> _Terms:
    return value if type(value) is dict else dict((value,))


def _int_value(token: re.Match[str]) -> int:
    if len(token[0]) > MAX_COEFFICIENT_DIGITS:
        raise ParseError(
            token.start(),
            f"an integer of at most {MAX_COEFFICIENT_DIGITS} digits",
            f"{len(token[0])} digits",
        )
    return int(token[0])


def _check_coefficients(token: re.Match[str], coefficients: Iterable[int | Fraction]) -> None:
    """Reject a coefficient whose numerator or denominator exceeds MAX_COEFFICIENT_DIGITS digits."""
    for c in coefficients:
        if not (
            -_COEFFICIENT_LIMIT < c.numerator < _COEFFICIENT_LIMIT
            and c.denominator < _COEFFICIENT_LIMIT
        ):
            raise ParseError(
                token.start(),
                f"a coefficient of at most {MAX_COEFFICIENT_DIGITS} digits",
                "a longer one",
            )


def _degree(terms: _Terms) -> int:
    return max((e % 255 for e in terms), default=0)


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
        for (name, (_, position)), used in zip(parser.coords.items(), map(any, zip(*terms))):
            if not used:
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
    offset of its first bad byte; so does one longer than MAX_SOURCE_BYTES,
    naming the bound.
    """
    with open(path, "rb") as fh:
        data = fh.read(MAX_SOURCE_BYTES + 1)
    if len(data) > MAX_SOURCE_BYTES:
        raise OSError(errno.EFBIG, f"longer than {MAX_SOURCE_BYTES} bytes", path)
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text at byte {exc.start}", path) from None
    lines = [line.strip() for line in io.StringIO(text, newline=None)]
    body = [line for line in lines if line and not line.startswith("#")]
    return " ".join(body)


def format_function(func: InputFunction) -> str:
    """Source form of an input function; it reparses to an equal InputFunction.

    The terms come in decreasing grevlex order, which at F's one degree is
    increasing lexicographic order of the exponent vectors.

    The text need not be a fixed point: reparsing numbers coordinates by first use.
    """
    return poly_to_source(sorted(func.terms.items()), func.names)


def loop_poly_string(jet: _Jet, names: Sequence[str]) -> str:
    """Display form of a jet in the kernel's codes, variables as name_cdeg (e.g. x_-2)."""
    return jet.to_string(names)
