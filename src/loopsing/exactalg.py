"""Exact sparse polynomial arithmetic over loop-space variables.

A variable is the coordinate function z^coord of conformal degree cdeg, stored
as the native tuple (cdeg, coord); the alphabet is unbounded and materializes
lazily, so a variable exists as soon as some polynomial mentions it.
Coefficients are exact rationals and every polynomial is kept in a canonical
sorted form, which makes equality of representations a reliable identity test.

The monomial order is graded reverse lexicographic, induced by the variable
order, which is native tuple order on (cdeg, coord).  Each monomial computes
its grevlex key once, when it is built, and native tuple order on that key is
the monomial order.  `Monomial.__hash__`, `__eq__` and `__lt__` are Python
methods, but each reads only the key, whose hashing and comparison run in the
interpreter's tuple code.

A monomial's factors are always sorted by variable, that is by (cdeg, coord).
So its smallest and largest conformal degrees are those of its first and last
factors, and its factors of any one conformal degree form a contiguous run.
The jet kernel of `loopfun` codes factors so that int order is this order,
and its structural checks read conformal degrees off a term's end codes
instead of scanning every factor.

There is no ring arithmetic or calculus here: the package computes on
exponent vectors and on the jet kernel's codes, and builds a polynomial only
where its public API returns one, never for F or its Jacobian ideal.  The
constructors `Monomial(...)` and `LoopPoly(...)` canonicalize whatever raw
terms they are handed, repeats and zeros included; they are the only way
either is built.

All values are immutable after construction and every method is pure, so
polynomials can be shared freely between threads.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from fractions import Fraction

__all__ = [
    "LoopVar",
    "Monomial",
    "LoopPoly",
    "format_terms",
    "poly_to_source",
]


class LoopVar(tuple):
    """The coordinate function z^coord of conformal degree cdeg.

    A LoopVar is the tuple (cdeg, coord), so variables are totally ordered by
    (cdeg, coord) in native tuple order; this single order drives the grevlex
    key of every monomial.
    """

    __slots__ = ()

    def __new__(cls, coord: int, cdeg: int) -> "LoopVar":
        if coord < 1:
            raise ValueError(f"coordinate index must be >= 1, got {coord}")
        return super().__new__(cls, (cdeg, coord))

    cdeg = property(operator.itemgetter(0), doc="The conformal degree.")
    coord = property(operator.itemgetter(1), doc="The coordinate index, from 1.")

    def __getnewargs__(self) -> tuple[int, int]:
        return (self[1], self[0])

    def __str__(self) -> str:
        return f"z{self[1]}_{self[0]}"

    def __repr__(self) -> str:
        return f"LoopVar(coord={self[1]}, cdeg={self[0]})"


def _pairs(items: Mapping | Iterable[tuple]) -> Iterable[tuple]:
    """The (key, value) pairs of a mapping or of an iterable of pairs.

    Tuples, lists and dicts are tested first, since the Mapping ABC check
    runs in Python.
    """
    if isinstance(items, (tuple, list)):
        return items
    return items.items() if isinstance(items, (dict, Mapping)) else items


@functools.total_ordering
class Monomial:
    """A product of loop variables with positive integer exponents.

    The factor list is kept sorted by the variable order, exponents are
    merged, and zero exponents dropped, so equal monomials have equal
    representations.  The empty product is the unit monomial.

    `key` is the grevlex key (degree, ((var, -exp) per factor in ascending
    variable order)), each var being the tuple (cdeg, coord), so its tuple
    order is that of the triples (cdeg, coord, -exp); order, equality and
    hashing all read it.  At equal degree neither factor list is a proper
    prefix of the other, so the first differing entry decides: at a shared
    variable the smaller exponent ranks higher, and a monomial holding a
    smaller variable the other lacks ranks lower -- the grevlex rule.
    """

    __slots__ = ("factors", "key")

    def __init__(
        self, factors: Mapping[LoopVar, int] | Iterable[tuple[LoopVar, int]] = ()
    ) -> None:
        merged: dict[LoopVar, int] = {}
        for var, exp in _pairs(factors):
            if not isinstance(exp, int):
                raise TypeError(f"exponent must be an int, got {exp!r}")
            if exp < 0:
                raise ValueError(f"exponent must be nonnegative, got {exp}")
            if exp:
                merged[var] = merged.get(var, 0) + exp
        # Variables are distinct, so native order on the items is variable order.
        self.factors: tuple[tuple[LoopVar, int], ...] = tuple(sorted(merged.items()))
        self.key: tuple[int, tuple[tuple[LoopVar, int], ...]] = (
            sum(merged.values()),
            tuple([(v, -e) for v, e in self.factors]),
        )

    def variables(self) -> tuple[LoopVar, ...]:
        return tuple(var for var, _ in self.factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "Monomial") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return format_terms(((self.factors, 1),), _powers(str))

    __repr__ = __str__


class LoopPoly:
    """Sparse polynomial with exact rational coefficients over loop variables.

    Terms are stored as a tuple of (monomial, coefficient) pairs sorted in
    decreasing monomial order, with zero coefficients pruned, so the
    representation of a polynomial is independent of how it was assembled.
    The constructor merges, prunes and orders terms, so its callers hand
    it raw terms, repeats and zeros included.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Monomial, Fraction | int]
        | Iterable[tuple[Monomial, Fraction | int]] = (),
    ) -> None:
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in _pairs(terms):
            q = coeff if type(coeff) is Fraction else Fraction(coeff)
            if q:
                prev = acc.get(mono)
                total = q if prev is None else prev + q
                if total:
                    acc[mono] = total
                elif prev is not None:
                    del acc[mono]
        self._terms: tuple[tuple[Monomial, Fraction], ...] = tuple(
            sorted(acc.items(), key=lambda term: term[0].key, reverse=True)
        )

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """Terms in decreasing monomial order."""
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> tuple[LoopVar, ...]:
        seen: set[LoopVar] = set()
        for mono, _ in self._terms:
            seen.update(mono.variables())
        return tuple(sorted(seen))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LoopPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- display -------------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        """Render with per-coordinate names; z_j / zI_j fallback without names."""
        if names is None:
            names = _default_names(max((v.coord for v in self.variables()), default=1))
        return format_terms(
            ((mono.factors, c) for mono, c in self._terms),
            _powers(lambda var: f"{names[var.coord - 1]}_{var.cdeg}"),
        )

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"LoopPoly({self.to_string()})"


def _default_names(d: int) -> tuple[str, ...]:
    """The coordinate names of d unnamed coordinates: z alone, else z1, ..., zd."""
    return ("z",) if d == 1 else tuple(f"z{i}" for i in range(1, d + 1))


def _powers(name: Callable[[object], str]) -> Callable[[tuple[object, int]], str]:
    """The text function of factors (var, e): `name(var)`, then `^e` when e > 1."""

    def text(factor: tuple[object, int]) -> str:
        var, e = factor
        return name(var) if e == 1 else f"{name(var)}^{e}"

    return text


def format_terms(
    terms: Iterable[tuple[Sequence[Hashable], Fraction | int]], text: Callable[[Hashable], str]
) -> str:
    """The text of a sum of terms (factors, coefficient), each factor written as `text(factor)`.

    The factors of a term are opaque values in the order they are written,
    and `text` gives the text of one, a power such as `x_-1^2`.  A term is
    `c*f*g`: the magnitude c as `p` or `p/q`, left out when it is 1 unless
    the term has no factors.  A negative first term starts with `-`, later
    terms are joined by ` + ` or ` - `, and no terms at all read `0`.  This
    is the one way the package writes a polynomial, whatever its factors
    are: a monomial's pairs (LoopVar, e) through `_powers`, the jet kernel's
    int codes, the source form of F's pairs (coordinate index, e).

    A coefficient is an int or a Fraction.  Each distinct factor and
    coefficient is written once per call, in memos keyed by the factor and
    by the coefficient itself: an int, the form of every integral
    coefficient of F and its jets, hashes in C, and equal values hash alike
    whichever type holds them.
    """

    factor_texts: dict[Hashable, str] = {}
    # (sign of a first term, sign of a later one, factor prefix, magnitude)
    coeff_texts: dict[Fraction | int, tuple[str, str, str, str]] = {}
    parts: list[str] = []
    for factors, coeff in terms:
        known = coeff_texts.get(coeff)
        if known is None:
            p, q = coeff.as_integer_ratio()
            mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            lead, sign = ("", "+ ") if p > 0 else ("-", "- ")
            known = coeff_texts[coeff] = lead, sign, "" if mag == "1" else f"{mag}*", mag
        lead, sign, prefix, mag = known
        texts = []
        for factor in factors:
            written = factor_texts.get(factor)
            if written is None:
                written = factor_texts[factor] = text(factor)
            texts.append(written)
        body = prefix + "*".join(texts) if factors else mag
        parts.append((sign if parts else lead) + body)
    return " ".join(parts) if parts else "0"


def poly_to_source(
    terms: Iterable[tuple[Sequence[int], Fraction | int]], names: Sequence[str]
) -> str:
    """The text of ambient terms (exponent vector, coefficient), in the order
    given, in the expression grammar: entry i of a vector is the exponent of
    the coordinate names[i]."""
    return format_terms(
        ((tuple([(i, x) for i, x in enumerate(e) if x]), c) for e, c in terms),
        _powers(names.__getitem__),
    )
