"""Jacobian-ideal computations over exact rationals.

Buchberger's algorithm with the normal selection strategy and both classical
pair-elimination criteria, reduced bases, standard-monomial enumeration, and
the Milnor number of a homogeneous polynomial with isolated singularity.  A
second, Groebner-free route computes the same number by exact linear algebra
on the truncated multiplication matrix and serves as an independent oracle.

The monomial order is the graded reverse lexicographic order fixed in
exactalg; any global order yields the same Milnor number, this one is fixed
for determinism.  buchberger itself runs sequentially (its loop is order
sensitive) but independent invocations on distinct inputs are safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import LoopPoly, LoopVar, Monomial
from .loopfun import InputFunction

__all__ = [
    "Ideal",
    "GroebnerBasis",
    "NotIsolated",
    "Infinite",
    "buchberger",
    "normal_form",
    "s_polynomial",
    "standard_monomials",
    "jacobian_ideal",
    "milnor_number",
    "milnor_number_oracle",
]

MONOMIAL_ORDER = "grevlex (conformal degree major, coordinate minor)"


class NotIsolated(ArithmeticError):
    """The singular locus is positive dimensional.

    Raised when the Jacobian ideal has infinitely many standard monomials,
    i.e. the quotient by the partial derivatives is not finite dimensional.
    """


class _InfiniteType:
    """Sentinel: the standard-monomial set is infinite."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"


Infinite = _InfiniteType()


class Ideal:
    """An ideal in the polynomial ring on the degree-0 variables z^1_0..z^d_0."""

    order = MONOMIAL_ORDER

    def __init__(self, generators: Sequence[LoopPoly], d: int):
        gens = tuple(g for g in generators if not g.is_zero)
        if not gens:
            raise ValueError("an ideal needs at least one nonzero generator")
        if d < 1:
            raise ValueError("need at least one ambient variable")
        for g in gens:
            for v in g.variables():
                if v.cdeg != 0:
                    raise ValueError(f"generator uses non-ambient variable {v}")
                if v.coord > d:
                    raise ValueError(f"generator uses coordinate {v.coord} > d = {d}")
        self.generators = gens
        self.d = d

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.generators)}; d={self.d})"


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple[LoopPoly, ...]
    reduced: bool
    d: int

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial for g in self.elements)


def normal_form(p: LoopPoly, divisors: Sequence[LoopPoly]) -> LoopPoly:
    """Remainder of p under multivariate division by the divisors.

    Repeatedly cancels the largest reducible monomial against the first
    divisor whose leading monomial divides it; the result has no monomial
    divisible by any divisor's leading monomial.
    """
    heads = [(g.leading_monomial, g.leading_coefficient, g) for g in divisors if g]
    remainder: dict[Monomial, Fraction] = {}
    work = p
    while work:
        mono, coeff = work.leading_term
        hit = next((h for h in heads if h[0].divides(mono)), None)
        if hit is None:
            remainder[mono] = coeff
            work = work - LoopPoly.term(mono, coeff)
        else:
            lead_mono, lead_coeff, g = hit
            work = work - g.mul_term(mono.quotient(lead_mono), coeff / lead_coeff)
    return LoopPoly(remainder)


def s_polynomial(f: LoopPoly, g: LoopPoly) -> LoopPoly:
    lcm = f.leading_monomial.lcm(g.leading_monomial)
    left = f.mul_term(lcm.quotient(f.leading_monomial), 1 / f.leading_coefficient)
    right = g.mul_term(lcm.quotient(g.leading_monomial), 1 / g.leading_coefficient)
    return left - right


def _monic(p: LoopPoly) -> LoopPoly:
    return p * (1 / p.leading_coefficient)


def _pair_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def buchberger(ideal: Ideal, cache_dir: str | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal.

    Pairs are processed by lowest lcm degree first (normal strategy) and
    eliminated by the coprimality and chain criteria.  The output is the
    unique reduced basis, so running buchberger on its own output returns an
    equal basis.  Every S-polynomial of the final basis is verified to reduce
    to zero before returning.

    If cache_dir is given, results are memoized there keyed by a content hash
    of the generators; loaded bases are re-verified before use.
    """
    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(cache_dir, _cache_key(ideal) + ".json")
        cached = _cache_load(cache_path, ideal)
        if cached is not None:
            return cached

    basis: list[LoopPoly] = []
    for g in ideal.generators:
        mg = _monic(g)
        if mg not in basis:
            basis.append(mg)

    pending: set[tuple[int, int]] = {
        (i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
    }

    def select() -> tuple[int, int]:
        def key(pair: tuple[int, int]) -> tuple:
            i, j = pair
            return (basis[i].leading_monomial.lcm(basis[j].leading_monomial).key, i, j)

        return min(pending, key=key)

    while pending:
        i, j = select()
        pending.discard((i, j))
        lm_i, lm_j = basis[i].leading_monomial, basis[j].leading_monomial
        if lm_i.coprime(lm_j):
            continue
        lcm = lm_i.lcm(lm_j)
        chain = any(
            k not in (i, j)
            and basis[k].leading_monomial.divides(lcm)
            and _pair_key(i, k) not in pending
            and _pair_key(j, k) not in pending
            for k in range(len(basis))
        )
        if chain:
            continue
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            basis.append(_monic(remainder))
            new = len(basis) - 1
            pending.update((k, new) for k in range(new))

    reduced = _reduce_basis(basis)
    result = GroebnerBasis(elements=tuple(reduced), reduced=True, d=ideal.d)
    _verify_basis(result, ideal)
    if cache_path is not None:
        _cache_store(cache_path, result)
    return result


def _reduce_basis(basis: Sequence[LoopPoly]) -> list[LoopPoly]:
    # Keep only elements whose leading monomial no other element's divides,
    # then tail-reduce each against the rest until nothing changes.
    minimal: list[LoopPoly] = []
    for idx, g in enumerate(basis):
        lm = g.leading_monomial
        redundant = any(
            other.leading_monomial.divides(lm)
            for kdx, other in enumerate(basis)
            if kdx != idx
            and (other.leading_monomial != lm or kdx < idx)
        )
        if not redundant:
            minimal.append(_monic(g))

    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            others = minimal[:idx] + minimal[idx + 1 :]
            reduced = normal_form(minimal[idx], others)
            if reduced != minimal[idx]:
                minimal[idx] = _monic(reduced)
                changed = True
    minimal.sort(key=lambda g: g.leading_monomial)
    return minimal


def _verify_basis(gb: GroebnerBasis, ideal: Ideal) -> None:
    elements = gb.elements
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if normal_form(s_polynomial(elements[i], elements[j]), elements):
                raise RuntimeError("S-polynomial does not reduce to zero")
    for g in ideal.generators:
        if normal_form(g, elements):
            raise RuntimeError("an ideal generator does not reduce to zero")


def standard_monomials(gb: GroebnerBasis, cap: int) -> list[Monomial] | _InfiniteType:
    """Monomials not divisible by any leading monomial, in increasing order.

    Returns Infinite when for some coordinate no leading monomial is a pure
    power of that variable (the standard finiteness criterion).  `cap` is a
    guard on the enumerated total degree; the finite set is always contained
    in the box below the pure-power exponents, and exceeding the cap means the
    caller's degree budget was wrong.
    """
    if not gb.reduced:
        raise ValueError("standard_monomials needs a reduced basis")
    if any(head.is_unit for head in gb.leading_monomials()):
        return []  # the unit ideal: nothing survives in the quotient
    exponents = _pure_power_exponents(gb)
    if exponents is None:
        return Infinite
    heads = gb.leading_monomials()
    out: list[Monomial] = []
    for combo in itertools.product(*(range(k) for k in exponents)):
        mono = Monomial(
            tuple((LoopVar(i + 1, 0), e) for i, e in enumerate(combo) if e)
        )
        if any(h.divides(mono) for h in heads):
            continue
        if mono.degree > cap:
            raise ValueError(
                f"standard monomial {mono} exceeds the degree cap {cap}"
            )
        out.append(mono)
    out.sort()
    return out


def _pure_power_exponents(gb: GroebnerBasis) -> list[int] | None:
    """Per coordinate, the exponent of the pure-power leading monomial.

    None when some coordinate has no pure-power leading monomial, in which
    case the quotient is infinite dimensional.
    """
    exponents: list[int | None] = [None] * gb.d
    for head in gb.leading_monomials():
        if len(head.factors) == 1:
            var, exp = head.factors[0]
            current = exponents[var.coord - 1]
            if current is None or exp < current:
                exponents[var.coord - 1] = exp
    if any(e is None for e in exponents):
        return None
    return exponents  # type: ignore[return-value]


def jacobian_ideal(func: InputFunction) -> Ideal:
    return Ideal(func.partials(), func.d)


def milnor_number(func: InputFunction, cache_dir: str | None = None) -> int:
    """Dimension of the Jacobian ring, counted via standard monomials.

    For a homogeneous isolated singularity this must equal (delta-1)^d, and
    that cross-check is enforced on every call.  Raises NotIsolated when the
    quotient is infinite dimensional.
    """
    gb = buchberger(jacobian_ideal(func), cache_dir=cache_dir)
    exponents = _pure_power_exponents(gb)
    if exponents is None:
        raise NotIsolated(
            "the Jacobian ideal has infinitely many standard monomials; "
            "the singular locus is positive dimensional"
        )
    monomials = standard_monomials(gb, cap=sum(e - 1 for e in exponents))
    assert not isinstance(monomials, _InfiniteType)
    mu = len(monomials)
    expected = (func.delta - 1) ** func.d
    if mu != expected:
        raise RuntimeError(
            f"standard-monomial count {mu} != (delta-1)^d = {expected}"
        )
    return mu


def milnor_number_oracle(func: InputFunction) -> int:
    """Groebner-free Milnor number via exact linear algebra.

    Works degree by degree up to one past the top degree d*(delta-2) of the
    Jacobian ring: in each degree the span of (monomial * partial) products is
    a matrix whose corank is the Hilbert function there.  A nonzero dimension
    past the top degree certifies a non-isolated singularity, because the
    quotient of a graded ring generated in degree one vanishes forever once it
    vanishes in a single degree.

    Intended for d <= 3 and delta <= 5; larger inputs work but slowly.
    """
    d, delta = func.d, func.delta
    top = d * (delta - 2) + 1
    gen_terms = [_exponent_dict(g, d) for g in func.partials()]

    total = 0
    for degree in range(top + 1):
        basis = _monomial_exponents(d, degree)
        index = {expo: pos for pos, expo in enumerate(basis)}
        rows: list[list[Fraction]] = []
        shift_degree = degree - (delta - 1)
        if shift_degree >= 0:
            for gen in gen_terms:
                for shift in _monomial_exponents(d, shift_degree):
                    row = [Fraction(0)] * len(basis)
                    for expo, coeff in gen.items():
                        combined = tuple(a + b for a, b in zip(expo, shift))
                        row[index[combined]] = coeff
                    rows.append(row)
        h = len(basis) - _rank(rows)
        if degree == top:
            if h > 0:
                raise NotIsolated(
                    "the truncated Jacobian quotient does not vanish past its "
                    "expected top degree; the singular locus is positive "
                    "dimensional"
                )
        else:
            total += h
    return total


def _exponent_dict(poly: LoopPoly, d: int) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in poly.terms:
        expo = [0] * d
        for var, exp in mono.factors:
            expo[var.coord - 1] = exp
        out[tuple(expo)] = coeff
    return out


def _monomial_exponents(d: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographically."""
    if d == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        out.extend((first,) + rest for rest in _monomial_exponents(d - 1, degree - first))
    return out


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank of an exact rational matrix by Gaussian elimination."""
    if not rows:
        return 0
    width = len(rows[0])
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        row = list(row)
        for col in range(width):
            if not row[col]:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                inv = 1 / row[col]
                pivots[col] = [x * inv for x in row]
                break
            factor = row[col]
            row = [x - factor * p for x, p in zip(row, pivot)]
    return len(pivots)


# -- on-disk memoization ------------------------------------------------------

_CACHE_VERSION = 1


def _serialize_poly(p: LoopPoly) -> list:
    return [
        [
            [[v.coord, v.cdeg, e] for v, e in mono.factors],
            [coeff.numerator, coeff.denominator],
        ]
        for mono, coeff in p.terms
    ]


def _deserialize_poly(data: list) -> LoopPoly:
    terms = {}
    for factors, (num, den) in data:
        mono = Monomial(tuple((LoopVar(c, j), e) for c, j, e in factors))
        terms[mono] = Fraction(num, den)
    return LoopPoly(terms)


def _cache_key(ideal: Ideal) -> str:
    payload = json.dumps(
        {
            "version": _CACHE_VERSION,
            "order": MONOMIAL_ORDER,
            "d": ideal.d,
            "generators": sorted(
                json.dumps(_serialize_poly(g)) for g in ideal.generators
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_load(path: str, ideal: Ideal) -> GroebnerBasis | None:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        elements = tuple(_deserialize_poly(p) for p in data["basis"])
        gb = GroebnerBasis(elements=elements, reduced=True, d=ideal.d)
        _verify_basis(gb, ideal)
        return gb
    except (OSError, ValueError, KeyError, RuntimeError):
        return None


def _cache_store(path: str, gb: GroebnerBasis) -> None:
    """Publish the basis at path atomically; a failure costs only the entry.

    Each writer fills its own temporary file, so concurrent writers of one key
    never share a file and the last complete one wins.
    """
    payload = {"version": _CACHE_VERSION, "basis": [_serialize_poly(g) for g in gb.elements]}
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"loopsing: warning: Groebner basis not cached: {exc}", file=sys.stderr)
