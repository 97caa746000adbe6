"""Answers for benchmark reports that do not come from loopsing.

A report is checked against closed forms (Milnor number, truncation and
renormalized dimensions, escape degrees), against an independent evaluation
of the loop functional, and, for pinned inputs, against the SHA-256 digest of
the report recorded at the commit that defined the benchmark.

The functional is checked at seeded integer points: its value there must be
the t^0 coefficient of F(z(t)), where each z^i(t) = sum_j z^i_j t^j is a
Laurent polynomial with the point's values as coefficients.  That coefficient
is computed here with integer Laurent arithmetic.  Every point value is
nonzero, so changing any one coefficient of the functional changes its value.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction

from workloads import Case

REPORT_KEYS = {
    "function", "d", "delta", "window", "milnor_number", "isolated",
    "lambda", "checks", "cohomology", "axioms", "timing",
}
POINTS_PER_REPORT = 2


# -- integer Laurent polynomials: {exponent of t: coefficient} -----------------


def laurent_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def constant_term(poly, point: list[dict[int, int]]) -> int:
    """t^0 coefficient of F(z^1(t), ..., z^d(t)), z^i(t) = sum_j point[i][j] t^j.

    `poly` maps exponent tuples to integer coefficients.
    """
    powers: dict[tuple[int, int], dict[int, int]] = {}

    def power(i: int, e: int) -> dict[int, int]:
        if (i, e) not in powers:
            powers[i, e] = {0: 1} if e == 0 else laurent_mul(power(i, e - 1), point[i])
        return powers[i, e]

    total = 0
    for expo, coeff in poly:
        product = {0: coeff}
        for i, e in enumerate(expo):
            if e:
                product = laurent_mul(product, power(i, e))
        total += product.get(0, 0)
    return total


def seeded_point(case: Case, lo: int, hi: int, index: int) -> list[dict[int, int]]:
    rng = random.Random(f"{case.key}|point={index}")
    values = [v for v in range(-5, 6) if v]
    return [{j: rng.choice(values) for j in range(lo, hi + 1)} for _ in range(case.d)]


# -- the printed polynomials of a report -------------------------------------

_SEPARATOR = re.compile(r" ([+-]) ")
_NUMBER = re.compile(r"^\d+(/\d+)?$")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9]*?)(?:_(-?\d+))?(?:\^(\d+))?$")


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, int | None, int]]]]:
    """Terms of a printed polynomial as (coefficient, [(name, cdeg, exponent)]).

    Reads both forms loopsing prints: input functions (`3*x^2*y - y^3`) and
    loop polynomials, whose variables carry a conformal degree (`x_-1*y_2^2`).
    """
    pieces = _SEPARATOR.split(text.strip())
    signs = ["+"] + pieces[1::2]
    terms = []
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        factors = body.split("*")
        coeff = Fraction(1)
        if _NUMBER.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        if sign == "-":
            coeff = -coeff
        variables = []
        for factor in factors:
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"unreadable factor {factor!r} in {text[:80]!r}")
            name, cdeg, exp = match.groups()
            variables.append((name, None if cdeg is None else int(cdeg), int(exp or 1)))
        terms.append((coeff, variables))
    return terms


def evaluate(terms, values: dict[tuple[str, int], int]) -> Fraction:
    total = Fraction(0)
    for coeff, variables in terms:
        value = coeff
        for name, cdeg, exp in variables:
            value *= values[name, cdeg] ** exp
        total += value
    return total


def polynomial_of(terms, names: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Exponent-tuple form of a printed input function."""
    out: dict[tuple[int, ...], Fraction] = {}
    for coeff, variables in terms:
        expo = [0] * len(names)
        for name, cdeg, exp in variables:
            if cdeg is not None or name not in names:
                raise ValueError(f"unexpected variable {name} in the input function")
            expo[names.index(name)] += exp
        out[tuple(expo)] = out.get(tuple(expo), 0) + coeff
    return {k: v for k, v in out.items() if v}


# -- closed forms --------------------------------------------------------------


def truncation_dims(d: int, mu: int, n: int) -> dict[str, int]:
    """H*(truncation n) = unit + mu classes in degree 2nd + d - 1."""
    dims = {0: 1}
    degree = 2 * n * d + d - 1
    dims[degree] = dims.get(degree, 0) + mu
    return {str(k): v for k, v in dims.items()}


def digest(document: dict) -> str:
    """SHA-256 of a structured report without its timing field."""
    body = {k: v for k, v in document.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def verify(case: Case, text: str | None, status: int | None, pins: dict[str, str]) -> list[str]:
    """Problems found in one rendered report; an empty list means it is correct."""
    if text is None:
        return ["no report"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(doc, dict) or set(doc) != REPORT_KEYS:
        return ["report does not have the structured top-level keys"]
    problems: list[str] = []

    def expect(label: str, got, want) -> None:
        if got != want:
            problems.append(f"{label}: got {str(got)[:120]}, expected {str(want)[:120]}")

    expect("d", doc["d"], case.d)
    expect("delta", doc["delta"], case.delta)
    expect("window", doc["window"], {"bottom": case.window, "top": case.window * (case.delta - 1)})
    try:
        expect("function", polynomial_of(parse_terms(doc["function"]), case.names), dict(case.poly))
    except (ValueError, TypeError, AttributeError) as exc:
        problems.append(f"function: {exc}")
    expect("exit status", status, 0 if case.isolated else 1)

    if case.workload == "functional":
        expect("checks", doc["checks"], {name: {"ok": True} for name in case.checks})
        for key in ("milnor_number", "isolated", "cohomology"):
            expect(key, doc[key], None)
        problems += _verify_functional(case, doc["lambda"])
    else:
        expect("lambda", doc["lambda"], None)
        expect("milnor_number", doc["milnor_number"], case.mu)
        expect("isolated", doc["isolated"], case.isolated)
    if case.workload == "jacobian":
        expect("cohomology", doc["cohomology"], None)
        milnor = doc["checks"].get("milnor", {})
        if case.isolated:
            expect("checks", doc["checks"], {"milnor": {"ok": True}})
        elif milnor.get("ok") is not False or "positive dimensional" not in str(milnor.get("witness")):
            problems.append(f"checks: expected a NotIsolated witness, got {doc['checks']}")
    if case.workload == "tower":
        expect("checks", doc["checks"], {"cohomology": {"ok": True}})
        problems += _verify_tower(case, doc["cohomology"], doc["axioms"])

    pinned = pins.get(case.key)
    if pinned is not None and pinned != digest(doc):
        problems.append("digest differs from the pinned digest")
    return problems


def _verify_functional(case: Case, lam) -> list[str]:
    if not isinstance(lam, dict) or not isinstance(lam.get("polynomial"), str):
        return ["lambda: no emitted functional"]
    try:
        terms = parse_terms(lam["polynomial"])
    except ValueError as exc:
        return [f"lambda: {exc}"]
    problems = []
    if lam.get("term_count") != len(terms):
        problems.append(f"lambda: term_count {lam.get('term_count')} != {len(terms)} printed terms")
    lo, hi = -case.window, case.window * (case.delta - 1)
    for index in range(POINTS_PER_REPORT):
        point = seeded_point(case, lo, hi, index)
        values = {
            (name, j): point[i][j] for i, name in enumerate(case.names) for j in range(lo, hi + 1)
        }
        try:
            got = evaluate(terms, values)
        except KeyError as exc:
            problems.append(f"lambda: variable {exc} outside the window [{lo}, {hi}]")
            break
        want = constant_term(case.poly, point)
        if got != want:
            problems.append(f"lambda: value {got} at point {index}, t^0 coefficient is {want}")
    return problems


def _verify_tower(case: Case, cohomology, axioms) -> list[str]:
    if not isinstance(cohomology, dict):
        return ["cohomology: missing"]
    d, mu, n_max = case.d, case.mu, case.n_max
    problems = []
    want = [{"n": n, "dims": truncation_dims(d, mu, n)} for n in range(n_max + 1)]
    if cohomology.get("truncations") != want:
        problems.append("cohomology.truncations differ from unit + mu in degree 2nd+d-1")
    if cohomology.get("renormalized") != {str(d - 1): mu}:
        problems.append(f"cohomology.renormalized {cohomology.get('renormalized')} != {{{d - 1}: {mu}}}")
    escape = [
        {"n": n, "degree": 2 * n * d + d - 1, "declared_floor": 2 * (n + 1) * d - 1}
        for n in range(n_max + 1)
    ]
    if cohomology.get("escape") != escape:
        problems.append("cohomology.escape degrees differ from 2nd+d-1")
    steps = cohomology.get("stabilization")
    if not isinstance(steps, dict) or not all(
        isinstance(v, int) and 0 <= v < n_max for v in steps.values()
    ):
        problems.append("cohomology.stabilization steps outside [0, n_max)")
    if not axioms or not all(isinstance(a, str) for a in axioms):
        problems.append("axioms: the declared residue axiom is missing")
    return problems
