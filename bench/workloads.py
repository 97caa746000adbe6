"""Seeded benchmark inputs whose answers are known by construction.

Every input is a Fermat polynomial sum_i c_i x_i^delta, optionally composed
with an invertible integer matrix A (x -> A x), or the composition of such a
matrix with a form whose singular locus is positive dimensional.  A linear
change of coordinates preserves the Milnor number, so the isolated inputs have
mu = (delta-1)^d and the others must be reported as not isolated.  The
polynomials are expanded here, with plain integer arithmetic, and handed to
loopsing only as expression strings.

A workload is a list of cells, each cell fixing the parameters that decide
how much work a report costs.  One round issues one report per cell, in a
seeded order, with seeded coefficients and matrices, so every
seed gives the same mix of costs while no two reports of a run share an
(input, window, n-max) triple.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import factorial

NAMES = ("x", "y", "w", "v")
WORKLOADS = ("functional", "jacobian", "tower")

FUNCTIONAL_CHECKS = ("lambda", "support", "linearity", "derivative")
JACOBIAN_CHECKS = ("milnor",)
TOWER_CHECKS = ("cohomology",)

# Nonzero matrix entries, so that the transformed polynomial is dense.
MATRIX_ENTRIES = (-3, -2, -1, 1, 2, 3)
FERMAT_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)

# Per-report budget: cells whose estimated cost exceeds it are left out.
REPORT_BUDGET_S = 2.0

# Wall time of one round, calibration probes included, on the reference
# machine (2 vCPUs, Intel Xeon, CPython 3.11.7).  A run of S seconds issues round(S / ROUND_S) rounds, at
# least one, so the work of a run is fixed by its arguments and two versions
# of the program are compared on identical reports.
ROUND_S = {"functional": 6.5, "jacobian": 3.3, "tower": 9.0}


@dataclass(frozen=True)
class Case:
    """One report request plus the answer the harness expects for it."""

    workload: str
    source: str
    poly: tuple[tuple[tuple[int, ...], int], ...]
    d: int
    delta: int
    window: int
    n_max: int
    checks: tuple[str, ...]
    emit_lambda: bool
    isolated: bool

    @property
    def key(self) -> str:
        return f"{self.workload}|{self.source}|window={self.window}|n_max={self.n_max}"

    @property
    def mu(self) -> int | None:
        return (self.delta - 1) ** self.d if self.isolated else None

    @property
    def names(self) -> tuple[str, ...]:
        return NAMES[: self.d]


# -- integer polynomial arithmetic (exponent tuple -> int) ---------------------


def _multinomial(ks: tuple[int, ...]) -> int:
    out = factorial(sum(ks))
    for k in ks:
        out //= factorial(k)
    return out


def linear_power(row: tuple[int, ...], e: int) -> dict[tuple[int, ...], int]:
    """(sum_j row[j] x_j)^e, expanded by the multinomial theorem."""
    out: dict[tuple[int, ...], int] = {}
    for ks in itertools.product(range(e + 1), repeat=len(row)):
        if sum(ks) != e:
            continue
        coeff = _multinomial(ks)
        for a, k in zip(row, ks):
            coeff *= a**k
        if coeff:
            out[ks] = coeff
    return out


def transform(form: dict[tuple[int, ...], int], matrix) -> dict[tuple[int, ...], int]:
    """The polynomial form(A x): coordinate i becomes sum_j A[i][j] x_j."""
    d = len(matrix)
    out: dict[tuple[int, ...], int] = {}
    for expo, coeff in form.items():
        acc = {(0,) * d: coeff}
        for i, e in enumerate(expo):
            if not e:
                continue
            factor = linear_power(tuple(matrix[i]), e)
            grown: dict[tuple[int, ...], int] = {}
            for a, ca in acc.items():
                for b, cb in factor.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    grown[key] = grown.get(key, 0) + ca * cb
            acc = grown
        for key, value in acc.items():
            out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v}


def determinant(matrix) -> int:
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** i * matrix[0][i] * determinant([row[:i] + row[i + 1 :] for row in matrix[1:]])
        for i in range(len(matrix))
    )


def random_matrix(rng: random.Random, d: int) -> list[list[int]]:
    while True:
        matrix = [[rng.choice(MATRIX_ENTRIES) for _ in range(d)] for _ in range(d)]
        if determinant(matrix):
            return matrix


def fermat(d: int, delta: int, coefficients) -> dict[tuple[int, ...], int]:
    return {
        tuple(delta if j == i else 0 for j in range(d)): c
        for i, c in enumerate(coefficients)
    }


def source_of(poly: dict[tuple[int, ...], int]) -> str:
    """Expression string in loopsing's input grammar, terms in a fixed order."""
    parts = []
    for expo, coeff in sorted(poly.items(), reverse=True):
        mono = "*".join(
            NAMES[j] if e == 1 else f"{NAMES[j]}^{e}" for j, e in enumerate(expo) if e
        )
        body = mono if abs(coeff) == 1 else f"{abs(coeff)}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


# -- cost estimates ------------------------------------------------------------


def _multiset_sums(size: int, lo: int, hi: int) -> dict[int, int]:
    """Number of multisets of `size` integers from [lo, hi], by their sum."""
    table = {(0, 0): 1}
    for value in range(lo, hi + 1):
        grown: dict[tuple[int, int], int] = {}
        for (count, total), ways in table.items():
            for k in range(size - count + 1):
                key = (count + k, total + k * value)
                grown[key] = grown.get(key, 0) + ways
        table = grown
    return {total: ways for (count, total), ways in table.items() if count == size}


def functional_terms(exponents, delta: int, bottom: int) -> int:
    """Term count of the loop functional for the given monomial support.

    Counts, per monomial of F, the ways of giving each coordinate's factors
    conformal degrees from the support-check window [-b, b(delta-1)+delta]
    that sum to zero.  Distinct monomials of F give distinct loop monomials,
    so this is the functional's term count unless coefficients cancel.
    """
    lo, hi = -bottom, bottom * (delta - 1) + delta
    total = 0
    for expo in exponents:
        conv = {0: 1}
        for e in expo:
            if not e:
                continue
            sums = _multiset_sums(e, lo, hi)
            grown: dict[int, int] = {}
            for s1, n1 in conv.items():
                for s2, n2 in sums.items():
                    grown[s1 + s2] = grown.get(s1 + s2, 0) + n1 * n2
            conv = grown
        total += conv.get(0, 0)
    return total


# Seconds per functional term and factor slot, fitted on the reference
# machine; pure powers cost the most per term, so this is their rate.
_FUNCTIONAL_S_PER_TERM_SLOT = 4.5e-4


def functional_cost_s(d: int, delta: int, bottom: int, transformed: bool) -> float:
    """Estimated seconds of one functional report."""
    if transformed:
        exponents = [e for e in itertools.product(range(delta + 1), repeat=d) if sum(e) == delta]
    else:
        exponents = list(fermat(d, delta, [1] * d))
    return functional_terms(exponents, delta, bottom) * delta * _FUNCTIONAL_S_PER_TERM_SLOT


def tower_cost_s(d: int, n_max: int) -> float:
    """Estimated seconds of one cohomology report: the tower walk is O(n^2.5)."""
    return 2.6e-5 * (1 + 0.8 * (d - 1)) * n_max**2.5


# -- workload cells ------------------------------------------------------------


@functools.cache
def functional_cells() -> tuple[tuple[int, int, int, bool], ...]:
    """(d, delta, window, transformed) with d 1-3, delta 2-6, window 1-4."""
    return tuple(
        (d, delta, bottom, transformed)
        for d in (1, 2, 3)
        for delta in range(2, 7)
        for bottom in range(1, 5)
        for transformed in (False, True)
        if not (d == 1 and transformed)
        and functional_cost_s(d, delta, bottom, transformed) <= REPORT_BUDGET_S
    )


# (d, delta) of the isolated jacobian inputs, per round.  Dense d=3 quintics
# take 1-2.3 s; d=4 is run at delta=3 only, because a dense d=4 quartic takes
# about 10 s.  d=4 is where the linear-algebra oracle is gated off.  (2, 3),
# (2, 4), (2, 5) and most non-isolated reports are cheaper than (3, 3), and
# (3, 4), (4, 3) and (3, 5) dearer, so the median report of a run falls
# inside the (3, 3) group; and the tail (the eleventh-slowest report of a
# run) falls inside the 0.3 s group of (3, 4) and (4, 3), below the six
# quintics.  On a gap between two groups, the Groebner cost of one seeded
# matrix would move the statistic.
JACOBIAN_CELLS = (
    (2, 3), (2, 4), (2, 5),
    (3, 3), (3, 3), (3, 3), (3, 3), (3, 3),
    (3, 4), (3, 4), (4, 3), (4, 3), (3, 5),
)

# Forms with a positive-dimensional singular locus; two per round, in turn,
# so that about one jacobian report in eight (2 in 15) is not isolated.
NON_ISOLATED_FORMS: tuple[tuple[int, int, dict[tuple[int, ...], int]], ...] = (
    (2, 3, {(2, 1): 1}),
    (2, 4, {(3, 1): 1, (2, 2): 1}),
    (3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3}),
    (3, 4, {(4, 0, 0): 1, (0, 4, 0): 1}),
    (4, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1}),
)

# Tower heights.  The cost of a report depends on d and n-max only, so they
# are fixed per cell and every seed gets the same costs.
TOWER_N_MAX = (20, 23, 26, 30, 35, 42, 50, 60)


def tower_cells() -> list[tuple[int, int]]:
    return [
        (d, n)
        for d in (1, 2, 3, 4)
        for n in TOWER_N_MAX
        if tower_cost_s(d, n) <= REPORT_BUDGET_S
    ]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def _case(workload, poly, d, delta, *, window=1, n_max=4, isolated=True) -> Case:
    checks = {
        "functional": FUNCTIONAL_CHECKS,
        "jacobian": JACOBIAN_CHECKS,
        "tower": TOWER_CHECKS,
    }[workload]
    return Case(
        workload=workload,
        source=source_of(poly),
        poly=tuple(sorted(poly.items(), reverse=True)),
        d=d,
        delta=delta,
        window=window,
        n_max=n_max,
        checks=checks,
        emit_lambda=workload == "functional",
        isolated=isolated,
    )


def _coefficients(rng: random.Random, d: int, attempt: int) -> list[int]:
    # A redraw after a repeated triple widens the range, so that small cells
    # (d = 1 has only six Fermat inputs per window) never run out of inputs.
    bound = FERMAT_COEFFICIENTS[-1] + attempt
    return [rng.choice([c for c in range(-bound, bound + 1) if c]) for _ in range(d)]


def _draws(workload: str, index: int):
    """One function per report of round `index`, drawing it from (rng, attempt)."""
    if workload == "functional":
        def draw(d, delta, bottom, transformed, rng, attempt):
            poly = fermat(d, delta, _coefficients(rng, d, attempt))
            if transformed:
                poly = transform(poly, random_matrix(rng, d))
            return _case(workload, poly, d, delta, window=bottom)

        return [functools.partial(draw, *cell) for cell in functional_cells()]
    if workload == "jacobian":
        def isolated(d, delta, rng, attempt):
            poly = fermat(d, delta, _coefficients(rng, d, attempt))
            return _case(workload, transform(poly, random_matrix(rng, d)), d, delta)

        def non_isolated(d, delta, form, rng, attempt):
            poly = transform(form, random_matrix(rng, d))
            return _case(workload, poly, d, delta, isolated=False)

        forms = [NON_ISOLATED_FORMS[k % len(NON_ISOLATED_FORMS)] for k in (2 * index, 2 * index + 1)]
        return [functools.partial(isolated, *cell) for cell in JACOBIAN_CELLS] + [
            functools.partial(non_isolated, *form) for form in forms
        ]
    if workload == "tower":
        def draw(d, n, rng, attempt):
            delta = rng.choice((2, 3, 4))
            poly = fermat(d, delta, _coefficients(rng, d, attempt))
            return _case(workload, poly, d, delta, n_max=n)

        return [functools.partial(draw, *cell) for cell in tower_cells()]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, seconds: float) -> list[Case]:
    """The reports of one run, in the order they are issued."""
    rng = random.Random(f"{workload}:{seed}")
    cases: list[Case] = []
    seen: set[str] = set()
    for index in range(rounds_for(workload, seconds)):
        batch = []
        for draw in _draws(workload, index):
            attempt = 0
            case = draw(rng, attempt)
            while case.key in seen:
                attempt += 1
                case = draw(rng, attempt)
            seen.add(case.key)
            batch.append(case)
        rng.shuffle(batch)
        cases.extend(batch)
    return cases
