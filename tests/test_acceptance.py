"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; all quantities are exact, the only tolerances are the wall-clock
budgets stated inline.
"""

from __future__ import annotations

import json
import time

import pytest

from loopsing.cli import RunConfig, format_function, parse_function, run, validate_report
from loopsing.cohom import (
    GradedDims,
    LesSystem,
    declared_support_floor,
    escape_table,
    gysin_step,
    renormalized_nearby_cohomology,
    residue_onto_unit_fact,
    solve_les_detailed,
    sphere_cohomology,
    truncation_cohomology,
)
from loopsing.exactalg import LoopVar
from loopsing.grobner import NotIsolated, milnor_number, milnor_number_oracle
from loopsing.loopfun import (
    Window,
    check_derivative_identity,
    check_support_bound,
    check_top_linearity,
    lambda_of,
    minimal_window,
)

from conftest import (
    CORPUS,
    Poly,
    alternating_sums,
    build,
    fermat_source,
    jet_coefficient_by_enumeration,
)


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )


def lv(coord: int, cdeg: int) -> Poly:
    return Poly.variable(LoopVar(coord, cdeg))


def test_criterion_1_intro_example_reproduction():
    """Quadric: closed-form functional, even-sphere tower, stable unit."""
    with _Budget("1 (intro example)", 1.0):
        quadric = build("z^2")
        for n in range(6):
            expected = lv(1, 0) ** 2
            for j in range(1, n + 1):
                expected = expected + 2 * lv(1, j) * lv(1, -j)
            assert lambda_of(quadric, Window(n, n)) == expected

            full = truncation_cohomology(1, 1, n)
            sphere_2n = GradedDims({0: 2}) if n == 0 else GradedDims({0: 1, 2 * n: 1})
            assert full == sphere_2n

        report = renormalized_nearby_cohomology(1, 1, 4)
        assert report.stable == GradedDims({0: 1})


def test_criterion_2_renormalized_cohomology_on_corpus():
    """Stable reduced outcome is mu in degree d-1, with mu computed independently."""
    with _Budget("2 (renormalized cohomology)", 30.0):
        for entry in CORPUS:
            func = build(entry.source)
            mu = milnor_number(func)
            report = renormalized_nearby_cohomology(func.d, mu, 4)
            assert report.stable == GradedDims({func.d - 1: mu}), entry.source


def test_criterion_3_milnor_numbers_three_ways():
    """Basis count == linear-algebra oracle == (delta-1)^d on the full family."""
    with _Budget("3 (Milnor numbers)", 60.0):
        sources = {entry.source for entry in CORPUS}
        sources.update(fermat_source(d, delta) for d in (1, 2, 3) for delta in (2, 3, 4, 5))
        for source in sorted(sources):
            func = build(source)
            expected = (func.delta - 1) ** func.d
            assert milnor_number(func) == expected, source
            assert milnor_number_oracle(func) == expected, source


def test_criterion_4_structural_identities():
    """Support bound, top linearity, both derivative identities; b in 1..3."""
    with _Budget("4 (structural identities)", 60.0):
        for entry in CORPUS:
            func = build(entry.source)
            for bottom in (1, 2, 3):
                assert check_support_bound(func, bottom).ok, (entry.source, bottom)
                linearity = check_top_linearity(func, bottom)
                assert linearity.ok and not linearity.offending_monomials
                derivative = check_derivative_identity(func, bottom)
                assert all(c.via_t_coefficient for c in derivative.checks)
                assert all(c.via_bottom_evaluation for c in derivative.checks)


def test_criterion_5_lambda_oracle_equivalence():
    """Convolution route equals flat index enumeration wherever feasible."""
    with _Budget("5 (oracle equivalence)", 60.0):
        for entry in CORPUS:
            if entry.delta > 4 or entry.d > 3:
                continue
            func = build(entry.source)
            for bottom in (0, 1, 2):
                window = minimal_window(func, bottom)
                assert lambda_of(func, window) == jet_coefficient_by_enumeration(
                    func, window, 0
                ), (entry.source, bottom)


def test_criterion_6_escape_degrees_and_declared_floor():
    """Concentration degrees 2nd+d-1 in steps of 2d; declared floor alongside."""
    with _Budget("6 (escape report)", 10.0):
        for entry in CORPUS:
            rows = escape_table(entry.d, entry.mu, 4)
            degrees = [row.degree for row in rows]
            assert degrees == [2 * n * entry.d + entry.d - 1 for n in range(5)]
            assert all(b - a == 2 * entry.d for a, b in zip(degrees, degrees[1:]))
            for row in rows:
                assert row.declared_floor == declared_support_floor(entry.d, row.n)
                # documented discrepancy: the computed degree sits exactly d
                # below the declared floor; recorded, not asserted away
                assert row.declared_floor - row.degree == entry.d


def test_criterion_7_solver_coherence():
    """Shift rule == generic solver at every step; exactness audits clean."""
    with _Budget("7 (solver coherence)", 10.0):
        for entry in CORPUS:
            reduced = truncation_cohomology(entry.d, entry.mu, 0).drop_unit()
            for _ in range(5):
                full = reduced.with_unit()
                system = LesSystem(
                    codim=entry.d,
                    a=full,
                    c_dims=sphere_cohomology(entry.d),
                    rank_facts=(residue_onto_unit_fact(entry.d, full),),
                )
                solution = solve_les_detailed(system)
                stepped = gysin_step(reduced, entry.d)
                assert solution.b == stepped.with_unit()
                sums = alternating_sums(solution, system)
                assert sums and all(total == 0 for total in sums)
                reduced = stepped


def test_criterion_8_non_isolated_rejection():
    """x^2*y raises NotIsolated; the pipeline skips cohomology and fails."""
    with _Budget("8 (non-isolated rejection)", 5.0):
        with pytest.raises(NotIsolated):
            milnor_number(build("x^2*y"))
        report = run(RunConfig(function_source="x^2*y"))
        assert report.isolated is False
        assert report.checks["cohomology"].skipped
        assert report.cohomology is None
        assert report.exit_status != 0


def test_criterion_9_cli_round_trip_schema_determinism():
    """Parser round trip, schema validation, byte-identical reports."""
    with _Budget("9 (round trip and schema)", 30.0):
        for entry in CORPUS:
            func = parse_function(entry.source)
            assert parse_function(format_function(func)) == func

            serialized = []
            for _ in range(2):
                document = run(RunConfig(function_source=entry.source)).to_dict()
                assert validate_report(document) == [], entry.source
                document.pop("timing")
                serialized.append(json.dumps(document, sort_keys=True).encode())
            assert serialized[0] == serialized[1], entry.source
