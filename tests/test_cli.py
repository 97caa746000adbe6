"""Pipeline orchestration, exit statuses, structured output, determinism."""

from __future__ import annotations

import errno
import functools
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopsing
from loopsing import cohom, grobner, loopfun
from loopsing.cli import (
    CHECK_NAMES,
    FUNCTIONAL_CHECKS,
    CheckOutcome,
    ConfigError,
    Report,
    RunConfig,
    format_function,
    main,
    parse_function,
    run,
    validate_report,
)
from loopsing.cli.parser import (
    MAX_COEFFICIENT_DIGITS,
    MAX_COORDINATES,
    MAX_PRODUCT_WORK,
    MAX_SOURCE_BYTES,
)
from loopsing.cohom import MAX_N_MAX, GradedDims, GysinTower, LesSolution, LesSystem
from loopsing.loopfun import MAX_JET_TERMS, InputFunction
from loopsing.exactalg import LoopPoly, LoopVar, Monomial

from conftest import (
    CORPUS,
    DELETE,
    NON_ISOLATED_SOURCES,
    Poly,
    ambient_poly,
    bench_module,
    coded,
    deadline,
    decoded,
    edited,
    homogeneous_forms,
    lambda_of,
    reference_document,
    reference_functional_checks,
)


def _reference_json(document) -> str:
    """The structured report's bytes as the standard encoder writes them."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _x(cdeg: int) -> Poly:
    return Poly.variable(LoopVar(1, cdeg))


def run_source(source: str, **overrides) -> Report:
    return run(RunConfig(function_source=source, **overrides))


def _assert_cohomology_section_round_trips(report: Report) -> None:
    """The structured report, cohomology section and all, is what the standard
    encoder writes for the report's reference document, and to_dict is it parsed."""
    text = report.to_json()
    assert text == _reference_json(reference_document(report))
    assert report.to_dict() == json.loads(text)


def _untimed_digests(report: Report) -> tuple[str, str]:
    """SHA-256 of the JSON and the text rendering, without the measured time."""
    document = "".join(
        line
        for line in report.to_json().splitlines(keepends=True)
        if not line.lstrip().startswith('"seconds": ')
    )
    text = "".join(
        line
        for line in report.to_text().splitlines(keepends=True)
        if not line.startswith("timing")
    )
    return hashlib.sha256(document.encode()).hexdigest(), hashlib.sha256(text.encode()).hexdigest()


# Strings the structured report escapes: quotes, backslashes, control,
# non-ASCII and non-BMP characters, and the characters of its own layout.
_ESCAPED = st.text(st.sampled_from('"\\\n\r\t\x00\x1f\x7fé\u2028\U0001d11e ,:{}[]')) | st.text()
# Two small certified towers; the constructor asks only n_max >= max(2, bottom).
_TOWERS = [cohom.gysin_tower(1, 1, 2).renormalized(), cohom.gysin_tower(2, 4, 3).renormalized()]


@st.composite
def _reports(draw) -> Report:
    """A Report built through its constructor, over every form of each member."""
    checks = draw(st.lists(st.sampled_from(CHECK_NAMES), min_size=1, unique=True))
    outcomes = (
        st.just(CheckOutcome(True))
        | st.builds(CheckOutcome, st.just(False), _ESCAPED)
        | st.builds(CheckOutcome, st.just(False), _ESCAPED, st.just(True))
    )
    functional = any(name in FUNCTIONAL_CHECKS for name in checks)
    term_count = draw(st.none() | st.integers(0, 2**70)) if functional else None
    polynomial = None if term_count is None else draw(st.none() | _ESCAPED)
    isolated = None
    if "milnor" in checks or "cohomology" in checks:
        isolated = draw(st.none() | st.booleans())
    bottom = draw(st.integers(1 if {"linearity", "derivative"} & {*checks} else 0, 2))
    return Report(
        function=draw(_ESCAPED), d=draw(st.integers(1, 4)), delta=draw(st.integers(2, 9)),
        window=loopfun.Window(bottom, draw(st.integers(-bottom, 40))),
        milnor_number=draw(st.none() | st.integers(0, 2**70) | st.just(2**64 + 1)),
        isolated=isolated, lambda_term_count=term_count, lambda_polynomial=polynomial,
        checks={name: draw(outcomes) for name in checks},
        cohomology=draw(st.none() | st.sampled_from(_TOWERS)),
        timing_seconds=draw(
            st.sampled_from([0.0, 5e-324, 1e300])
            | st.floats(allow_nan=False, allow_infinity=False)
        ),
    )


class TestRun:
    def test_quadric_defaults(self):
        report = run_source("z^2")
        assert report.milnor_number == 1
        assert report.isolated is True
        assert report.lambda_term_count == 2
        assert all(c.ok for c in report.checks.values())
        assert report.cohomology is not None
        assert report.cohomology.stable == GradedDims({0: 1})
        assert report.exit_status == 0

    def test_fermat_cubic(self):
        report = run_source("x^3 + y^3")
        assert report.milnor_number == 4
        assert report.cohomology.stable == GradedDims({1: 4})

    def test_non_isolated_skips_cohomology(self):
        report = run_source("x^2*y")
        assert report.isolated is False
        assert report.milnor_number is None
        assert not report.checks["milnor"].ok
        assert report.checks["milnor"].witness
        assert report.checks["cohomology"].skipped
        assert report.cohomology is None
        assert report.exit_status == 1

    def test_check_subset(self):
        report = run_source("x^3 + y^3", checks=("lambda", "milnor"))
        assert set(report.checks) == {"lambda", "milnor"}
        assert report.cohomology is None
        assert report.exit_status == 0

    def test_emit_lambda(self):
        report = run_source("z^2", emit_lambda=True)
        assert report.lambda_polynomial == "z_0^2 + 2*z_-1*z_1"

    def test_wider_window(self):
        report = run_source("z^2", window_bottom=3)
        assert report.window.bottom == 3 and report.window.top == 3
        assert report.lambda_term_count == 4
        assert report.exit_status == 0

    def test_truncation_table_height(self):
        report = run_source("z^2", n_max=6)
        truncations = report.cohomology.tower.truncations
        assert len(truncations) == 7
        assert truncations[6] == GradedDims({0: 1, 12: 1})

    @pytest.mark.parametrize("source, calls", [("z^2", 4), ("x^3 + y^3", 3)])
    def test_cohomology_solves_a_fixed_number_of_sequences(self, monkeypatch, source, calls):
        # The base steps up to n0 (2 for d = 1, else 1), then the unit and mu
        # blocks; every later step is certified from those, whatever n_max is.
        solve = cohom.solve_les_detailed
        counts = []
        for n_max in (2, 5, 12, MAX_N_MAX):
            systems = []

            def counted(system):
                systems.append(system)
                return solve(system)

            monkeypatch.setattr(cohom, "solve_les_detailed", counted)
            report = run_source(source, n_max=n_max, checks=("cohomology",))
            assert report.checks["cohomology"].ok
            assert len(report.cohomology.tower.truncations) == n_max + 1
            counts.append(len(systems))
        assert counts == [calls] * 4

    @pytest.mark.parametrize("source, n0", [("z^2", 2), ("x^3 + y^3", 1)])
    @pytest.mark.parametrize("n_max", [2, 5, 12])
    def test_each_base_truncation_is_audited_once(self, monkeypatch, source, n0, n_max):
        # Truncations past n0 are translates of the certified blocks, whose
        # concentration the audit of truncation n0 already covers.
        audit = cohom._concentration_degree
        calls = []

        def counted(full, n):
            calls.append(n)
            return audit(full, n)

        monkeypatch.setattr(cohom, "_concentration_degree", counted)
        report = run_source(source, n_max=n_max, checks=("cohomology",))
        report.to_json()
        report.to_text()
        assert report.checks["cohomology"].ok
        assert calls == list(range(n0 + 1))

    def test_failed_shift_rule_fails_the_check(self, monkeypatch):
        solve = cohom.solve_les_detailed

        def wrong(system):
            solution = solve(system)
            return LesSolution(
                solution.b.shifted(1), solution.ranks, solution.segments, solution.axioms
            )

        monkeypatch.setattr(cohom, "solve_les_detailed", wrong)
        report = run_source("x^3 + y^3")
        outcome = report.checks["cohomology"]
        assert not outcome.ok and not outcome.skipped
        assert "shift rule" in outcome.witness
        assert report.cohomology is None
        assert report.exit_status == 1
        assert main(["-f", "x^3 + y^3"]) == 1

    def test_a_colimit_other_than_mu_fails_the_check(self, monkeypatch, capsys):
        # A record that claims mu = 5 over the certified mu = 4 head of
        # x^3 + y^3: its colimit is {1: 4}, and the audit expects {d-1: mu}.
        t = cohom.gysin_tower(2, 4, 6)
        forged = GysinTower(
            t.d, 5, t.head_truncations, t.head_degrees, t.head_ranks, t.axioms, t.n0, t.n_max
        )
        witness = "stable renormalized cohomology {1: 4} != expected {1: 5}"
        with pytest.raises(RuntimeError) as raised:
            forged.renormalized()
        assert str(raised.value) == witness
        monkeypatch.setattr(cohom, "gysin_tower", lambda d, mu, n_max: forged)
        report = run_source("x^3 + y^3")
        assert report.checks["cohomology"] == CheckOutcome(ok=False, witness=witness)
        assert report.cohomology is None
        assert validate_report(report.to_dict()) == []
        capsys.readouterr()
        assert main(["-f", "x^3 + y^3"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_tower_whose_degrees_stall_fails_the_check(self, monkeypatch, capsys):
        # A record of x^3 + y^3 whose step 1 repeats step 0: its reduced
        # degree stays at 1 where the shift rule moves it up by 2d = 4.  The
        # text report's vanishing row reads that climb, so none is printed.
        t = cohom.gysin_tower(2, 4, 6)
        forged = GysinTower(
            t.d, t.mu, t.head_truncations[:1] * 2, (1, 1), t.head_ranks, t.axioms, t.n0, t.n_max
        )
        witness = "reduced cohomology in degree 1 at step 1, not moved up by 2d = 4 from step 0"
        with pytest.raises(RuntimeError) as raised:
            forged.renormalized()
        assert str(raised.value) == witness
        monkeypatch.setattr(cohom, "gysin_tower", lambda d, mu, n_max: forged)
        report = run_source("x^3 + y^3")
        assert report.checks["cohomology"] == CheckOutcome(ok=False, witness=witness)
        assert report.cohomology is None
        assert "vanishing" not in report.to_text()
        capsys.readouterr()
        assert main(["-f", "x^3 + y^3"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "vanishing" not in captured.out

    def test_an_underdetermined_gysin_system_fails_the_check(self, monkeypatch, capsys):
        # Without the declared residue fact, exactness alone leaves the first
        # Gysin sequence of x^3 + y^3 free in degrees 3 and 4.
        solve = cohom.solve_les_detailed
        monkeypatch.setattr(
            cohom, "solve_les_detailed",
            lambda system: solve(LesSystem(system.codim, system.a, system.c_dims)),
        )
        witness = "gysin system unexpectedly underdetermined at degrees (3, 4)"
        with pytest.raises(RuntimeError) as raised:
            cohom.gysin_tower(2, 4, 6)
        assert str(raised.value) == witness
        report = run_source("x^3 + y^3")
        assert report.checks["cohomology"] == CheckOutcome(ok=False, witness=witness)
        assert report.cohomology is None
        capsys.readouterr()
        assert main(["-f", "x^3 + y^3"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_functional_computed_once(self, monkeypatch, entry):
        jet = loopfun._jet_of_poly
        calls = []

        def counted(poly, window, k, *codes):
            calls.append((window, k))
            return jet(poly, window, k, *codes)

        monkeypatch.setattr(loopfun, "_jet_of_poly", counted)
        report = run_source(entry.source, window_bottom=2, checks=FUNCTIONAL_CHECKS)
        assert report.exit_status == 0
        # one functional, then one jet per partial derivative
        assert len(calls) == 1 + entry.d
        assert [k for _, k in calls] == [0] + [-2 * (entry.delta - 1)] * entry.d

    @pytest.mark.parametrize(
        "source, mu",
        [("(x + 2*y - w)^4 + (y - w)^4 + (x - w)^4", 27), ("x^3 + y^3", 4)],
        ids=["dense", "fermat"],
    )
    def test_one_jacobian_ideal_per_report(self, monkeypatch, source, mu):
        # Both Milnor routes run (d <= 3, delta <= 5) and read one build of the partials.
        build = InputFunction.__dict__["integer_partials"].func
        calls = []

        def counted(func):
            calls.append(func)
            return build(func)

        counted_property = functools.cached_property(counted)
        counted_property.__set_name__(InputFunction, "integer_partials")
        monkeypatch.setattr(InputFunction, "integer_partials", counted_property)
        oracle = grobner.milnor_number_oracle
        oracles = []
        monkeypatch.setattr(
            grobner, "milnor_number_oracle", lambda func: oracles.append(func) or oracle(func)
        )
        report = run_source(source, checks=("milnor",))
        assert report.exit_status == 0 and report.milnor_number == mu
        assert len(calls) == 1 and oracles == calls

    def test_the_milnor_check_runs_the_oracle_exactly_on_its_gate(self, monkeypatch):
        # The linear-algebra oracle runs on d <= 3, delta <= 5 and nowhere else.
        oracle = grobner.milnor_number_oracle
        oracles = []
        monkeypatch.setattr(
            grobner, "milnor_number_oracle", lambda func: oracles.append(func) or oracle(func)
        )
        for d, delta in [(2, 5), (3, 5), (3, 6), (4, 3)]:
            source = " + ".join(f"{name}^{delta}" for name in ("x", "y", "w", "v")[:d])
            assert run_source(source, checks=("milnor",)).exit_status == 0
        assert [(func.d, func.delta) for func in oracles] == [(2, 5), (3, 5)]

    @pytest.mark.parametrize(
        "factor, witness",
        [
            # a t^0 coefficient of conformal weight 1
            (LoopVar(1, 1), "loop functional has conformal weights {1}"),
            # one of conformal weight 0 but of degree delta + 1
            (LoopVar(1, 0), "loop functional has scaling weights {4}"),
        ],
        ids=["conformal", "scaling"],
    )
    def test_failed_functional_audit_fails_every_functional_check(
        self, monkeypatch, capsys, factor, witness
    ):
        jet = loopfun._jet_of_poly
        func = parse_function("x^3 + y^3")

        def shifted(poly, window, k, *codes):
            # The functional's weight audits reject it.
            result = jet(poly, window, k, *codes)
            if k:
                return result
            return coded(decoded(result) * Poly.variable(factor), func, window.bottom)

        monkeypatch.setattr(loopfun, "_jet_of_poly", shifted)
        report = run_source("x^3 + y^3")
        for name in FUNCTIONAL_CHECKS:
            outcome = report.checks[name]
            assert not outcome.ok and not outcome.skipped
            assert outcome.witness == witness
        assert report.lambda_term_count is None
        assert report.checks["milnor"].ok and report.checks["cohomology"].ok
        assert validate_report(report.to_dict()) == []
        capsys.readouterr()
        assert main(["-f", "x^3 + y^3"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_jet_term_built_twice_fails_every_functional_check(self, monkeypatch, capsys):
        expansion = loopfun._power_expansion

        def doubled(*args):
            # One group of the expansion holds its first term twice.
            found = expansion(*args)
            group = next(iter(found.values()))
            group.append(group[0])
            return found

        monkeypatch.setattr(loopfun, "_power_expansion", doubled)
        report = run_source("x^3 + y^3")
        witnesses = set()
        for name in FUNCTIONAL_CHECKS:
            outcome = report.checks[name]
            assert not outcome.ok and not outcome.skipped
            witnesses.add(outcome.witness)
        (witness,) = witnesses
        assert re.fullmatch(r"monomial \S+ occurs twice among distinct terms", witness)
        assert report.lambda_term_count is None
        assert report.checks["milnor"].ok and report.checks["cohomology"].ok
        assert validate_report(report.to_dict()) == []
        capsys.readouterr()
        assert main(["-f", "x^3 + y^3"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("name", FUNCTIONAL_CHECKS)
    def test_broken_functional_fails_its_check_with_its_witness(self, monkeypatch, name):
        # x^3 + y^3 at window bottom 1: the bound is 2 and the functional
        # holds the term 3*x_-1^2*x_2.  Each edit breaks the one property
        # its check reads.
        edit, witness = {
            "lambda": (
                lambda lam: lam - _x(0) ** 3,
                "constant-loop restriction does not recover the input",
            ),
            "support": (
                lambda lam: lam + _x(-3) * _x(0) * _x(3),
                "conformal degree 3 exceeds bound 2",
            ),
            "linearity": (
                lambda lam: lam + _x(-4) * _x(2) * Poly.variable(LoopVar(2, 2)),
                "nonlinear monomial z1_-4*z1_2*z2_2",
            ),
            "derivative": (
                lambda lam: lam + 3 * _x(-1) ** 2 * _x(2),
                "identity fails for coordinates [1]",
            ),
        }[name]
        monkeypatch.setattr(
            loopfun,
            "_functional_jet",
            lambda func, window: coded(edit(lambda_of(func, window)), func, window.bottom),
        )
        report = run_source("x^3 + y^3", checks=(name,))
        assert report.checks == {name: CheckOutcome(ok=False, witness=witness)}
        assert report.exit_status == 1
        assert validate_report(report.to_dict()) == []

    def test_checks_read_the_window_functional_when_the_support_bound_fails(self, monkeypatch):
        # x_-1*x_-2*x_3 reaches past the bound 2 of x^3 + y^3 at window
        # bottom 1.  Only the support check may see it: the other checks read
        # the functional with every variable above the window set to zero.
        plain = run_source("x^3 + y^3", emit_lambda=True)
        monkeypatch.setattr(
            loopfun,
            "_functional_jet",
            lambda func, window: coded(
                lambda_of(func, window) + _x(-1) * _x(-2) * _x(3), func, window.bottom
            ),
        )
        report = run_source("x^3 + y^3", checks=FUNCTIONAL_CHECKS, emit_lambda=True)
        assert report.checks["support"] == CheckOutcome(
            ok=False, witness="conformal degree 3 exceeds bound 2"
        )
        assert all(report.checks[name].ok for name in ("lambda", "linearity", "derivative"))
        assert report.lambda_term_count == plain.lambda_term_count
        assert report.lambda_polynomial == plain.lambda_polynomial

    def test_oversized_functional_is_not_a_failed_check(self, monkeypatch):
        monkeypatch.setattr(loopfun, "MAX_JET_TERMS", 20)
        with pytest.raises(loopfun.FunctionalTooLarge):
            run_source("x^3 + y^3", window_bottom=2, checks=FUNCTIONAL_CHECKS)

    @pytest.mark.parametrize("audit", ["basis", "count"])
    def test_failed_groebner_audit_fails_the_milnor_check(self, monkeypatch, capsys, audit):
        if audit == "basis":
            def unverified(elements, generators, run):
                raise RuntimeError("S-polynomial does not reduce to zero")

            monkeypatch.setattr(grobner, "_verify_basis", unverified)
            witness = "S-polynomial does not reduce to zero"
        else:
            staircase = grobner._staircase

            def one_short(leads, box):
                # The count recurses on one coordinate fewer each time; only
                # the outermost call, on the whole box of x^3 + y^3, errs.
                size, top = staircase(leads, box)
                return size - (len(box) == 2), top

            monkeypatch.setattr(grobner, "_staircase", one_short)
            witness = "standard-monomial count 3 != (delta-1)^d = 4"
        report = run_source("x^3 + y^3", checks=("lambda", "milnor", "cohomology"))
        assert report.checks["lambda"].ok
        assert report.checks["milnor"] == CheckOutcome(ok=False, witness=witness)
        assert report.checks["cohomology"] == CheckOutcome(
            ok=False, skipped=True, witness="skipped: the Milnor number audit failed"
        )
        assert report.milnor_number is None and report.isolated is None
        assert report.cohomology is None
        assert validate_report(report.to_dict()) == []
        capsys.readouterr()
        assert main(["-f", "x^3+y^3", "--checks", "milnor"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_corrupted_basis_fails_the_real_audit(self, monkeypatch, capsys):
        reduce_basis = grobner._reduce_basis

        def corrupted(basis, run):
            # One tail coefficient of the first element that has a tail, off by one.
            reduced = reduce_basis(basis, run)
            g = next(g for g in reduced if len(g) > 1)
            g[-1] = (g[-1][0], g[-1][1] + 1)
            return reduced

        monkeypatch.setattr(grobner, "_reduce_basis", corrupted)
        source = "(x + 2*y - w)^4 + (3*x - y + w)^4 + (x + y + 2*w)^4"
        witness = "S-polynomial does not reduce to zero"
        report = run_source(source, checks=("milnor",))
        assert report.checks["milnor"] == CheckOutcome(ok=False, witness=witness)
        assert report.milnor_number is None and report.isolated is None
        capsys.readouterr()
        assert main(["-f", source, "--checks", "milnor"]) == 1
        captured = capsys.readouterr()
        assert witness in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_oracle_that_finds_no_isolated_singularity_fails_the_check(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(grobner, "milnor_number", lambda func: 4)
        report = run_source("x^2*y", checks=("milnor",))
        assert report.checks["milnor"] == CheckOutcome(
            ok=False,
            witness="linear-algebra oracle finds the singularity not isolated, "
            "basis count gives 4",
        )
        assert report.exit_status == 1
        assert validate_report(report.to_dict()) == []
        assert main(["-f", "x^2*y", "--checks", "milnor"]) == 1
        captured = capsys.readouterr()
        assert "not isolated" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_oracle_matrix_missing_rows_fails_the_check(self, monkeypatch):
        # Only the oracle reads _monomial_exponents: dropping every other
        # shift leaves its Macaulay matrix short of rows, while the basis count
        # is untouched.
        exponents = grobner._monomial_exponents
        monkeypatch.setattr(
            grobner, "_monomial_exponents", lambda d, degree: exponents(d, degree)[::2]
        )
        source = "(2*x - y + w)^5 + (x + 3*y - 2*w)^5 + (-x + y + 3*w)^5"
        report = run_source(source, checks=("milnor",))
        assert report.checks["milnor"] == CheckOutcome(
            ok=False,
            witness="linear-algebra oracle finds the singularity not isolated, "
            "basis count gives 64",
        )
        assert report.milnor_number == 64 and report.exit_status == 1

    def test_axioms_listed_when_cohomology_runs(self):
        report = run_source("z^2")
        assert any("residue" in axiom for axiom in report.axioms)
        bare = run_source("z^2", checks=("lambda",))
        assert bare.axioms == ()


class TestOneFormOfF:
    """F is held as exponent terms from the parser on: parsing, both Milnor
    routes and the printer of F build no LoopPoly or Monomial, so neither
    does a Milnor run.  The functional checks and the emitted functional read
    the jet's codes, so a passing functional report builds none either."""

    # A dense GL transform of a (3, 4) Fermat form, and a (4, 3) one.
    SOURCES = (
        "(x + 2*y - w)^4 + (3*x - y + w)^4 + (x + y + 2*w)^4",
        "(x + y - v)^3 + (x - y + w)^3 + (w + 2*v - y)^3 + (x + 3*v + 2*w)^3",
    )

    @pytest.fixture
    def constructions(self, monkeypatch) -> Counter:
        counts: Counter = Counter()
        for cls in (LoopPoly, Monomial):

            def counted(obj, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return counts

    @pytest.mark.parametrize("source", SOURCES)
    def test_parsing_and_both_milnor_routes_build_no_polynomial(self, constructions, source):
        func = parse_function(source)
        mu = (func.delta - 1) ** func.d
        assert grobner.milnor_number(func) == grobner.milnor_number_oracle(func) == mu
        assert not constructions

    @pytest.mark.parametrize("source", SOURCES)
    def test_a_milnor_run_builds_no_polynomial(self, constructions, source):
        report = run_source(source, checks=("milnor",))
        assert report.exit_status == 0
        assert format_function(parse_function(source)) == report.function
        assert not constructions

    @pytest.mark.parametrize("bottom", [1, 2])
    @pytest.mark.parametrize("source", ["x^3 + y^3", "x^3*y + y^3*w + w^3*x", SOURCES[0]])
    def test_a_functional_run_builds_no_polynomial(self, constructions, source, bottom):
        report = run_source(
            source, window_bottom=bottom, checks=FUNCTIONAL_CHECKS, emit_lambda=True
        )
        assert report.exit_status == 0 and report.lambda_polynomial
        assert not constructions


def _assert_run_matches_the_reference(
    source: str, bottom: int, edit: Callable[[LoopPoly], LoopPoly] | None = None
) -> list[Report]:
    """run() on the jet's codes against the LoopPoly reference on lambda_of,
    with and without the support check (whose window the functional then
    comes from): every outcome and witness, the term count and the text.
    With `edit`, both sides check the edited functional; run() reads it
    coded.  Returns run()'s reports."""
    func = parse_function(source)
    reports = []
    for checks in (FUNCTIONAL_CHECKS, ("lambda", "linearity", "derivative")):
        try:
            count, text, outcomes = reference_functional_checks(func, bottom, checks, edit)
        except loopfun.FunctionalTooLarge:
            with pytest.raises(loopfun.FunctionalTooLarge):
                run_source(source, window_bottom=bottom, checks=checks, emit_lambda=True)
            continue
        with pytest.MonkeyPatch.context() as patch:
            if edit is not None:
                patch.setattr(
                    loopfun,
                    "_functional_jet",
                    lambda f, window: coded(edit(lambda_of(f, window)), f, window.bottom),
                )
            report = run_source(source, window_bottom=bottom, checks=checks, emit_lambda=True)
        assert report.checks == outcomes
        assert (report.lambda_term_count, report.lambda_polynomial) == (count, text)
        reports.append(report)
    return reports


def _breaking_every_check(func: InputFunction, bottom: int) -> Callable[[LoopPoly], LoopPoly]:
    """An edit of the functional that each functional check sees: one term of
    F dropped from the constant loops, a term of degree 2 in z1_N, and a
    term past the bound N."""
    top = bottom * (func.delta - 1)

    def x(cdeg: int) -> Poly:
        return Poly.variable(LoopVar(1, cdeg))

    def edit(lam: LoopPoly) -> LoopPoly:
        dropped = LoopPoly(ambient_poly(func).terms[:1])
        nonlinear = x(top) ** 2 * x(-bottom) ** (func.delta - 2)
        return Poly.of(lam) - dropped + nonlinear + x(top + 1) * x(-bottom) ** (func.delta - 1)

    return edit


CODED_SOURCES = [entry.source for entry in CORPUS] + list(NON_ISOLATED_SOURCES)


class TestCodedChecksMatchTheReference:
    @pytest.mark.parametrize("bottom", [1, 2, 3])
    @pytest.mark.parametrize("source", CODED_SOURCES)
    def test_corpus(self, source, bottom):
        _assert_run_matches_the_reference(source, bottom)

    @pytest.mark.parametrize("bottom", [1, 2, 3])
    @pytest.mark.parametrize("source", CODED_SOURCES)
    def test_corpus_with_every_check_broken(self, source, bottom):
        edit = _breaking_every_check(parse_function(source), bottom)
        for report in _assert_run_matches_the_reference(source, bottom, edit):
            assert not any(outcome.ok for outcome in report.checks.values())

    @given(terms=homogeneous_forms(max_d=3, max_delta=4), bottom=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_drawn_dense_forms(self, terms, bottom):
        _assert_run_matches_the_reference(format_function(InputFunction(terms)), bottom)


class TestConfigValidation:
    def test_empty_checks(self):
        with pytest.raises(ConfigError):
            run_source("z^2", checks=())

    def test_unknown_check(self):
        with pytest.raises(ConfigError):
            run_source("z^2", checks=("lambda", "mystery"))

    def test_nmax_must_cover_window(self):
        with pytest.raises(ConfigError):
            run_source("z^2", window_bottom=5, n_max=3)

    def test_nmax_budget(self):
        RunConfig(function_source="z^2", n_max=MAX_N_MAX).validate()
        with pytest.raises(ConfigError, match=f"at most {MAX_N_MAX}"):
            run_source("z^2", n_max=MAX_N_MAX + 1)

    def test_structural_checks_need_poles(self):
        with pytest.raises(ConfigError):
            run_source("z^2", window_bottom=0)
        # without the pole-sensitive checks a pole-free window is fine
        report = run_source("z^2", window_bottom=0, checks=("lambda", "milnor"))
        assert report.exit_status == 0


class TestStructuredOutput:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_schema_on_corpus(self, entry):
        document = run_source(entry.source).to_dict()
        assert validate_report(document) == []

    @pytest.mark.parametrize("source", NON_ISOLATED_SOURCES)
    def test_schema_on_non_isolated(self, source):
        document = run_source(source).to_dict()
        assert validate_report(document) == []
        assert document["isolated"] is False
        assert document["cohomology"] is None

    def test_schema_rejects_malformed_documents(self):
        good = run_source("z^2").to_dict()
        assert validate_report({}) == ["function: not a string"]
        broken = dict(good)
        broken["checks"] = {"lambda": {"ok": False}}  # failed without witness
        assert validate_report(broken) == ["checks.lambda: failed without a witness"]
        broken = dict(good)
        broken["cohomology"] = dict(good["cohomology"])
        broken["cohomology"]["renormalized"] = {"0.5": 1}
        assert validate_report(broken) == [
            "cohomology.renormalized.0: missing",
            "cohomology.renormalized.0.5: unexpected",
        ]
        assert validate_report(dict(good, bogus=1)) == ["bogus: unexpected"]
        broken = dict(good, checks={"nonsense": {"ok": True}})
        assert validate_report(broken) == ["checks: unknown checks: nonsense"]
        broken = dict(good, checks={"a.b": {"ok": True}})  # a check name is one key, dots and all
        assert validate_report(broken) == ["checks: unknown checks: a.b"]

        # Documents of the right shape that no Report can produce.
        good = run_source("x^3 + y^3").to_dict()
        assert validate_report(good) == []
        broken = dict(good, window={"bottom": 1, "top": -7})  # Window needs top >= -bottom
        assert validate_report(broken) == ["window.top: expected 2, found -7"]
        broken = dict(good, checks=dict(good["checks"], milnor={"ok": True, "skipped": True}))
        assert validate_report(broken) == ["checks.milnor: skipped but ok"]
        for section, row, n in (("truncations", 1, 7), ("escape", 0, -3)):
            broken = edited(good, ("cohomology", section, row, "n"), n)
            assert validate_report(broken) == [
                f"cohomology.{section}[{row}].n: expected {row}, found {n}"
            ]
        broken = dict(good, milnor_number=None, isolated=True)
        assert validate_report(broken) == ["milnor_number: expected 4, found null"]
        for mu, isolated in ((4, False), (4, None)):
            broken = dict(good, milnor_number=mu, isolated=isolated)
            assert validate_report(broken) == [
                "isolated: not true beside a passed cohomology check"
            ]

    @pytest.mark.parametrize(
        "path, value, errors",
        [
            (("window", "top"), 5, ["window.top: expected 2, found 5"]),
            (("d",), 3, ["d: expected 2, found 3"]),
            (("delta",), 4, ["delta: expected 3, found 4"]),
            (("milnor_number",), 5, ["milnor_number: expected 4, found 5"]),
            (
                ("cohomology", "escape", slice(2, None)), DELETE,
                ["cohomology.escape: expected an array of length 5, found an array of length 2"],
            ),
            (
                ("cohomology", "truncations", 2, "dims"), {"0": 1, "9": 5},
                ["cohomology.truncations[2].dims.9: expected 4, found 5"],
            ),
            (
                ("cohomology", "renormalized"), {"1": 5},
                ["cohomology.renormalized.1: expected 4, found 5"],
            ),
            (
                ("cohomology", "stabilization", "-4"), 0,
                ["cohomology.stabilization.-4: expected 2, found 0"],
            ),
            (
                ("cohomology", "escape", 1, "degree"), 99,
                ["cohomology.escape[1].degree: expected 5, found 99"],
            ),
            (
                ("axioms",), [],
                ["axioms: expected an array of length 1, found an array of length 0"],
            ),
            (
                ("function",), "x^3 + y^2",
                ["function: not homogeneous: monomials of degrees 2 and 3"],
            ),
            (
                ("checks", "cohomology"), DELETE,
                [
                    "axioms: expected an array of length 0, found an array of length 1",
                    "cohomology: expected null, found an object of length 4",
                ],
            ),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_schema_rejects_what_the_program_would_not_derive(self, path, value, errors):
        # d, delta, the window, the Milnor number and the cohomology section
        # are fixed by the function, the window bottom and the tower height.
        good = run_source("x^3 + y^3").to_dict()
        assert validate_report(edited(good, path, value)) == errors

    @pytest.mark.parametrize(
        "checks, edits, error",
        [
            (("lambda", "milnor"), {"checks": {}}, "checks: at least one check must be enabled"),
            (
                ("lambda", "milnor"), {"checks": {"milnor": {"ok": True}}},
                "lambda: present beside no functional check",
            ),
            (
                ("lambda", "milnor"),
                {"checks": {"lambda": {"ok": True, "witness": "w"}, "milnor": {"ok": True}}},
                "checks.lambda: ok with a witness",
            ),
            (
                ("lambda", "milnor"),
                {"checks": {"linearity": {"ok": True}}, "window": {"bottom": 0, "top": 0}},
                "window.bottom: linearity and derivative checks need window >= 1",
            ),
            (
                CHECK_NAMES, {"window": {"bottom": 5, "top": 10}},
                "cohomology: n-max must be >= 2 and >= the window bottom",
            ),
            (
                ("lambda", "milnor"), {"checks": {"lambda": {"ok": True}}},
                "isolated: set beside no milnor or cohomology check",
            ),
        ],
        ids=["no checks", "lambda alone", "ok witness", "linearity at 0", "short tower",
             "isolated alone"],
    )
    def test_schema_rejects_a_run_that_run_refuses(self, checks, edits, error):
        # The rules RunConfig.validate applies to a run, and the sections
        # each check brings, are the Report's own rules too.
        good = run_source("x^3 + y^3", checks=checks, n_max=2).to_dict()
        assert validate_report(good) == []
        assert validate_report(dict(good, **edits)) == [error]

    @pytest.mark.parametrize(
        "path, value",
        [
            (("d",), True),
            (("milnor_number",), True),
            (("window", "bottom"), False),
            (("lambda", "term_count"), True),
            (("lambda", "term_count"), -5),
            (("cohomology", "renormalized", "0"), True),
            (("cohomology", "escape", 0, "degree"), True),
            (("cohomology", "truncations", 0, "n"), False),
            (("timing", "seconds"), True),
            (("isolated",), 1),
            (("isolated",), 0),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else json.dumps(v),
    )
    def test_schema_rejects_booleans_and_negative_counts(self, path, value):
        document = run_source("z^2").to_dict()
        assert validate_report(document) == []
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert validate_report(document) != []

    # The whole-report pins, one per (source, n-max), which name each test.
    _PINNED_REPORTS = [
        (
            "z^2", 4,
            "13216926e9bdb919e2a730ce98f0bcd81716199a247f7d0fad299aaea5eea05a",
            "a6182225affdd6f05e3cf8fc87dd1d0d2052c1e9271b3fa6effb99bbdf72d68e",
        ),
        (
            "z^3", 4,
            "9690731b78ba36e8e064192632ad6eaecb5e33d2529ec2d6fbf8b26589270586",
            "d36d12e84678bd19ac3aadf0cf16f76c568cc50838d765cb18ebad27e40aae0d",
        ),
        (
            "z^5", 4,
            "e8df613d727b641a59741acbce216c454f97d8e731099a7ab4bc98948812e3cf",
            "9232caa9a7e4b9f0ff9fdc91cfb9643556228804c6a4c4e9d5e9922e724c0026",
        ),
        (
            "x^2 + y^2", 4,
            "c21a74fe289976f8358a0e7c7941ee100fe4eab2d833edce8ed9c339330f43b8",
            "7f7b978e71a2369038333f22dd10858d113fab3e1bc598ee42e918d714721e73",
        ),
        (
            "x^3 + y^3", 4,
            "fd6b1b14b7ad675d81b8b3e3a05512d6491a2ecd7099fcee7e821af10ca47915",
            "7d8d2993805ef3b532380141dbe12d413827f7a006aa499bc64eaf6592e20320",
        ),
        (
            "x^4 + y^4", 4,
            "4d80e221fe7cd1779993f0cb1b173b5b3ad9c252c6fd42b6c07e78f12b21aece",
            "b742983f1598ea03113ed92b8aec3bdb5248b4028cf43e08a7aa5387ebb1cbe7",
        ),
        (
            "x^2 + y^2 + w^2", 4,
            "ebfd70a4da89d5771b7c4e50a5ccd5252e86e2b9ad8169afc59b9f667773ed02",
            "723540708d55e8633d37eaa3ab5f887c922bd3d959350d6a08af022dd3b5093d",
        ),
        (
            "x^3 + y^3 + w^3", 4,
            "81d2cf5ceb70ccfc0c0859e77274ab4178113668ec181cae352ec5faae9d1ab4",
            "c546c5f5e24888e4b5efaa137e1ba0140bbb9ee2abbac8f34576b70495029e89",
        ),
        (
            "z^2", 9,
            "274a2c8a5a8f9870b7569a1447ce263ea2581cd53c0cbc8e435fabc3ef02d2a5",
            "0c1c315bcba719ce6befba6399c34b101b17156ae5d8c11cc4f4777b6b122e02",
        ),
        (
            "z^3", 9,
            "8ebd19abb15585d595f6a22cf769bb9c1198bf75b977e1c53732301840a8d7cd",
            "858b41240de75e9a5c504ac190a73095533d091e2a278cd3a7c556d852db8732",
        ),
        (
            "z^5", 9,
            "98baaccec8cf3f0f5e4f47f53cb9f90af0a4f8be5b4c2aa198a653172fc73e10",
            "523f3307c53526bf43009b60171cf4b1873ce22650ed397463b466c1ad9eab45",
        ),
        (
            "x^2 + y^2", 9,
            "097b467a9800f2729bf453373de51945846174cbe35e90215450edd2ae6cbcff",
            "be6f7f4a3f391c52adc01e368da8b106102ee9bb35d54075e767a819dc62271c",
        ),
        (
            "x^3 + y^3", 9,
            "5d53c435224bd7dc2931d0acdb6a505caba16a1f5b77cdaa15d77b93b18f857a",
            "9f6ae7137f8c24ab6f2afd9f2ade1c9b3c83a2a7fa90cc9fb0610012c0c0f2b9",
        ),
        (
            "x^4 + y^4", 9,
            "8eb83a0c5b4d0cb6c333fa10391716fefd1e134fdf28239c357a1688999ac2c9",
            "fba811701c4f3103157501c531efb274a44451a8135be63ce1e84862443caad0",
        ),
        (
            "x^2 + y^2 + w^2", 9,
            "67f1f64e22ebeb40f130b2f67ad4848798a1f42b0c46f915c130fc279d638105",
            "6d279edc07d2bd09baca9bf732cc94fe325d7c3a29bfa42c277e1ed5eab3b183",
        ),
        (
            "x^3 + y^3 + w^3", 9,
            "ab83a06f67f904f4f0a0eff436cbb61f13016f6f5c39020fcaebdd26f6d6c534",
            "b21d2861b64a31a5369263cf8dc4d81b8e5d3d94edecba6df0a8646ca6ab1d03",
        ),
        (
            "x^3 + y^3 + w^3 + x*y*w", 9,
            "cb1c03bc9cb76444ade2c990dc87d05ca7ed1cc7f4a9dd580da502a575b3d9bd",
            "6bb1e2e05a7f9f1339901ce1bc5acd96fbd92e8660c1e91925ece801b6a17549",
        ),
        (
            "x^4 + 3*x^2*y^2 + y^4", 9,
            "53f3f82ac19f5f7bbff1f9c018fd3b8d16d6cbf451cf0b8e15b968de1ab9e790",
            "1b4a910ff5da9f5c0101564685d29c9f80204f34503a9dd3514a4c655d249322",
        ),
        (
            "x^3*y + y^3*w + w^3*x", 9,
            "42f35e1a745853cc22a13754cc05574b75a72c5706dbfe50d71ecd8954a672af",
            "5c83141f8bc1a471a1257e13f883b442dc1f66f50e4ba0a5a08d23fd2da2f1b4",
        ),
        (
            "x^2*y", 4,
            "4ab940c6f624f362b722235a21a179853ba35c6bc0ce0e4047445747784fc451",
            "150c6189a5d34fa75332693fa182bcdecadcd29b27fb86b9d5b5fc81aab46f28",
        ),
        (
            "x^3*y + x^2*y^2", 4,
            "b637a30cc1b0c7b70fdcf5c7c467f0fcb4d3e245cc4f986e5f976723a2f70c72",
            "07134fef1f12557b5eda992299981bce0ed8fb19087ede7b635b3cd297e6de4a",
        ),
        (
            "x^2*y^2 + w^4", 4,
            "98b97ca89685f5926ce9ef289c2f8d0dd238fc09904924ce28e36c583049b719",
            "6c0ce3f6a1b9c63ceb59358fbae56b14cacaba28ceb50a7471ff392b2027fd21",
        ),
        # Towers at MAX_N_MAX, far past the steps solved directly.
        (
            "z^3", MAX_N_MAX,
            "71d460ee21a001f19aa749663cb9bc414aa0df3d06fbf676e72ab7362a2dbeff",
            "99dcf96fa4039d87bb511d17e2fb08ae974e53530810282f17c9c048d2118422",
        ),
        (
            "x^3 + y^3", MAX_N_MAX,
            "54552fcf1ebd23f06d337a3ca41447b1cc9357944f9879505866ef7dc04cc78f",
            "d2a6a10bb2bc2620bd0fb8b33fc8e3847dc39ecd1977adad12e857373d8ad9c8",
        ),
        (
            "x^2 + y^2 + w^2", MAX_N_MAX,
            "59ccb35476d462b22eee9492f57dfe47a3b71f05119d66526337a94f9e97e994",
            "e62a4ec4526838daf8f32bff65888666fe38551d5749392b94065ff1ec2de311",
        ),
    ]

    @pytest.mark.parametrize(
        "source, n_max, json_digest, text_digest",
        _PINNED_REPORTS,
        ids=[f"{source}-{n_max}" for source, n_max, _, _ in _PINNED_REPORTS],
    )
    def test_whole_report_is_pinned(self, source, n_max, json_digest, text_digest):
        # Pins both renderings byte for byte, apart from the measured time.
        report = run_source(source, n_max=n_max)
        assert _untimed_digests(report) == (json_digest, text_digest)

    def test_whole_report_of_a_rational_form_is_pinned(self):
        # No benchmark input has a non-integral coefficient: this pins the
        # Fraction half of the coefficients, isolated with mu = 4, at window 2.
        report = run_source("1/2*x^3 - 3/4*x*y^2 + y^3", window_bottom=2)
        assert (report.milnor_number, report.lambda_term_count) == (4, 30)
        assert _untimed_digests(report) == (
            "11a0ebbdbf9b0d5946ff2e5c503538298990cf6fd5ffad0c2006851ac2e90ba3",
            "7f9635ad1ea0e91baa2716a29c66e1a534cd22bea11849fb19dd7fc57d33bc2c",
        )

    @pytest.mark.parametrize(
        "source, json_digest, text_digest",
        [
            (
                "(x + 2*y - w)^4 + (3*x - y + w)^4 + (x + y + 2*w)^4",
                "7276762634bfdaf903df7ed0f09c546f93c098602ae6b36592042996c8718eb4",
                "ded707b1b68496776aff38d3765f11dcfc8226fcb96f6e543e9d0da7d2ddc20b",
            ),
            (
                "(2*x - y + w)^5 + (x + 3*y - 2*w)^5 + (-x + y + 3*w)^5",
                "26abb249793aea1256a4eae1a025560b2090425557dca2bf1503154c10096a74",
                "702f981c5bcf7b0fbd0f434688bfbd9f18763829653dba821fb6d84c632838b8",
            ),
            (
                "(x + 2*y - w + v)^4 + (3*x - y + w - 2*v)^4 + (x + y + 2*w + 3*v)^4"
                " + (2*x - y - 3*w + v)^4",
                "bcda1aa9cee37b5b4009608fd946047fb855b12b4bb8a73f7901d9781fb497f2",
                "e4f1db163c6a7ba429ed6d1e9bb16c073fe7b499eb18b1861f0218b8f0840569",
            ),
        ],
    )
    def test_milnor_report_of_a_dense_form_is_pinned(self, source, json_digest, text_digest):
        # Dense GL transforms of the Fermat form at (d, delta) = (3, 4) and
        # (3, 5), where the milnor check runs both routes, oracle included,
        # and at (4, 4), where it runs the Groebner route alone.
        report = run_source(source, checks=("milnor",))
        assert _untimed_digests(report) == (json_digest, text_digest)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["functional", "jacobian", "tower"])
    def test_json_writer_matches_the_standard_encoder_on_benchmark_reports(self, workload, seed):
        # Every case a 20-second benchmark run of seeds 1 and 2 issues.
        for case in bench_module("workloads").generate(workload, seed, 20):
            report = run_source(
                case.source, window_bottom=case.window, n_max=case.n_max,
                checks=case.checks, emit_lambda=case.emit_lambda,
            )
            assert report.to_json() == _reference_json(reference_document(report)), case.source

    @given(report=_reports())
    @settings(max_examples=300, deadline=None)
    def test_json_writer_matches_the_standard_encoder_on_any_report(self, report):
        assert report.to_json() == _reference_json(reference_document(report))

    @given(report=_reports(), seconds=st.sampled_from([math.nan, math.inf, -math.inf, 0, 1]))
    @settings(max_examples=50, deadline=None)
    def test_report_refuses_a_time_that_is_not_a_finite_float(self, report, seconds):
        # The validator refuses such a time, so no Report may hold one.
        with pytest.raises(ValueError, match="^timing.seconds: not a finite float$"):
            report._replace(timing_seconds=seconds)

    def test_a_run_refuses_a_time_that_is_not_a_finite_float(self):
        with pytest.raises(ValueError, match="^timing.seconds: not a finite float$"):
            run_source("x^3 + y^3")._replace(timing_seconds=math.nan)

    def test_json_writer_runs_no_generic_encoder(self, monkeypatch, capsys):
        report = run_source("x^3 + y^3", n_max=9)
        expected = _reference_json(reference_document(report))

        def refused(*args, **kwargs):
            raise AssertionError("the generic JSON encoder ran")

        monkeypatch.setattr(json.JSONEncoder, "encode", refused)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", refused)
        assert report.to_json() == expected
        capsys.readouterr()
        assert main(["-f", "x^3 + y^3", "--n-max", "9", "--format", "structured"]) == 0
        untimed = functools.partial(re.sub, r'"seconds": .*', '"seconds"')
        assert untimed(capsys.readouterr().out) == untimed(expected)

    @pytest.mark.parametrize(
        "source", [entry.source for entry in CORPUS] + list(NON_ISOLATED_SOURCES)
    )
    def test_cohomology_writer_matches_the_standard_encoder_on_the_corpus(self, source):
        _assert_cohomology_section_round_trips(run_source(source))

    @staticmethod
    def fractions_made(monkeypatch, source: str) -> int:
        """The Fractions constructed by run() and to_json() of a report on
        source: window 2, every check, the functional emitted.  A Fraction
        computed from others needs one constructed before it, so counting
        the constructor counts every computation that starts from none."""
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        run_source(source, window_bottom=2, emit_lambda=True).to_json()
        monkeypatch.undo()
        return len(made)

    @pytest.mark.parametrize(
        "source", [entry.source for entry in CORPUS] + list(NON_ISOLATED_SOURCES)
    )
    def test_an_integral_input_constructs_no_fraction(self, monkeypatch, source):
        assert self.fractions_made(monkeypatch, source) == 0

    def test_a_rational_input_constructs_fractions(self, monkeypatch):
        assert self.fractions_made(monkeypatch, "1/2*x^3 - 3/4*x*y^2 + y^3") > 0

    @pytest.mark.parametrize("n_max", [2, 3, MAX_N_MAX])
    @pytest.mark.parametrize("source", ["z^2", "x^3 + y^3 + w^3"])
    def test_cohomology_writer_matches_the_standard_encoder_at_each_height(self, source, n_max):
        _assert_cohomology_section_round_trips(run_source(source, n_max=n_max))

    def test_cohomology_writer_puts_unit_and_mu_in_one_degree_for_a_quadric(self):
        # z^2: d = 1, so the unit class and the mu class share degree d - 1 = 0.
        report = run_source("z^2")
        _assert_cohomology_section_round_trips(report)
        assert report.to_dict()["cohomology"]["truncations"][0] == {"dims": {"0": 2}, "n": 0}

    @pytest.mark.parametrize(
        "checks",
        [
            (*subset, "cohomology")
            for size in range(len(CHECK_NAMES))
            for subset in itertools.combinations(CHECK_NAMES[:-1], size)
        ],
        ids=",".join,
    )
    def test_cohomology_writer_matches_the_standard_encoder_on_check_subsets(self, checks):
        _assert_cohomology_section_round_trips(run_source("x^3 + y^3", checks=checks))

    def test_cohomology_writer_beside_a_witness_that_needs_escapes(self, monkeypatch):
        witnesses = [
            'a "quoted" \\ backslash, an é, a bell \x07 and a newline\n',
            # The document's own member lines around the section.
            '\n  "cohomology": null,\n  "d": 0,',
        ]
        for witness in witnesses:
            def failing(func, window, witness=witness):
                raise RuntimeError(witness)

            monkeypatch.setattr(loopfun, "_functional_jet", failing)
            report = run_source("x^3 + y^3")
            assert report.checks["lambda"] == CheckOutcome(ok=False, witness=witness)
            assert report.cohomology is not None
            _assert_cohomology_section_round_trips(report)
            assert validate_report(json.loads(report.to_json())) == []

    @pytest.mark.parametrize("member", ["function", "witness", "lambda_polynomial"])
    @given(
        text=st.text()
        | st.text(st.sampled_from('"\\\n\r\t\x00\x1f\x7fé  ,:ln{}'))
        | st.sampled_from(['\n  "cohomology": null,', '\n  "cohomology": null,\n  "d": 0,'])
    )
    @settings(max_examples=100, deadline=None)
    def test_json_writer_matches_the_standard_encoder_for_any_string(self, member, text):
        # Each string member the report holds beside a tower, drawn to spell
        # out the document's own member lines around the cohomology section.
        strings = {"function": "z^2", "witness": "w", "lambda_polynomial": "0"}
        strings[member] = text
        report = Report(
            strings["function"], 1, 2, loopfun.Window(1, 1), None, None, 1,
            strings["lambda_polynomial"],
            {"lambda": CheckOutcome(False, strings["witness"]), "cohomology": CheckOutcome(True)},
            cohom.gysin_tower(1, 1, 2).renormalized(),
        )
        _assert_cohomology_section_round_trips(report)

    @pytest.mark.parametrize("writer", ["to_json", "to_dict"])
    def test_each_writer_renders_the_cohomology_section_once(self, monkeypatch, writer):
        report_module = importlib.import_module("loopsing.cli.report")
        calls = []

        def counted(cohomology):
            calls.append(cohomology)
            return section(cohomology)

        section = report_module._cohomology_json
        monkeypatch.setattr(report_module, "_cohomology_json", counted)
        report = run_source("x^3 + y^3")
        getattr(report, writer)()
        assert calls == [report.cohomology]

    def test_degree_keys_are_decimal_strings(self):
        document = run_source("x^3 + y^3").to_dict()
        stabilization = document["cohomology"]["stabilization"]
        assert all(isinstance(key, str) for key in stabilization)
        assert any(key.startswith("-") for key in stabilization)

    def test_reports_are_deterministic(self):
        docs = []
        for _ in range(2):
            doc = run_source("x^3 + y^3").to_dict()
            doc.pop("timing")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0].encode() == docs[1].encode()


class TestMain:
    def test_success_text(self, capsys):
        assert main(["-f", "z^2"]) == 0
        out = capsys.readouterr().out
        assert "milnor_number" in out and "renormalized" in out

    def test_structured_format(self, capsys):
        assert main(["-f", "z^2", "--format", "structured"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_report(document) == []
        assert document["milnor_number"] == 1

    def test_check_list_flag(self, capsys):
        assert main(["-f", "z^2", "--checks", "lambda,support", "--format", "structured"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document["checks"]) == {"lambda", "support"}
        assert document["cohomology"] is None

    def test_non_isolated_exit_code(self, capsys):
        assert main(["-f", "x^2*y"]) == 1

    def test_config_error_exit_code(self, capsys):
        assert main(["-f", "x^2 + y^3"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, got", [("x - x", "the zero polynomial"), ("0", "the zero polynomial"), ("7", "0")]
    )
    def test_low_degree_error_names_the_zero_polynomial(self, capsys, source, got):
        assert main(["-f", source]) == 2
        assert capsys.readouterr().err == (
            f"loopsing: error: homogeneity degree must be >= 2, got {got}\n"
        )

    def test_syntax_error_exit_code(self, capsys):
        assert main(["-f", "x +"]) == 2

    @pytest.mark.parametrize(
        "source", ["x^3*y^0", "x^3 + 0*y^3", "x^3 + y^3 - y^3", "x^3 + 0*y + w^3"]
    )
    def test_vanishing_variable_is_a_syntax_error(self, capsys, source):
        assert main(["-f", source]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1
        assert "'y', whose terms all vanish" in err

    @pytest.mark.parametrize(
        "source, mu",
        [("x^40 + y^40 + w^40 + v^40", 39**4), ("x^64 + y^64 + w^64 + v^64 + u^64", 63**5)],
    )
    def test_milnor_check_near_the_degree_budget(self, capsys, source, mu):
        # The standard monomials are counted, not listed: 63^5 of them here.
        with deadline(10):
            assert main(["-f", source, "--checks", "milnor", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["milnor_number"] == mu

    def test_oversized_functional_is_a_usage_error(self, capsys):
        with deadline(10):
            assert main(["-f", "x^10 + y^10", "--window", "8", "--n-max", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "loopsing: error: the loop functional on window [-8, 82] "
            f"needs more than {MAX_JET_TERMS} terms\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("output_format", ["text", "structured"])
    def test_groebner_basis_past_its_budget_is_a_usage_error(self, capsys, output_format):
        # The coefficients of this basis grow without end in sight: unbounded,
        # it ran a minute; the budget stops it after about a second.
        argv = ["-f", "x^8+y^8+w^8+v^8+(x+y+w+v)^8", "--checks", "milnor"]
        with deadline(30):
            assert main(argv + ["--format", output_format]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "loopsing: error: the Groebner basis computation exceeds its budget of "
            f"{grobner.MAX_REDUCTION_WORK} reduction term-words\n"
        )
        assert captured.out == ""

    def test_wide_window_of_a_quadric_finishes(self, capsys):
        # Each index meets its partner at once; trying every index from the
        # bottom of the window made this take minutes.
        with deadline(10):
            assert main(["-f", "x^2+y^2", "--window", "8000", "--checks", "lambda",
                         "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["lambda"]["term_count"] == 2 * 8001

    @pytest.mark.parametrize(
        "window, error",
        [
            (
                "100000",
                f"the loop functional on window [-100000, 100000] needs more than "
                f"{MAX_JET_TERMS} terms",
            ),
            # Past the jet budget the window itself is refused.
            ("1000000000", f"window bottom must be at most {MAX_JET_TERMS}"),
        ],
    )
    def test_huge_window_stops_at_the_budget(self, capsys, window, error):
        with deadline(10):
            assert main(["-f", "x^2+y^2", "--window", window, "--checks", "lambda"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"loopsing: error: {error}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "source, bottom, terms, digest",
        [
            (
                "x^3 + y^3", 2, 14,
                "9fc44f84897b003c58a76cc1cb082ccd3ea5ec244cfa2581e651e07f4e6ee9b6",
            ),
            (
                "(x + y)^3 + (y - w)^3 + (x + 2*w)^3", 1, 45,
                "4e927e47fb10bcb2814d15d3e3614a0ad2c9c59a229ac4695c40660eb215bc90",
            ),
            (
                "x^4 + y^4", 3, 68,
                "ace861dbbdfea05184701c303df4e65401374e486782c390ec32542022807126",
            ),
            (
                "1/2*x^3 - 3/4*x*y^2 + y^3", 2, 30,
                "e80f431a61722359286365c1504435918e4f288837ebe512700d0caecfddfb0c",
            ),
        ],
    )
    def test_emitted_functional_is_pinned(self, source, bottom, terms, digest):
        # Pins the term order and the variable names of --emit-lambda.
        report = run_source(source, window_bottom=bottom, emit_lambda=True)
        assert report.exit_status == 0
        assert report.lambda_term_count == terms
        assert hashlib.sha256(report.lambda_polynomial.encode()).hexdigest() == digest

    def test_missing_file_exit_code(self, capsys):
        assert main(["--file", "/nonexistent/input.txt"]) == 2

    def test_configuration_error_comes_before_an_unreadable_file(self, capsys):
        assert main(["--file", "/nonexistent", "--checks", "bogus"]) == 2
        assert capsys.readouterr().err == "loopsing: error: unknown checks: bogus\n"

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "fn.txt"
        path.write_text("# plane cubic\nx^3 + y^3\n")
        assert main(["--file", str(path)]) == 0

    def test_output_path(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["-f", "z^2", "--format", "structured", "--output", str(out)]) == 0
        document = json.loads(out.read_text())
        assert validate_report(document) == []

    def test_emit_lambda_flag(self, capsys):
        assert main(["-f", "z^2", "--emit-lambda"]) == 0
        assert "z_0^2" in capsys.readouterr().out

    def test_deep_nesting_is_a_syntax_error(self, capsys):
        source = "(" * 3000 + "x" + ")" * 3000 + "^2"
        assert main(["-f", source]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "source", ["x^200000 + y^200000", "x^40*y^40", "(x + y + w)^65"]
    )
    def test_degree_budget_is_a_syntax_error(self, capsys, source):
        with deadline(10):
            assert main(["-f", source, "--checks", "lambda"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1
        assert "at most 64" in err

    def test_a_form_past_the_coordinate_budget_is_a_syntax_error(self, capsys, tmp_path):
        # Isolated with mu = 1, but the Milnor count recurses once per
        # coordinate: past the budget the run would end in a failed milnor
        # check and exit 1.
        source = " + ".join(f"a{i}^2" for i in range(1000))
        path = tmp_path / "wide.txt"
        path.write_text(source + "\n")
        with deadline(10):
            assert main(["--file", str(path)]) == 2
        first = f"a{MAX_COORDINATES}"
        assert capsys.readouterr().err == (
            f"loopsing: error: syntax error at position {source.index(first + '^')}:"
            f" expected at most {MAX_COORDINATES} variables, found {first!r}\n"
        )

    def test_the_widest_form_in_the_coordinate_budget_passes_every_check(self):
        report = run_source(" + ".join(f"a{i}^2" for i in range(MAX_COORDINATES)))
        assert (report.d, report.milnor_number) == (MAX_COORDINATES, 1)
        assert report.checks == {name: CheckOutcome(ok=True) for name in CHECK_NAMES}
        assert report.exit_status == 0

    def test_power_of_a_long_sum_is_a_syntax_error(self, capsys):
        with deadline(10):
            assert main(["-f", "(x + y + w + v + u)^20", "--checks", "lambda"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1
        assert f"at most {MAX_PRODUCT_WORK} term pairs" in err

    @pytest.mark.parametrize(
        "source", ["((2^64)^64)^64*x^2", "9" * (MAX_COEFFICIENT_DIGITS + 1) + "*x^2"]
    )
    def test_coefficient_budget_is_a_syntax_error(self, capsys, source):
        with deadline(10):
            assert main(["-f", source, "--checks", "milnor"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1
        assert f"at most {MAX_COEFFICIENT_DIGITS} digits" in err

    @pytest.mark.parametrize("output_format", ["text", "structured"])
    def test_coefficients_at_the_budget_print_under_the_least_digit_limit(
        self, capsys, output_format
    ):
        # 640 is the least limit on integer-to-string conversion the
        # interpreter accepts; the functional multiplies F's coefficients.
        big = "9" * MAX_COEFFICIENT_DIGITS
        source = f"{big}/{big[:-1]}7*x^6 + {big}*x^3*y^3 - y^6"
        argv = ["-f", source, "--emit-lambda", "--window", "2", "--format", output_format]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(argv) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert big in capsys.readouterr().out

    @pytest.mark.parametrize("n_max", ["100000", str(MAX_N_MAX + 1)])
    def test_nmax_budget_is_a_configuration_error(self, capsys, n_max):
        with deadline(10):
            assert main(["-f", "x^2 + y^2", "--n-max", n_max]) == 2
        err = capsys.readouterr().err
        assert err == f"loopsing: error: n-max must be at most {MAX_N_MAX}\n"

    @pytest.mark.parametrize("output_format", ["text", "structured"])
    @pytest.mark.parametrize("window", [str(MAX_JET_TERMS + 1), "9" + "0" * 4299])
    def test_window_budget_is_a_configuration_error(self, capsys, output_format, window):
        # No check builds a functional here, so only the window bound stops
        # a window top too long to print.
        argv = ["-f", "x^3 + y^3", "--checks", "milnor", "--window", window]
        with deadline(10):
            assert main(argv + ["--format", output_format]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"loopsing: error: window bottom must be at most {MAX_JET_TERMS}\n"
        assert captured.out == ""

    def test_window_at_the_budget_runs(self, capsys):
        argv = ["-f", "x^3 + y^3", "--checks", "milnor", "--window", str(MAX_JET_TERMS)]
        assert main(argv + ["--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["window"]["top"] == 2 * MAX_JET_TERMS

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(Path(loopsing.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "loopsing.cli", "-f", "x^3+y^3", "--format", "structured"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["milnor_number"] == 4

    def test_reports_do_not_depend_on_the_hash_seed(self):
        # A dense GL transform of x^3 + y^3 + w^3: the jet kernel iterates
        # over dicts and sets, so only separate processes with different
        # hash seeds can show an order that depends on the seed.
        source = (
            "18*x^3 + 84*x^2*y - 45*x^2*w + 48*x*y^2 - 198*x*y*w + 27*x*w^2"
            " + y^3 - 72*y^2*w + 108*y*w^2"
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(
                os.environ, PYTHONPATH=str(Path(loopsing.__file__).parents[1]), PYTHONHASHSEED=seed
            )
            result = subprocess.run(
                [sys.executable, "-m", "loopsing.cli", "-f", source, "--window", "2",
                 "--emit-lambda", "--format", "structured"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            document = json.loads(result.stdout)
            assert int(document["lambda"]["term_count"]) > 100
            document.pop("timing")
            outputs.append(json.dumps(document, sort_keys=True).encode())
        assert outputs[0] == outputs[1]

    def test_run_ignores_the_removed_cache_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LOOPSING_CACHE", raising=False)
        assert main(["-f", "x^3 + y^3", "--format", "structured"]) == 0
        plain = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("LOOPSING_CACHE", str(tmp_path))
        assert main(["-f", "x^3 + y^3", "--format", "structured"]) == 0
        with_variable = json.loads(capsys.readouterr().out)
        assert list(tmp_path.iterdir()) == []
        plain.pop("timing")
        with_variable.pop("timing")
        assert with_variable == plain

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, target):
        path = tmp_path / "no" / "such" / "r.txt" if target == "missing directory" else tmp_path
        assert main(["-f", "x^3 + y^3", "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("loopsing: error:") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert captured.out == ""

    def test_non_utf8_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "fn.txt"
        path.write_bytes(b"\xff\xfex^3 + y^3\n")
        assert main(["--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1
        assert "not UTF-8 text at byte 0" in err and str(path) in err

    def test_file_one_byte_over_the_bound_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "fn.txt"
        path.write_bytes(b"x^3 + y^3" + b" " * (MAX_SOURCE_BYTES - 8))
        assert main(["--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loopsing: error:") and err.count("\n") == 1
        assert f"longer than {MAX_SOURCE_BYTES} bytes" in err and str(path) in err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /dev/zero")
    def test_endless_file_is_a_usage_error(self, capsys):
        # Reading stops one byte past the bound instead of running out of memory.
        with deadline(10):
            assert main(["--file", "/dev/zero"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"loopsing: error: [Errno {errno.EFBIG}] longer than {MAX_SOURCE_BYTES} bytes: "
            "'/dev/zero'\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["-f", "-x^2-y^2"],
                "argument -f/--function: expected one argument "
                "(write -f=EXPR for an expression that starts with '-')",
            ),
            (["-f", "x^2", "--window", "abc"], "argument --window: invalid int value: 'abc'"),
            ([], "one of the arguments -f/--function --file is required"),
            (
                ["-f", "x^2", "--file", "fn.txt"],
                "argument --file: not allowed with argument -f/--function",
            ),
            (
                ["-f", "x^2", "--format", "xml"],
                "argument --format: invalid choice: 'xml' (choose from 'text', 'structured')",
            ),
            (["-f", "x^2", "--bogus", "a\nb"], "unrecognized arguments: --bogus a b"),
        ],
        ids=["leading minus", "bad window", "no source", "two sources", "bad format",
             "unknown flag"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"loopsing: error: {message}\n"
        assert captured.out == ""

    def test_leading_minus_after_equals_sign(self, capsys):
        assert main(["-f=-x^2-y^2", "--checks", "milnor", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["function"] == "-y^2 - x^2"

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = "usage: loopsing [-h] (-f FUNCTION | --file FILE)"
        assert capsys.readouterr().out.startswith(usage)


# Inputs are token soup over the whole grammar, or homogeneous sums of
# monomials and powers of linear forms.  Exponents of at most 3, at most ten
# soup tokens and windows of at most 1 keep every functional far below
# MAX_JET_TERMS.
_TOKEN_SOUP = st.lists(
    st.one_of(
        st.sampled_from(["x", "y", "w", "+", "-", "*", "^", "(", ")", " "]),
        st.integers(0, 3).map(str),
        st.builds("{}/{}".format, st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=10,
).map("".join)
_COEFFICIENTS = st.one_of(
    st.integers(1, 3).map(str), st.builds("{}/{}".format, st.integers(1, 3), st.integers(1, 3))
)


def _homogeneous(degree: int):
    """Sums of one to three terms of `degree` in x, y and w, with coefficients."""
    monomial = st.lists(st.sampled_from("xyw"), min_size=degree, max_size=degree).map(
        lambda names: "*".join(f"{name}^{names.count(name)}" for name in sorted(set(names)))
    )
    linear_power = st.lists(
        st.tuples(_COEFFICIENTS, st.sampled_from("xyw")), min_size=1, max_size=3
    )
    linear_power = linear_power.map(
        lambda terms: "(" + " + ".join(f"{c}*{name}" for c, name in terms) + f")^{degree}"
    )
    term = st.tuples(
        st.sampled_from([" + ", " - "]), _COEFFICIENTS, st.one_of(monomial, linear_power)
    )
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: "".join(f"{sign}{c}*{body}" for sign, c, body in terms)[3:]
    )


@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True)
@given(
    expression=st.one_of(_TOKEN_SOUP, st.integers(2, 3).flatmap(_homogeneous)),
    inline=st.booleans(),
    window=st.sampled_from([1, 1, 1, 0]),
    n_max=st.sampled_from([2, 4, 6, 1]),
    checks=st.lists(st.sampled_from(CHECK_NAMES), min_size=1, max_size=6, unique=True),
    structured=st.booleans(),
)
def test_command_line_fuzz(expression, inline, window, n_max, checks, structured):
    argv = [f"-f={expression}"] if inline else ["-f", expression]
    argv += ["--window", str(window), "--n-max", str(n_max), "--checks", ",".join(checks),
             "--format", "structured" if structured else "text"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 1, 2)
    if status == 2:
        assert err.getvalue().startswith("loopsing: error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        if structured:
            assert validate_report(json.loads(out.getvalue())) == []


@pytest.mark.parametrize(
    "name",
    [
        "loopsing",
        "loopsing.exactalg",
        "loopsing.loopfun",
        "loopsing.grobner",
        "loopsing.cohom",
        "loopsing.cli",
        "loopsing.cli.parser",
        "loopsing.cli.report",
        "loopsing.cli.main",
    ],
)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_cold_start_loads_no_dataclasses_inspect_or_typing():
    # A fresh interpreter without site (-S), which may load typing itself,
    # imports the command line and runs it once.
    src = str(Path(loopsing.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import loopsing.cli; "
        "status = loopsing.cli.main(['-f', 'z^2', '--format', 'structured']); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))); "
        "sys.exit(status)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
