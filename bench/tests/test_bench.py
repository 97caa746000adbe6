"""Tests of the benchmark itself: inputs, references, verification, trace.

Run from the repository root: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace

import pytest

import calibrate
import loopsing.cli  # noqa: F401  (registers loopsing.cli.main)
import references
import run
import workloads
from tracer import Tracer
from worker import render

CLI_MAIN = sys.modules["loopsing.cli.main"]


def small_case(workload: str, **changes) -> workloads.Case:
    """The cheapest report of a workload's first round, adjusted."""
    cases = workloads.generate(workload, 7, 1)
    cheapest = min(cases, key=lambda c: (c.d, c.delta, c.window, c.n_max))
    return replace(cheapest, **changes)


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 3, 1)
        assert first == workloads.generate(workload, 3, 1)
        assert [c.key for c in first] != [c.key for c in workloads.generate(workload, 4, 1)]
        assert len({c.key for c in first}) == len(first)


def test_generator_never_repeats_a_triple_over_many_rounds():
    cases = workloads.generate("tower", 1, 8 * workloads.ROUND_S["tower"])
    assert len({c.key for c in cases}) == len(cases)


def test_expanded_polynomial_matches_its_source():
    case = small_case("jacobian")
    text, _ = render(CLI_MAIN, case)
    function = json.loads(text)["function"]
    assert references.polynomial_of(references.parse_terms(function), case.names) == dict(case.poly)


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_laurent_reference_reproduces_the_quadric_functional(n):
    # z^2 on the window [-n, n]: the functional is z_0^2 + 2 * sum_j z_j z_{-j}.
    expected = " + ".join(["z_0^2"] + [f"2*z_{-j}*z_{j}" for j in range(1, n + 1)])
    terms = references.parse_terms(expected)
    rng = random.Random(n)
    for _ in range(5):
        values = {j: rng.randrange(-9, 10) for j in range(-n, n + 1)}
        by_name = {("z", j): v for j, v in values.items()}
        want = values[0] ** 2 + 2 * sum(values[j] * values[-j] for j in range(1, n + 1))
        assert references.constant_term((((2,), 1),), [values]) == want
        assert references.evaluate(terms, by_name) == want


def test_reference_agrees_with_loopsing_on_the_quadric():
    case = replace(small_case("functional"), source="x^2", poly=(((2,), 1),), d=1, delta=2, window=3)
    text, status = render(CLI_MAIN, case)
    assert references.verify(case, text, status, {}) == []


def _verified(case):
    text, status = render(CLI_MAIN, case)
    assert references.verify(case, text, status, {}) == []
    return json.loads(text), status


def _failures(case, document, status):
    records = [({"error": None, "status": status}, json.dumps(document))]
    failures, _ = run.check_reports([case], records, {})
    return failures


def test_altered_functional_coefficient_counts_as_failed():
    case = small_case("functional")
    document, status = _verified(case)
    first, rest = document["lambda"]["polynomial"].split(" ", 1)
    sign, body = ("-", first[1:]) if first.startswith("-") else ("", first)
    head, _, factors = body.partition("*")
    body = f"{int(head) + 1}*{factors}" if head.isdigit() else f"2*{body}"
    document["lambda"]["polynomial"] = f"{sign}{body} {rest}"
    assert len(_failures(case, document, status)) == 1


def test_altered_truncation_dimension_counts_as_failed():
    case = small_case("tower")
    document, status = _verified(case)
    dims = document["cohomology"]["truncations"][-1]["dims"]
    dims["0"] += 1
    assert len(_failures(case, document, status)) == 1


def test_non_isolated_input_must_fail_milnor():
    case = next(c for c in workloads.generate("jacobian", 2, 1) if not c.isolated)
    document, status = _verified(case)
    assert status == 1 and document["isolated"] is False
    # Claiming the input isolated is a wrong verdict.
    assert _failures(replace(case, isolated=True), document, status)


def test_pinned_digest_mismatch_counts_as_failed():
    case = small_case("jacobian")
    document, status = _verified(case)
    records = [({"error": None, "status": status}, json.dumps(document))]
    assert run.check_reports([case], records, {case.key: references.digest(document)})[0] == []
    assert run.check_reports([case], records, {case.key: "0" * 64})[0]


def test_traced_and_untraced_reports_have_identical_digests():
    cases = [small_case(w) for w in workloads.WORKLOADS]
    untraced = [references.digest(json.loads(render(CLI_MAIN, c)[0])) for c in cases]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [references.digest(json.loads(render(CLI_MAIN, c)[0])) for c in cases]
    finally:
        tracer.uninstall()
    assert traced == untraced
    layers = tracer.metrics(len(cases), 1.0)
    assert set(layers) >= set(run_metric_names("per_layer")) - {"cli.import_s", "trace.overhead"}
    assert layers["loopfun.jet_calls"] > 0 and layers["cohom.solve_calls"] > 0
    assert layers["grobner.buchberger_calls"] > 0 and layers["exactalg.mono_new"] > 0
    # Uninstalling restores every patched function.
    assert not hasattr(CLI_MAIN.run, "__wrapped__")
    assert not hasattr(sys.modules["loopsing.loopfun"]._jet_of_poly, "__wrapped__")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    percentile, value = run.tail([float(i) for i in range(1, 101)])
    assert (percentile, value) == (90.0, 90.0)


def run_metric_names(section: str) -> list[str]:
    with open(run.BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def test_reference_speed_divides_by_the_bracketing_probes():
    ref = calibrate.REFERENCE_S
    # A report bracketed by probes twice as slow as the reference counts half.
    assert calibrate.at_reference_speed([1.0, 3.0], [2 * ref, 2 * ref, ref]) == [0.5, 2.0]
