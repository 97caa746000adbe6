"""The Gysin tower's record past its certified head, against what it replaced.

The record stores the steps solved directly, 0..min(n0, n_max), and derives
every later one.  The references kept here are the computations that used to
walk every step: the translated fill, which built each row past n0 from the
mu block's solve; the cohomology section's writer and the text report's
tower lines, fed one row per step, with the vanishing row read off the
concentration degree 2nd + d - 1; and the colimit's per-degree walk.
"""

from __future__ import annotations

import pytest

from loopsing.cli.report import CheckOutcome, Report, _cohomology_json
from loopsing.cohom import (
    MAX_N_MAX,
    GradedDims,
    GysinTower,
    LesSystem,
    NotStabilized,
    RenormalizedReport,
    declared_support_floor,
    gysin_tower,
    milnor_fiber_cohomology,
    residue_onto_unit_fact,
    solve_les_detailed,
    sphere_cohomology,
    truncation_cohomology,
)
from loopsing.loopfun import Window

DIMENSIONS = range(1, 5)
MILNOR_NUMBERS = (1, 4, 8)


def _filled_rows(d: int, mu: int, n_max: int) -> tuple[tuple, tuple, tuple]:
    """Reference: the truncations, degrees and Gysin ranks of the tower of
    height n_max, as the translated fill built them.

    The steps up to n0 are solved directly.  The mu block of step n0 is solved
    once, and each later step is its B-column moved up by 2d per step beside
    the unit class, with step n0's degree and Gysin ranks moved up as much.
    """
    n0 = 2 if d == 1 else 1
    base = milnor_fiber_cohomology(d, mu)
    reduced = base.drop_unit()
    truncations, degrees, gysin_ranks = [base], [reduced.support[0]], []
    for n in range(1, min(n0, n_max) + 1):
        step = reduced.shifted(2 * d * (n - 1))
        full_a = step.with_unit()
        solution = solve_les_detailed(
            LesSystem(d, full_a, sphere_cohomology(d), (residue_onto_unit_fact(d, full_a),))
        )
        truncations.append(solution.b)
        degrees.append(solution.b.drop_unit().support[0])
        gysin_ranks.append(
            {degree: rank for (kind, degree), rank in solution.ranks.items() if kind == "gysin"}
        )
    if n_max >= n0:
        block = solve_les_detailed(LesSystem(d, step, GradedDims()))
        for n in range(n0 + 1, n_max + 1):
            offset = 2 * d * (n - n0)
            truncations.append(block.b.shifted(offset).with_unit())
            degrees.append(degrees[n0] + offset)
            gysin_ranks.append({s + offset: r for s, r in gysin_ranks[n0 - 1].items()})
    return tuple(truncations), tuple(degrees), tuple(gysin_ranks)


def _section_from_rows(
    d: int, truncations: tuple, degrees: tuple, cohomology: RenormalizedReport
) -> str:
    """Reference: the cohomology section written with one row per step."""
    def members(items, pad: str) -> str:
        written = sorted([f'"{degree}": {count}' for degree, count in items])
        return "{\n  " + pad + (",\n  " + pad).join(written) + "\n" + pad + "}"
    rows = ",\n      ".join
    escape = rows([
        f'{{\n        "declared_floor": {declared_support_floor(d, n)},\n        "degree": '
        f'{degree},\n        "n": {n}\n      }}' for n, degree in enumerate(degrees)
    ])
    steps = rows([
        f'{{\n        "dims": {members(dims.items(), "        ")},\n        "n": {n}\n      }}'
        for n, dims in enumerate(truncations)
    ])
    return (
        f'{{\n    "escape": [\n      {escape}\n    ],'
        f'\n    "renormalized": {members(cohomology.stable.items(), "    ")},'
        f'\n    "stabilization": {members(cohomology.stabilization_step.items(), "    ")},'
        f'\n    "truncations": [\n      {steps}\n    ]\n  }}'
    )


def _text_from_rows(
    d: int, truncations: tuple, degrees: tuple, cohomology: RenormalizedReport
) -> list[str]:
    """Reference: the text report's tower lines with one row per step."""
    lines = [f"{f'truncation n={n}':<18}{dims}" for n, dims in enumerate(truncations)]
    lines.append(f"{'renormalized':<18}{cohomology.stable}")
    stabilization = "; ".join(
        f"{degree}: n={step}" for degree, step in sorted(cohomology.stabilization_step.items())
    )
    lines.append(f"{'stabilization':<18}{stabilization}")
    lines.extend(f"{f'escape n={n}':<18}degree {degree}" for n, degree in enumerate(degrees))
    # Reduced cohomology sits in degree 2nd + d - 1 at step n alone.
    bound = f"(s - {d - 1})/{2 * d}" if d > 1 else "s/2"
    lines.append(
        f"{'vanishing':<18}reduced cohomology in degree s is 0 at every step n > {bound};"
        " the unit class stays in degree 0 of every truncation and dies only in the colimit,"
        " through the residue"
    )
    return lines


def _walked_renormalized(
    tower: GysinTower, truncations: tuple, gysin_ranks: tuple
) -> RenormalizedReport:
    """Reference: the colimit read from one row per step, every degree of the
    range walked in turn, as `renormalized()` read it before it was taken
    from step 0 and the special degrees."""
    d, n_max, n0 = tower.d, tower.n_max, tower.n0
    fulls, ranks = truncations, gysin_ranks
    head = min(n_max, n0 + 1)

    def value(s: int, n: int) -> int:
        m = s + 2 * n * d
        return fulls[n].dim(m) if m >= 0 else 0

    def is_iso(s: int, n: int) -> bool:
        m = s + 2 * (n + 1) * d
        rank = ranks[n].get(m, 0) if m >= 2 * d else 0
        return value(s, n) == value(s, n + 1) == rank

    last_failure: dict[int, int] = {}
    for n in reversed(range(head)):
        here, there = 2 * n * d, 2 * (n + 1) * d
        candidates = {m - here for m in fulls[n].support}
        candidates.update(m - there for m in fulls[n + 1].support)
        candidates.update(m - there for m in ranks[n])
        for s in candidates:
            if s not in last_failure and not is_iso(s, n):
                last_failure[s] = n
    for s, n in last_failure.items():
        if n == n0 and s not in (-2 * d * n0, -2 * d * head):
            last_failure[s] = n_max - 1

    stable: dict[int, int] = {}
    steps: dict[int, int] = {}
    for s in range(-2 * d * (n_max - 2), 3 * d + 1):
        k, r = divmod(-s, 2 * d)
        first = max(last_failure.get(s, -1), k if r == 0 and k >= head else -1) + 1
        if first == n_max:
            raise NotStabilized(
                f"renormalized degree {s} not stable by step {n_max}: "
                "the tower is below its certified height"
            )
        steps[s] = first
        dim = value(s, first) if first <= head else value(s, head) - (k == head)
        if dim:
            stable[s] = dim

    outcome = GradedDims(stable)
    expected = GradedDims({d - 1: tower.mu})
    if outcome != expected:
        raise RuntimeError(f"stable renormalized cohomology {outcome} != expected {expected}")
    return RenormalizedReport(outcome, steps, tower)


def _outcome(read) -> tuple:
    """What a colimit read gives: its report with the stabilization map's
    order, or the type and message of what it raises."""
    try:
        report = read()
    except (NotStabilized, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return report, list(report.stabilization_step.items())


def _report(d: int, cohomology: RenormalizedReport) -> Report:
    return Report(
        "z^2", d, 2, Window(0, 0), None, None, None, None,
        {"cohomology": CheckOutcome(True)}, cohomology,
    )


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("mu", MILNOR_NUMBERS)
def test_derived_rows_equal_the_translated_fill(d, mu):
    truncations, degrees, gysin_ranks = _filled_rows(d, mu, MAX_N_MAX)
    for n_max in range(MAX_N_MAX + 1):
        tower = gysin_tower(d, mu, n_max)
        assert len(tower.head_truncations) == min(tower.n0, n_max) + 1
        assert tower.truncations == truncations[: n_max + 1]
        assert tower.degrees == degrees[: n_max + 1]
        assert tower.gysin_ranks == gysin_ranks[:n_max]


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("mu", MILNOR_NUMBERS)
def test_report_sections_equal_the_writers_fed_every_row(d, mu):
    truncations, degrees, _ = _filled_rows(d, mu, MAX_N_MAX)
    for n_max in range(2, MAX_N_MAX + 1):
        cohomology = gysin_tower(d, mu, n_max).renormalized()
        rows = truncations[: n_max + 1], degrees[: n_max + 1], cohomology
        assert _cohomology_json(cohomology) == _section_from_rows(d, *rows)
        text = _report(d, cohomology).to_text().splitlines()
        first = text.index(f"{'truncation n=0':<18}{truncations[0]}")
        assert text[first : first + 2 * n_max + 5] == _text_from_rows(d, *rows)
        assert not text[first + 2 * n_max + 5].startswith(("truncation", "escape", "vanishing"))


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("mu", MILNOR_NUMBERS)
def test_renormalized_equals_the_per_degree_walk(d, mu):
    truncations, _, gysin_ranks = _filled_rows(d, mu, MAX_N_MAX)
    for n_max in range(2, MAX_N_MAX + 1):
        tower = gysin_tower(d, mu, n_max)
        rows = truncations[: n_max + 1], gysin_ranks[:n_max]
        assert _outcome(tower.renormalized) == _outcome(
            lambda: _walked_renormalized(tower, *rows)
        )


@pytest.mark.parametrize("d, n0", [(1, 2), (2, 1), (3, 1)])
def test_broken_ranks_raise_as_the_per_degree_walk_does(d, n0):
    tower = gysin_tower(d, 4, 20)
    broken = []
    for step in range(n0):
        # The stored maps from `step` on, or `step` alone, send mu classes onto
        # a rank-3 image; every map past n0 is the last stored one translated.
        for alone in (False, True):
            head_ranks = tuple(
                {m: 3 if n == step or (step < n and not alone) else r for m, r in ranks.items()}
                for n, ranks in enumerate(tower.head_ranks)
            )
            broken.append(GysinTower(
                tower.d, tower.mu, tower.head_truncations, tower.head_degrees, head_ranks,
                tower.axioms, tower.n0, tower.n_max,
            ))
    for record in broken:
        assert _outcome(record.renormalized) == _outcome(
            lambda: _walked_renormalized(record, record.truncations, record.gysin_ranks)
        )
    # Breaking the last stored map breaks every later one: the colimit fails.
    assert _outcome(broken[-1].renormalized)[0] is NotStabilized


@pytest.mark.parametrize("d, mu", [(1, 1), (2, 4), (3, 8), (4, 1)])
def test_truncation_cohomology_reads_one_step_at_any_height(d, mu):
    n = 10**9
    assert truncation_cohomology(d, mu, n) == GradedDims({0: 1, 2 * n * d + d - 1: mu})
    tower = gysin_tower(d, mu, n)
    assert tower.n_max == n
    assert len(tower.head_truncations) <= tower.n0 + 1
    assert len(tower.head_degrees) <= tower.n0 + 1
    assert len(tower.head_ranks) <= tower.n0
