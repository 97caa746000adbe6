"""Every mutant of the mutation run still names code that exists.

`python tests/mutants.py` runs as its own CI job, apart from tier-1; a
refactor that moves an audit would leave a mutant's string behind, and the
run would refuse to start.  This test makes that visible in tier-1, holds
each mutant's aimed test to a test that is defined, and holds the README's
mutation table to the mutants, row for row.
"""

from __future__ import annotations

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_the_mutant_string_occurs_once(mutant):
    assert mutants.anchor_error(mutant) is None


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_the_aimed_test_is_defined(mutant):
    # A stale id would fail to run, and the harness would fall through to tier-1.
    path, *classes, function = mutant.aimed.split("[", 1)[0].split("::")
    source = (mutants.ROOT / "tests" / path).read_text(encoding="utf-8")
    assert all(f"\nclass {name}" in source for name in classes)
    assert f"def {function}(" in source


def test_the_readme_table_lists_every_mutant_with_its_guarantee():
    readme = (mutants.ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| mutant | guarantee | killed by |\n|---|---|---|\n", 1)[1]
    rows = [line.strip("| ").split(" | ") for line in table.split("\n\n", 1)[0].splitlines()]
    assert rows == [
        [f"`{mutant.name}`", mutant.guarantee, f"`{mutant.aimed}`"] for mutant in mutants.MUTANTS
    ]


def test_mutant_names_are_distinct():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_an_unknown_mutant_name_runs_nothing(capsys):
    assert mutants.main(["s-pairs", "no-such-mutant"]) == 2
    assert capsys.readouterr().err == "no-such-mutant: no such mutant\n"


@pytest.mark.parametrize(
    "line, test",
    [
        (
            "FAILED tests/test_cli.py::TestRun::test_x[(x + 2*y - w)^4] - RuntimeError: a - b",
            "tests/test_cli.py::TestRun::test_x[(x + 2*y - w)^4]",
        ),
        ("FAILED tests/test_cli.py::test_y - assert [1] == [2]", "tests/test_cli.py::test_y"),
        ("FAILED tests/test_cli.py::test_z[a]", "tests/test_cli.py::test_z[a]"),
        ("ERROR tests/test_cli.py - ImportError: x - y", "ERROR tests/test_cli.py"),
    ],
)
def test_first_failure_names_the_whole_test_id(line, test):
    assert mutants.first_failure(f"..F.\n{line}\n1 failed, 3 passed in 0.1s\n") == test
