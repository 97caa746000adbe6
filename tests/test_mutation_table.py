"""Every mutant of the mutation run still names code that exists.

`python tests/mutants.py` runs only by hand and on manual dispatch; a
refactor that moves an audit would leave a mutant's string behind, and the
run would refuse to start.  This test makes that visible on every run.
"""

from __future__ import annotations

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_the_mutant_string_occurs_once(mutant):
    assert mutants.anchor_error(mutant) is None


def test_mutant_names_are_distinct():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
