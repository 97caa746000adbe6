"""The public records: value equality, immutability, repr and constructor checks."""

from __future__ import annotations

import inspect

import pytest

from loopsing.cli import CheckOutcome, Report, RunConfig, run
from loopsing.cohom import (
    GradedDims,
    LesSystem,
    RankFact,
    escape_table,
    gysin_tower,
    solve_les_detailed,
    sphere_cohomology,
)
from loopsing.grobner import buchberger, jacobian_ideal
from loopsing.loopfun import (
    Window,
    check_derivative_identity,
    check_support_bound,
    check_top_linearity,
)

from conftest import build

CUBIC = build("x^3 + y^3")

# Each builder makes one record of the named class from real inputs.
RECORDS = {
    "RankFact": lambda: RankFact("residue", 3, 1, "test: why"),
    "LesSystem": lambda: LesSystem(2, GradedDims({0: 1, 1: 4}), sphere_cohomology(2)),
    "Underdetermined": lambda: solve_les_detailed(
        LesSystem(codim=1, a=GradedDims({0: 2}), c_dims=sphere_cohomology(1))
    ),
    "LesSolution": lambda: solve_les_detailed(
        LesSystem(1, GradedDims({0: 2}), sphere_cohomology(1), (RankFact("residue", 1, 1, "t"),))
    ),
    "GysinTower": lambda: gysin_tower(2, 4, 3),
    "EscapeRow": lambda: escape_table(2, 4, 2)[1],
    "RenormalizedReport": lambda: gysin_tower(2, 4, 3).renormalized(),
    "Window": lambda: Window(2, 4),
    "SupportBoundReport": lambda: check_support_bound(CUBIC, 1),
    "TopLinearityReport": lambda: check_top_linearity(CUBIC, 1),
    "CoordinateDerivativeCheck": lambda: check_derivative_identity(CUBIC, 1).checks[0],
    "DerivativeIdentityReport": lambda: check_derivative_identity(CUBIC, 1),
    "GroebnerBasis": lambda: buchberger(jacobian_ideal(build("x^3 + x*y^2 + y^3"))),
    "CheckOutcome": lambda: CheckOutcome(ok=False, witness="test: failed", skipped=True),
    "Report": lambda: run(RunConfig("x^3 + y^3")),
}

# Constructor calls each record's own checks refuse, with their messages.
REFUSED = {
    "RankFact": [
        (lambda: RankFact("connecting", 3, 1, "t"), "unknown map kind 'connecting'"),
        (lambda: RankFact("gysin", 3, -1, "t"), "a rank cannot be negative"),
    ],
    "LesSystem": [
        (
            lambda: LesSystem(0, GradedDims({0: 1}), sphere_cohomology(1)),
            "codimension must be positive",
        ),
    ],
    "Window": [
        (lambda: Window(-1, 0), "window bottom must be nonnegative"),
        (lambda: Window(2, -3), "window top -3 lies below -bottom = -2"),
    ],
    "CheckOutcome": [
        (lambda: CheckOutcome(ok=True, witness="w"), "ok with a witness"),
        (lambda: CheckOutcome(ok=True, witness="w", skipped=True), "skipped but ok"),
        (lambda: CheckOutcome(ok=False), "failed without a witness"),
    ],
    "Report": [
        (
            lambda: Report(
                "x^2", 1, 2, Window(1, 1), None, None, 3, None, {"milnor": CheckOutcome(True)}, None
            ),
            "lambda: present beside no functional check",
        ),
        (
            lambda: Report("x^2", 1, 2, Window(0, 0), None, None, None, None, {}, None),
            "checks: at least one check must be enabled",
        ),
    ],
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name
    # A copy made through the constructor, field by field, equals the record.
    fields = list(inspect.signature(cls.__new__).parameters)[1:]
    copy = cls(**{field: getattr(record, field) for field in fields})
    assert copy == record and copy is not record
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "not a field"
    for make, message in REFUSED.get(name, ()):
        with pytest.raises(ValueError, match=message):
            make()


def test_underdetermined_repr():
    assert repr(RECORDS["Underdetermined"]()) == "Underdetermined(degrees=(1, 2))"
