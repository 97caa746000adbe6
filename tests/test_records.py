"""The public records: value equality, immutability, repr and constructor checks."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from loopsing.cli import CheckOutcome, Report, RunConfig, run
from loopsing.cohom import (
    GradedDims,
    LesSystem,
    RankFact,
    gysin_tower,
    solve_les_detailed,
    sphere_cohomology,
)
from loopsing.grobner import Ideal, buchberger, jacobian_ideal
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
    "RenormalizedReport": lambda: gysin_tower(2, 4, 3).renormalized(),
    "Window": lambda: Window(2, 4),
    "SupportBoundReport": lambda: check_support_bound(CUBIC, 1),
    "TopLinearityReport": lambda: check_top_linearity(CUBIC, 1),
    "CoordinateDerivativeCheck": lambda: check_derivative_identity(CUBIC, 1).checks[0],
    "DerivativeIdentityReport": lambda: check_derivative_identity(CUBIC, 1),
    "GroebnerBasis": lambda: buchberger(jacobian_ideal(build("x^3 + x*y^2 + y^3"))),
    "Ideal": lambda: jacobian_ideal(build("x^3 + x*y^2 + y^3")),
    "CheckOutcome": lambda: CheckOutcome(ok=False, witness="test: failed", skipped=True),
    "Report": lambda: run(RunConfig("x^3 + y^3")),
}

# Field changes each record's own checks refuse, with their messages: applied
# to the record of RECORDS, through the constructor and through `_replace`.
REFUSED = {
    "RankFact": [
        ({"kind": "connecting"}, "unknown map kind 'connecting'"),
        ({"kind": "gysin", "rank": -1}, "a rank cannot be negative"),
    ],
    "LesSystem": [({"codim": 0}, "codimension must be positive")],
    "Ideal": [
        ({"terms": ({(3, 0): 0}, ())}, "an ideal needs at least one nonzero generator"),
        ({"d": 0}, "need at least one ambient variable"),
        ({"d": 3}, "is not a vector of 3 nonnegative exponents"),
        ({"terms": ({(3, -1): 1},)}, "is not a vector of 2 nonnegative exponents"),
    ],
    "Window": [
        ({"bottom": -1, "top": 0}, "window bottom must be nonnegative"),
        ({"top": -3}, "window top -3 lies below -bottom = -2"),
    ],
    "CheckOutcome": [
        ({"ok": True, "skipped": False}, "ok with a witness"),
        ({"ok": True}, "skipped but ok"),
        ({"witness": None}, "failed without a witness"),
    ],
    "Report": [
        (
            {"checks": {"milnor": CheckOutcome(True)}},
            "lambda: present beside no functional check",
        ),
        ({"checks": {}}, "checks: at least one check must be enabled"),
        ({"timing_seconds": float("nan")}, "timing.seconds: not a finite float"),
    ],
}


def _fields(record) -> dict:
    """The record's fields by name, in the order its constructor takes them."""
    names = list(inspect.signature(type(record).__new__).parameters)[1:]
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name
    assert isinstance(record, tuple) and cls._fields == tuple(_fields(record))
    # A copy made through the constructor, field by field, equals the record.
    rebuilt = cls(**_fields(record))
    assert rebuilt == record and rebuilt is not record
    for field in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "not a field"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_copies_and_replaces_to_an_equal_record(name):
    record = RECORDS[name]()
    assert copy.copy(record) == record
    assert type(copy.copy(record)) is type(record)
    assert record._replace() == record and record._make(record) == record


@pytest.mark.parametrize(
    "name, changes, message",
    [
        pytest.param(name, changes, message, id=f"{name}-{message}")
        for name, cases in REFUSED.items()
        for changes, message in cases
    ],
)
def test_a_record_refuses_bad_fields_through_the_constructor_and_replace(name, changes, message):
    record = RECORDS[name]()
    with pytest.raises(ValueError, match=message):
        type(record)(**{**_fields(record), **changes})
    with pytest.raises(ValueError, match=message):
        record._replace(**changes)
    with pytest.raises(ValueError, match=message):
        record._make({**_fields(record), **changes}.values())


@pytest.mark.parametrize(
    "name", ["LesSystem", "LesSolution", "GysinTower", "RenormalizedReport", "Report"]
)
def test_a_record_holding_graded_dims_deep_copies_and_pickles(name):
    # Each holds a GradedDims, whose store is a read-only mapping; the Report
    # holds one through its tower.
    record = RECORDS[name]()
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)


# Values that copy, deep-copy and pickle to an equal value of their type,
# which hashes alike: the Ideal a record, the InputFunction a class whose
# terms and partials are read-only mappings.
VALUES = {
    "Ideal": RECORDS["Ideal"],
    "InputFunction": lambda: build("1/2*x^3 - x*y^2 + y^3"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_value_copies_deep_copies_and_pickles(name):
    value = VALUES[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and hash(twin) == hash(value)


def test_ideals_compare_by_value():
    func = build("x^3 + x*y^2 + y^3")
    assert jacobian_ideal(func) == jacobian_ideal(func) == Ideal(func.partials, func.d)
    assert jacobian_ideal(func) != jacobian_ideal(build("x^3 + y^3"))
    assert hash(jacobian_ideal(func)) == hash(Ideal(func.partials, func.d))


def test_equal_fields_compare_equal_across_record_types():
    # Records keep the namedtuple equality, which compares fields alone.
    assert Window(2, 4) == (2, 4)
    ideal = jacobian_ideal(CUBIC)
    assert ideal == buchberger(ideal) and type(ideal) is not type(buchberger(ideal))


def test_input_functions_hash_as_they_compare():
    assert hash(build("x^3 + y^3")) == hash(build("y^3 + x^3"))
    twin = pickle.loads(pickle.dumps(build("1/2*x^3 - x*y^2 + y^3")))
    assert twin.names == ("x", "y")
    assert twin.integer_partials == build("x^3 - 2*x*y^2 + 2*y^3").integer_partials
    with pytest.raises(AttributeError, match="immutable"):
        twin.d = 3


def test_graded_dims_pickles_to_an_equal_immutable_value():
    dims = GradedDims({-2: 3, 0: 1})
    twin = pickle.loads(pickle.dumps(dims))
    assert twin == dims and twin.items() == ((-2, 3), (0, 1))
    with pytest.raises(AttributeError):
        twin._dims = {}


def test_underdetermined_repr():
    assert repr(RECORDS["Underdetermined"]()) == "Underdetermined(degrees=(1, 2))"
