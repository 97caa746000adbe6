"""validate_report accepts what run() emits and refuses what it cannot emit.

The validator rebuilds the Report a document claims to be and compares the
rendering leaf by leaf.  Before that it was a hand-written copy of the layout
that checked shapes; that copy is kept below as a reference, and every
document it refuses must still be refused.
"""

from __future__ import annotations

import json
import re
from typing import Any

import pytest

from loopsing.cli import RunConfig, run, validate_report
from loopsing.cli.report import CHECK_NAMES
from loopsing.loopfun import MAX_JET_TERMS

from conftest import CORPUS, DELETE, NON_ISOLATED_SOURCES, edited

# Top-level keys of the structured report, in the schema order the reference checks them.
_REPORT_KEYS = (
    "function", "d", "delta", "window", "milnor_number", "isolated",
    "lambda", "checks", "cohomology", "axioms", "timing",
)
_DEGREE_KEY = re.compile(r"^-?[0-9]+$")


def _is_int(value: Any) -> bool:
    """A JSON integer: an int that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reference_validate_report(document: Any) -> list[str]:
    """The shape checks validate_report made before it rebuilt documents."""
    errors: list[str] = []

    def err(path: str, message: str) -> None:
        errors.append(f"{path}: {message}")

    if not isinstance(document, dict):
        return ["document: not an object"]

    for key in _REPORT_KEYS:
        if key not in document:
            err(key, "missing")
    extra = set(document) - set(_REPORT_KEYS)
    if extra:
        err("document", f"unexpected keys {sorted(extra)}")
    if errors:
        return errors

    if not isinstance(document["function"], str):
        err("function", "not a string")
    for key, minimum in (("d", 1), ("delta", 2)):
        if not _is_int(document[key]) or document[key] < minimum:
            err(key, f"not an integer >= {minimum}")

    window = document["window"]
    if (
        not isinstance(window, dict)
        or not _is_int(window.get("bottom"))
        or not _is_int(window.get("top"))
        or window["bottom"] < 0
        or window["top"] < -window["bottom"]
    ):
        err("window", "not an object with integer bottom >= 0 and top >= -bottom")

    mu, isolated = document["milnor_number"], document["isolated"]
    if mu is not None and (not _is_int(mu) or mu < 1):
        err("milnor_number", "not null or a positive integer")
    if isolated is not None and not isinstance(isolated, bool):
        err("isolated", "not a boolean or null")
    elif (mu is None) == (isolated is True):
        err("milnor_number", "not null exactly when isolated is true")

    lam = document["lambda"]
    if lam is not None:
        count = lam.get("term_count") if isinstance(lam, dict) else None
        if not _is_int(count) or count < 0:
            err("lambda", "not null or an object with integer term_count >= 0")
        elif set(lam) - {"term_count", "polynomial"}:
            err("lambda", "unexpected keys")
        elif "polynomial" in lam and not isinstance(lam["polynomial"], str):
            err("lambda.polynomial", "not a string")

    checks = document["checks"]
    if not isinstance(checks, dict):
        err("checks", "not an object")
    else:
        for name, entry in checks.items():
            if name not in CHECK_NAMES:
                err(f"checks.{name}", "unknown check name")
                continue
            if not isinstance(entry, dict) or not isinstance(entry.get("ok"), bool):
                err(f"checks.{name}", "not an object with boolean ok")
                continue
            if set(entry) - {"ok", "witness", "skipped"}:
                err(f"checks.{name}", "unexpected keys")
            if "witness" in entry and not isinstance(entry["witness"], str):
                err(f"checks.{name}.witness", "not a string")
            if "skipped" in entry and entry["skipped"] is not True:
                err(f"checks.{name}.skipped", "present but not true")
            elif entry.get("skipped") and entry["ok"]:
                err(f"checks.{name}", "skipped but ok")
            if not entry["ok"] and not entry.get("skipped") and "witness" not in entry:
                err(f"checks.{name}", "failed without a witness")

    def check_dims(path: str, value: Any, minimum: int = 1) -> None:
        if not isinstance(value, dict):
            err(path, "not an object")
            return
        for key, dim in value.items():
            if not _DEGREE_KEY.match(key):
                err(f"{path}.{key}", "key is not a decimal integer string")
            if not _is_int(dim) or dim < minimum:
                err(f"{path}.{key}", f"value is not an integer >= {minimum}")

    cohomology = document["cohomology"]
    if cohomology is not None:
        if not isinstance(cohomology, dict) or set(cohomology) != {
            "truncations",
            "renormalized",
            "stabilization",
            "escape",
        }:
            err("cohomology", "not null or an object with the four sections")
        else:
            truncations = cohomology["truncations"]
            if not isinstance(truncations, list):
                err("cohomology.truncations", "not an array")
            else:
                for idx, entry in enumerate(truncations):
                    if (
                        not isinstance(entry, dict)
                        or set(entry) != {"n", "dims"}
                        or not _is_int(entry["n"])
                    ):
                        err(f"cohomology.truncations[{idx}]", "malformed")
                        continue
                    if entry["n"] != idx:
                        err(f"cohomology.truncations[{idx}].n", "not the row's position")
                    check_dims(f"cohomology.truncations[{idx}].dims", entry["dims"])
            check_dims("cohomology.renormalized", cohomology["renormalized"])
            check_dims("cohomology.stabilization", cohomology["stabilization"], minimum=0)
            escape = cohomology["escape"]
            if not isinstance(escape, list):
                err("cohomology.escape", "not an array")
            else:
                for idx, entry in enumerate(escape):
                    if (
                        not isinstance(entry, dict)
                        or set(entry) != {"n", "degree", "declared_floor"}
                        or not all(_is_int(entry[k]) for k in entry)
                    ):
                        err(f"cohomology.escape[{idx}]", "malformed")
                    elif entry["n"] != idx:
                        err(f"cohomology.escape[{idx}].n", "not the row's position")

    axioms = document["axioms"]
    if not isinstance(axioms, list) or not all(isinstance(a, str) for a in axioms):
        err("axioms", "not an array of strings")

    timing = document["timing"]
    seconds = timing.get("seconds") if isinstance(timing, dict) else None
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
        err("timing", "not an object with numeric seconds")

    return errors


# Each replaces one entry of an emitted document, or DELETE removes it.
REPLACEMENTS = (
    None, True, False, 0, -1, 1, 7, 2.5, "", "x", "0.5", [], {}, [1], {"a": 1}, DELETE,
)


def _entries(value: Any, path: tuple = ()):
    """The path of every entry below the root, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from _entries(child, (*path, key))


@pytest.mark.parametrize(
    "source, checks",
    [
        ("z^2", CHECK_NAMES),
        ("x^3 + y^3", CHECK_NAMES),
        ("x^2*y", CHECK_NAMES),
        ("x^4 + y^4 + w^4", CHECK_NAMES),
        ("x^3+y^3", ("lambda",)),
    ],
)
def test_every_document_the_reference_refuses_is_refused(source, checks):
    good = run(RunConfig(function_source=source, checks=checks, emit_lambda=True)).to_dict()
    assert validate_report(good) == [] == _reference_validate_report(good)
    for path in _entries(good):
        for value in REPLACEMENTS:
            document = edited(good, path, value)
            if _reference_validate_report(document):
                assert validate_report(document) != [], (path, value)
            else:
                validate_report(document)  # must not raise


@pytest.mark.parametrize("source", [e.source for e in CORPUS] + list(NON_ISOLATED_SOURCES))
def test_emitted_documents_validate(source):
    for n_max in (2, 4, 9):
        for emit_lambda in (False, True):
            config = RunConfig(function_source=source, n_max=n_max, emit_lambda=emit_lambda)
            assert validate_report(run(config).to_dict()) == [], (n_max, emit_lambda)
    config = RunConfig(function_source=source, window_bottom=0, checks=("lambda", "milnor"))
    assert validate_report(run(config).to_dict()) == []


@pytest.mark.parametrize(
    "checks",
    [(name,) for name in CHECK_NAMES]
    + [("lambda", "milnor"), ("milnor", "cohomology"), ("support", "derivative", "cohomology")],
    ids=",".join,
)
@pytest.mark.parametrize("source", ["x^3 + y^3", "x^2*y"])
def test_documents_of_check_subsets_validate(source, checks):
    document = run(RunConfig(function_source=source, checks=checks)).to_dict()
    assert validate_report(document) == []


@pytest.mark.parametrize(
    "text",
    [
        '"x^3 + y^3"',
        "[]",
        "null",
        '{"function": ' + "[" * 500 + "]" * 500 + "}",
        '{"function": "' + "x+" * 5_000 + 'x"}',
    ],
    ids=["string", "array", "null", "deep", "long function"],
)
def test_odd_json_values_are_refused_without_raising(text):
    assert validate_report(json.loads(text)) != []


@pytest.mark.parametrize(
    "path, value, errors",
    [
        # A bottom past the jet budget, whose window top could not even be printed.
        (
            ("window", "bottom"),
            9 * 10**4299,
            [f"window.bottom: window bottom must be at most {MAX_JET_TERMS}"],
        ),
        # run() never times a report as NaN or infinite, and RFC 8259 has no such number.
        (("timing", "seconds"), float("nan"), ["timing.seconds: not a finite float"]),
        (("timing", "seconds"), float("inf"), ["timing.seconds: not a finite float"]),
        (("timing", "seconds"), -float("inf"), ["timing.seconds: not a finite float"]),
        # A check name is one key, dots and all.
        (("checks", "a.b"), {"ok": True}, ["checks: unknown checks: a.b"]),
    ],
    ids=["huge bottom", "nan", "infinity", "negative infinity", "dotted name"],
)
def test_odd_leaves_are_refused_without_raising(path, value, errors):
    good = run(RunConfig(function_source="x^3 + y^3", checks=("milnor",))).to_dict()
    assert validate_report(json.loads(json.dumps(edited(good, path, value)))) == errors
