"""Report assembly: structured (JSON) and fixed-layout text output.

The structured document is what Report.to_dict renders; validate_report
rebuilds the Report a document claims to be and compares the renderings.
Degree-indexed maps use decimal-string keys so that negative degrees survive
serialization unambiguously.  Reports are deterministic: two runs on the same
configuration produce byte-identical documents apart from the timing field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..cohom import MAX_N_MAX, GradedDims, RenormalizedReport, gysin_tower
from ..loopfun import Window, minimal_window
from .parser import parse_function

__all__ = [
    "CHECK_NAMES",
    "CheckOutcome",
    "Report",
    "validate_report",
]

# Dependency order; reports always list checks this way.
CHECK_NAMES = ("lambda", "support", "linearity", "derivative", "milnor", "cohomology")


@dataclass(frozen=True)
class CheckOutcome:
    ok: bool
    witness: str | None = None
    skipped: bool = False

    def __post_init__(self) -> None:
        if self.ok and self.skipped or not self.ok and self.witness is None:
            raise ValueError("skipped but ok" if self.ok else "failed without a witness")


@dataclass(frozen=True)
class Report:
    function: str
    d: int
    delta: int
    window: Window
    milnor_number: int | None
    isolated: bool | None
    lambda_term_count: int | None
    lambda_polynomial: str | None
    checks: Mapping[str, CheckOutcome]
    cohomology: RenormalizedReport | None
    timing_seconds: float = field(compare=False, default=0.0)

    @property
    def axioms(self) -> tuple[str, ...]:
        return () if self.cohomology is None else self.cohomology.axioms

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict[str, Any]:
        checks = {}
        for name in CHECK_NAMES:
            if name not in self.checks:
                continue
            outcome = self.checks[name]
            entry: dict[str, Any] = {"ok": outcome.ok}
            if outcome.witness is not None:
                entry["witness"] = outcome.witness
            if outcome.skipped:
                entry["skipped"] = True
            checks[name] = entry

        lam = None
        if self.lambda_term_count is not None:
            lam = {"term_count": self.lambda_term_count}
            if self.lambda_polynomial is not None:
                lam["polynomial"] = self.lambda_polynomial

        cohomology = None
        if self.cohomology is not None:
            tower = self.cohomology.tower
            cohomology = {
                "truncations": [
                    {"n": n, "dims": _dims_dict(dims)}
                    for n, dims in enumerate(tower.truncations)
                ],
                "renormalized": _dims_dict(self.cohomology.stable),
                "stabilization": {
                    str(degree): step
                    for degree, step in sorted(self.cohomology.stabilization_step.items())
                },
                "escape": [
                    {
                        "n": row.n,
                        "degree": row.degree,
                        "declared_floor": row.declared_floor,
                    }
                    for row in tower.escape_table()
                ],
            }

        return {
            "function": self.function,
            "d": self.d,
            "delta": self.delta,
            "window": {"bottom": self.window.bottom, "top": self.window.top},
            "milnor_number": self.milnor_number,
            "isolated": self.isolated,
            "lambda": lam,
            "checks": checks,
            "cohomology": cohomology,
            "axioms": list(self.axioms),
            "timing": {"seconds": self.timing_seconds},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []

        def row(label: str, value: Any) -> None:
            lines.append(f"{label:<18}{value}")

        row("function", self.function)
        row("d", self.d)
        row("delta", self.delta)
        row("window", self.window)
        row("milnor_number", "-" if self.milnor_number is None else self.milnor_number)
        row("isolated", "-" if self.isolated is None else ("yes" if self.isolated else "no"))
        if self.lambda_term_count is not None:
            row("lambda", f"{self.lambda_term_count} terms")
            if self.lambda_polynomial is not None:
                row("", self.lambda_polynomial)
        for name in CHECK_NAMES:
            if name not in self.checks:
                continue
            outcome = self.checks[name]
            status = "skipped" if outcome.skipped else ("ok" if outcome.ok else "FAIL")
            if outcome.witness:
                status += f"  ({outcome.witness})"
            row(f"check {name}", status)
        if self.cohomology is not None:
            tower = self.cohomology.tower
            for n, dims in enumerate(tower.truncations):
                row(f"truncation n={n}", dims)
            row("renormalized", self.cohomology.stable)
            stab = "; ".join(
                f"{degree}: n={step}"
                for degree, step in sorted(self.cohomology.stabilization_step.items())
            )
            row("stabilization", stab)
            for entry in tower.escape_table():
                row(
                    f"escape n={entry.n}",
                    f"degree {entry.degree} (declared floor {entry.declared_floor})",
                )
        for axiom in self.axioms:
            row("axiom", axiom)
        row("timing", f"{self.timing_seconds:.3f}s")
        return "\n".join(lines) + "\n"


def _dims_dict(dims: GradedDims) -> dict[str, int]:
    return {str(degree): dim for degree, dim in dims.items()}


class _Mismatch(Exception):
    """A document leaf that no Report holds; the message is its error line."""


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a float", bool: "a boolean", type(None): "null"}


def _read(document: Any, path: str, *kinds: type) -> Any:
    """The leaf at the dotted `path`, of a JSON type in `kinds`; a missing one is null."""
    value = document
    for key in path.split("."):
        value = value.get(key) if type(value) is dict else None
    if type(value) not in kinds:
        raise _Mismatch(f"{path}: not {' or '.join(_JSON_KINDS[kind] for kind in kinds)}")
    return value


def _departures(expected: Any, found: Any, path: str) -> Iterator[str]:
    """A `path: problem` line for each leaf where `found` departs from `expected`."""
    if type(expected) is dict and type(found) is dict:
        for key in [*expected, *(key for key in found if key not in expected)]:
            where = f"{path}.{key}" if path else str(key)
            if key not in found or key not in expected:
                yield f"{where}: {'missing' if key in expected else 'unexpected'}"
            else:
                yield from _departures(expected[key], found[key], where)
    elif type(expected) is list and type(found) is list and len(expected) == len(found):
        for index, (want, have) in enumerate(zip(expected, found)):
            yield from _departures(want, have, f"{path}[{index}]")
    elif type(expected) is not type(found) or expected != found:
        yield f"{path or 'document'}: expected {_show(expected)}, found {_show(found)}"


def _show(value: Any) -> str:
    if type(value) in (dict, list):
        return f"{_JSON_KINDS[type(value)]} of length {len(value)}"
    try:
        return json.dumps(value, default=repr)
    except ValueError:  # an integer past the interpreter's conversion limit
        return _JSON_KINDS[int]


def validate_report(document: Any) -> list[str]:
    """Check a structured report by rebuilding it; this is the contract.

    A document conforms when it is what `to_dict` renders for the Report it
    claims to be.  That Report copies the free leaves (each check's outcome,
    the functional's term count and text, `isolated`, the time) after a strict
    type check, and computes the rest as `run()` does from the function, the
    window bottom and the tower height.  Returns one `path: problem` line per
    departure, [] when the document conforms.
    """
    # A constructor or an audit that refuses a leaf is blamed on `path`.
    path = "function"
    try:
        source = _read(document, path, str)
        func = parse_function(source)
        path = "window"
        window = minimal_window(func, _read(document, "window.bottom", int))
        isolated = _read(document, "isolated", bool, type(None))
        checks = {}
        for name in _read(document, "checks", dict):
            path = f"checks.{name}"
            checks[name] = CheckOutcome(
                ok=_read(document, f"{path}.ok", bool),
                witness=_read(document, f"{path}.witness", str, type(None)),
                skipped=_read(document, f"{path}.skipped", bool, type(None)) is True,
            )
        term_count = polynomial = None
        if _read(document, "lambda", dict, type(None)) is not None:
            term_count = _read(document, "lambda.term_count", int)
            polynomial = _read(document, "lambda.polynomial", str, type(None))
            if term_count < 0:
                raise _Mismatch("lambda.term_count: negative")
        mu = (func.delta - 1) ** func.d if isolated else None
        cohomology = None
        if "cohomology" in checks and checks["cohomology"].ok:
            path = "cohomology"
            n_max = len(_read(document, "cohomology.truncations", list)) - 1
            if mu is None:
                raise _Mismatch("isolated: not true beside a passed cohomology check")
            if n_max > MAX_N_MAX:
                raise _Mismatch(f"cohomology.truncations: more than {MAX_N_MAX + 1} rows")
            cohomology = gysin_tower(func.d, mu, n_max).renormalized()
        expected = Report(
            function=source, d=func.d, delta=func.delta, window=window,
            milnor_number=mu, isolated=isolated,
            lambda_term_count=term_count, lambda_polynomial=polynomial, checks=checks,
            cohomology=cohomology, timing_seconds=_read(document, "timing.seconds", float),
        ).to_dict()
    except _Mismatch as exc:
        return [str(exc)]
    except (ValueError, RuntimeError) as exc:
        return [f"{path}: {exc}"]
    return list(_departures(expected, document, ""))
