"""Report assembly: structured (JSON) and fixed-layout text output.

The structured document has top-level keys function, d, delta, window,
milnor_number, isolated, lambda, checks, cohomology, axioms, timing, and
validate_report is its contract.  Degree-indexed maps use decimal-string keys
so that negative degrees survive serialization unambiguously.  Reports are
deterministic: two runs on the same configuration produce byte-identical
documents apart from the timing field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..cohom import GradedDims, RenormalizedReport
from ..loopfun import Window

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
        return all(c.ok and not c.skipped for c in self.checks.values())

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


# Top-level keys of the structured report, in the order to_dict writes them.
_REPORT_KEYS = (
    "function", "d", "delta", "window", "milnor_number", "isolated",
    "lambda", "checks", "cohomology", "axioms", "timing",
)
_DEGREE_KEY = re.compile(r"^-?[0-9]+$")


def _is_int(value: Any) -> bool:
    """A JSON integer: an int that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_report(document: Any) -> list[str]:
    """Check a structured report against its contract; this is the contract.

    Returns a list of problems, empty when the document conforms.
    """
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
