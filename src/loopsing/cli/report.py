"""Report assembly: structured (JSON) and fixed-layout text output.

Report.to_json writes the structured document itself, in one pass: the bytes
the standard encoder gives for to_dict with sorted keys and a two-space
indent, its leaves written as that encoder writes them (`_leaf`), and the
cohomology section written row by row from the tower by `_cohomology_json`,
the one writer of that layout; to_dict reads that section back.
validate_report rebuilds the Report a document claims to be and compares its
to_dict.  Degree-indexed maps use decimal-string keys so that negative degrees
survive serialization unambiguously.  Reports are deterministic: two runs on
the same configuration produce byte-identical documents apart from the timing
field.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator, Mapping
from json.encoder import encode_basestring_ascii

from ..cohom import MAX_N_MAX, RenormalizedReport, declared_support_floor, gysin_tower
from ..loopfun import MAX_JET_TERMS, Window, minimal_window
from .parser import parse_function

__all__ = [
    "CHECK_NAMES",
    "FUNCTIONAL_CHECKS",
    "CheckOutcome",
    "Report",
    "validate_report",
]

# Dependency order; reports always list checks this way.
CHECK_NAMES = ("lambda", "support", "linearity", "derivative", "milnor", "cohomology")
# The checks that read the loop functional.
FUNCTIONAL_CHECKS = ("lambda", "support", "linearity", "derivative")
# The order of the structured report's check members: its keys are sorted.
_SORTED_CHECKS = tuple(sorted(CHECK_NAMES))


def run_problem(checks: Collection[str], bottom: int, n_max: int | None) -> tuple[str, str] | None:
    """The first rule of a run that the checks, the window bottom and the tower
    height break, as (the report path that shows it, the problem); None if none.

    `RunConfig.validate` and `Report` both ask it; a Report without a tower
    passes `n_max` None.  No functional fits a window bottom past
    MAX_JET_TERMS, since a monomial of degree >= 2 expands to more terms than
    that, and its window top may be too long to print.
    """
    if not checks:
        return "checks", "at least one check must be enabled"
    unknown = [name for name in checks if name not in CHECK_NAMES]
    if unknown:
        return "checks", f"unknown checks: {', '.join(unknown)}"
    if bottom < 0:
        return "window.bottom", "window bottom must be nonnegative"
    if bottom > MAX_JET_TERMS:
        return "window.bottom", f"window bottom must be at most {MAX_JET_TERMS}"
    if bottom < 1 and ("linearity" in checks or "derivative" in checks):
        return "window.bottom", "linearity and derivative checks need window >= 1"
    if n_max is None:
        return None
    if n_max < 1:
        return "cohomology", "n-max must be positive"
    if n_max > MAX_N_MAX:
        return "cohomology", f"n-max must be at most {MAX_N_MAX}"
    if "cohomology" in checks and n_max < max(2, bottom):
        return "cohomology", "n-max must be >= 2 and >= the window bottom"
    return None


class CheckOutcome(namedtuple("CheckOutcome", "ok witness skipped")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, ok: bool, witness: str | None = None, skipped: bool = False) -> CheckOutcome:
        if ok and (skipped or witness is not None):
            raise ValueError("skipped but ok" if skipped else "ok with a witness")
        if not ok and witness is None:
            raise ValueError("failed without a witness")
        return super().__new__(cls, ok, witness, skipped)


class Report(namedtuple("Report", (
    "function d delta window milnor_number isolated lambda_term_count lambda_polynomial checks"
    " cohomology timing_seconds"
))):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, function: str, d: int, delta: int, window: Window, milnor_number: int | None,
        isolated: bool | None, lambda_term_count: int | None, lambda_polynomial: str | None,
        checks: Mapping[str, CheckOutcome], cohomology: RenormalizedReport | None,
        timing_seconds: float = 0.0,
    ) -> Report:
        # JSON has no number for NaN or the infinities, and the validator refuses them.
        if type(timing_seconds) is not float or not math.isfinite(timing_seconds):
            raise _Mismatch("timing.seconds: not a finite float")
        n_max = None if cohomology is None else cohomology.tower.n_max
        problem = run_problem(checks, window.bottom, n_max)
        if problem is None and lambda_term_count is not None:
            if not any(name in checks for name in FUNCTIONAL_CHECKS):
                problem = "lambda", "present beside no functional check"
        if problem is None and isolated is not None:
            if "milnor" not in checks and "cohomology" not in checks:
                problem = "isolated", "set beside no milnor or cohomology check"
        if problem is not None:
            raise _Mismatch(": ".join(problem))
        return super().__new__(
            cls, function, d, delta, window, milnor_number, isolated, lambda_term_count,
            lambda_polynomial, checks, cohomology, timing_seconds,
        )

    @property
    def axioms(self) -> tuple[str, ...]:
        return () if self.cohomology is None else self.cohomology.axioms

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict[str, object]:
        return self._document(self.cohomology and json.loads(_cohomology_json(self.cohomology)))

    def to_json(self) -> str:
        """The standard encoder's bytes for to_dict() with sorted keys and a
        two-space indent, newline-terminated, written member by member."""
        checks = []
        for name in _SORTED_CHECKS:
            if name in self.checks:
                outcome = self.checks[name]
                entry = f'"{name}": {{\n      "ok": {_leaf(outcome.ok)}'
                if outcome.skipped:
                    entry += ',\n      "skipped": true'
                if outcome.witness is not None:
                    entry += f',\n      "witness": {_leaf(outcome.witness)}'
                checks.append(entry + "\n    }")
        members = ",\n    ".join(checks)
        lam = "null"
        if self.lambda_term_count is not None:
            lam = f'"term_count": {_leaf(self.lambda_term_count)}\n  }}'
            if self.lambda_polynomial is not None:
                lam = f'"polynomial": {_leaf(self.lambda_polynomial)},\n    ' + lam
            lam = "{\n    " + lam
        axioms = "[]"
        if self.axioms:
            axioms = "[\n    " + ",\n    ".join(map(_leaf, self.axioms)) + "\n  ]"
        section = "null" if self.cohomology is None else _cohomology_json(self.cohomology)
        return (
            f'{{\n  "axioms": {axioms},\n  "checks": {{\n    {members}\n  }},'
            f'\n  "cohomology": {section},\n  "d": {_leaf(self.d)},'
            f'\n  "delta": {_leaf(self.delta)},\n  "function": {_leaf(self.function)},'
            f'\n  "isolated": {_leaf(self.isolated)},\n  "lambda": {lam},'
            f'\n  "milnor_number": {_leaf(self.milnor_number)},'
            f'\n  "timing": {{\n    "seconds": {_leaf(self.timing_seconds)}\n  }},'
            f'\n  "window": {{\n    "bottom": {_leaf(self.window.bottom)},'
            f'\n    "top": {_leaf(self.window.top)}\n  }}\n}}\n'
        )

    def _document(self, cohomology: object) -> dict[str, object]:
        """The document's members, with `cohomology` as the section's value."""
        checks: dict[str, dict[str, object]] = {}
        for name in CHECK_NAMES:
            if name in self.checks:
                outcome = self.checks[name]
                entry = checks[name] = {"ok": outcome.ok}
                if outcome.witness is not None:
                    entry["witness"] = outcome.witness
                if outcome.skipped:
                    entry["skipped"] = True

        lam = None
        if self.lambda_term_count is not None:
            lam = {"term_count": self.lambda_term_count}
            if self.lambda_polynomial is not None:
                lam["polynomial"] = self.lambda_polynomial

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

    def to_text(self) -> str:
        lines = []

        def row(label: str, value: object) -> None:
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
            degrees = tower.degrees
            for n, degree in enumerate(degrees):
                row(f"escape n={n}", f"degree {degree}")
            # The paper's first result, from the audited step-0 degree and shift.
            first, shift = degrees[0], degrees[1] - degrees[0]
            bound = f"(s - {first})/{shift}" if first else f"s/{shift}"
            row("vanishing", (
                f"reduced cohomology in degree s is 0 at every step n > {bound}; the unit"
                " class stays in degree 0 of every truncation and dies only in the"
                " colimit, through the residue"
            ))
        for axiom in self.axioms:
            row("axiom", axiom)
        row("timing", f"{self.timing_seconds:.3f}s")
        return "\n".join(lines) + "\n"


def _leaf(value: object) -> str:
    """A scalar as the standard encoder writes it: strings escaped to ASCII,
    ints by int.__repr__, floats by float.__repr__, as its floatstr writes a
    finite float, the only kind a Report holds."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cohomology_json(cohomology: RenormalizedReport) -> str:
    """The cohomology section as the standard encoder writes it at the top
    level of the document, row by row."""
    def degrees(items: Iterable[tuple[int, int]], pad: str) -> str:
        # Sorting the members as written sorts their decimal keys as strings: "-10" before "-2".
        members = sorted([f'"{degree}": {count}' for degree, count in items])
        return "{\n  " + pad + (",\n  " + pad).join(members) + "\n" + pad + "}"
    tower, rows = cohomology.tower, ",\n      ".join
    count, later = tower._later_steps()
    escape = rows([
        f'{{\n        "declared_floor": {declared_support_floor(tower.d, n)},\n        "degree": '
        f'{degree},\n        "n": {n}\n      }}'
        for n, degree in [*enumerate(tower.head_degrees), *later]
    ])
    truncations = rows([
        *(
            f'{{\n        "dims": {degrees(dims.items(), "        ")},\n        "n": {n}\n      }}'
            for n, dims in enumerate(tower.head_truncations)
        ),
        # The unit class's key "0" sorts before the block's positive degree.
        *(
            f'{{\n        "dims": {{\n          "0": 1,\n          "{degree}": {count}\n'
            f'        }},\n        "n": {n}\n      }}' for n, degree in later
        ),
    ])
    return (
        f'{{\n    "escape": [\n      {escape}\n    ],'
        f'\n    "renormalized": {degrees(cohomology.stable.items(), "    ")},'
        f'\n    "stabilization": {degrees(cohomology.stabilization_step.items(), "    ")},'
        f'\n    "truncations": [\n      {truncations}\n    ]\n  }}'
    )


class _Mismatch(ValueError):
    """A document leaf that no Report holds, or a Report that `run()` cannot
    make; the message is its error line, path first."""


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a finite float", bool: "a boolean", type(None): "null"}


def _read(document: object, path: str | tuple[str, ...], *kinds: type) -> object:
    """The leaf at `path` (dotted, or a tuple of keys), null if missing, of a type in `kinds`."""
    keys = path.split(".") if type(path) is str else path
    value = document
    for key in keys:
        value = value.get(key) if type(value) is dict else None
    if type(value) not in kinds or type(value) is float and not math.isfinite(value):
        raise _Mismatch(f"{'.'.join(keys)}: not {' or '.join(_JSON_KINDS[kind] for kind in kinds)}")
    return value


def _departures(expected: object, found: object, path: str) -> Iterator[str]:
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


def _show(value: object) -> str:
    if type(value) in (dict, list):
        return f"{_JSON_KINDS[type(value)]} of length {len(value)}"
    try:
        return json.dumps(value, default=repr)
    except ValueError:  # an integer past the interpreter's conversion limit
        return _JSON_KINDS[int]


def validate_report(document: object) -> list[str]:
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
                ok=_read(document, ("checks", name, "ok"), bool),
                witness=_read(document, ("checks", name, "witness"), str, type(None)),
                skipped=_read(document, ("checks", name, "skipped"), bool, type(None)) is True,
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
            problem = run_problem(checks, window.bottom, n_max)  # before a tall tower is built
            if problem is not None:
                raise _Mismatch(": ".join(problem))
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
