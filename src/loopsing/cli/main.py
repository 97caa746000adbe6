"""Pipeline orchestration and the command-line entry point.

Checks run in dependency order (parse, loop functional, structural checks,
Milnor number, cohomology); cohomology is skipped when the singularity turns
out not to be isolated.  Exit status 0 means every enabled check passed,
1 means some check failed or was skipped, 2 means the configuration or the
input expression was invalid, the loop functional or the Groebner basis
would exceed its budget, or the input or output file could not be used.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from .. import cohom, grobner
from ..loopfun import (
    DegreeTooLow,
    FunctionalTooLarge,
    InputFunction,
    NotHomogeneous,
    _functional_checks,
    minimal_window,
)
from .parser import ParseError, format_function, loop_poly_string, parse_function, read_function_file
from .report import CHECK_NAMES, FUNCTIONAL_CHECKS, CheckOutcome, Report, run_problem

__all__ = ["RunConfig", "ConfigError", "run", "main"]


class ConfigError(ValueError):
    """Invalid run configuration (not a check failure)."""


class RunConfig:
    def __init__(
        self, function_source: str, window_bottom: int = 1, n_max: int = 4,
        checks: tuple[str, ...] = CHECK_NAMES, output_format: str = "text",
        emit_lambda: bool = False,
    ) -> None:
        self.function_source = function_source
        self.window_bottom = window_bottom
        self.n_max = n_max
        self.checks = checks
        self.output_format = output_format
        self.emit_lambda = emit_lambda

    def validate(self) -> None:
        problem = run_problem(self.checks, self.window_bottom, self.n_max)
        if problem is not None:
            raise ConfigError(problem[1])
        if self.output_format not in ("text", "structured"):
            raise ConfigError(f"unknown output format {self.output_format!r}")


def run(config: RunConfig) -> Report:
    """Execute the enabled checks on the expression `config.function_source`
    and assemble a report."""
    config.validate()
    started = time.perf_counter()

    func = parse_function(config.function_source)
    enabled = tuple(name for name in CHECK_NAMES if name in config.checks)

    # Outcomes are added in CHECK_NAMES order, the order of report.checks.
    checks: dict[str, CheckOutcome] = {}
    lambda_terms: int | None = None
    lambda_string: str | None = None
    functional_checks = [name for name in enabled if name in FUNCTIONAL_CHECKS]
    if functional_checks:
        lam, witnesses = _functional_checks(func, config.window_bottom, functional_checks)
        for name, witness in witnesses.items():
            checks[name] = CheckOutcome(ok=witness is None, witness=witness)
        if lam is not None:
            lambda_terms = len(lam)
            if config.emit_lambda:
                lambda_string = loop_poly_string(lam, func.names)

    mu: int | None = None
    isolated: bool | None = None
    needs_mu = "milnor" in enabled or "cohomology" in enabled
    if needs_mu:
        # milnor_number audits its basis and the count (delta-1)^d; a failed
        # audit, like a non-isolated singularity, fails the milnor check.
        try:
            mu = grobner.milnor_number(func)
            isolated = True
        except grobner.NotIsolated as exc:
            isolated = False
            failure, reason = str(exc), "singularity is not isolated"
        except RuntimeError as exc:
            failure, reason = str(exc), "the Milnor number audit failed"
        if mu is None:
            if "milnor" in enabled:
                checks["milnor"] = CheckOutcome(ok=False, witness=failure)
            if "cohomology" in enabled:
                checks["cohomology"] = CheckOutcome(
                    ok=False, skipped=True, witness=f"skipped: {reason}"
                )
        elif "milnor" in enabled:
            checks["milnor"] = _milnor_check(func, mu)

    cohomology: cohom.RenormalizedReport | None = None
    if "cohomology" in enabled and mu is not None:
        # The walk audits every step (shift rule, concentration) and the
        # renormalized outcome against {d-1: mu}; a failed audit raises.
        try:
            cohomology = cohom.gysin_tower(func.d, mu, config.n_max).renormalized()
            checks["cohomology"] = CheckOutcome(ok=True)
        except (cohom.Inconsistent, RuntimeError) as exc:
            checks["cohomology"] = CheckOutcome(ok=False, witness=str(exc))

    return Report(
        function=format_function(func),
        d=func.d,
        delta=func.delta,
        window=minimal_window(func, config.window_bottom),
        milnor_number=mu,
        isolated=isolated,
        lambda_term_count=lambda_terms,
        lambda_polynomial=lambda_string,
        checks=checks,
        cohomology=cohomology,
        timing_seconds=time.perf_counter() - started,
    )


def _milnor_check(func: InputFunction, mu: int) -> CheckOutcome:
    if func.d <= 3 and func.delta <= 5:
        # Both routes return the audited (delta-1)^d, so they can disagree
        # only on whether the singularity is isolated.
        try:
            grobner.milnor_number_oracle(func)
        except grobner.NotIsolated:
            return CheckOutcome(
                ok=False,
                witness="linear-algebra oracle finds the singularity not isolated, "
                f"basis count gives {mu}",
            )
    return CheckOutcome(ok=True)


class _ArgumentParser(argparse.ArgumentParser):
    """Ends a command-line error with one `loopsing: error:` line, exit status 2.

    `error` never returns.  It is not annotated `NoReturn`: that name would
    load typing at every start of the command line.
    """

    def error(self, message: str):
        if message == "argument -f/--function: expected one argument":
            message += " (write -f=EXPR for an expression that starts with '-')"
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="loopsing",
        description=(
            "Compute the loop functional of a homogeneous polynomial with "
            "isolated singularity, verify its structural identities, and "
            "solve the Gysin tower for its renormalized nearby cohomology."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("-f", "--function", help="input expression, e.g. 'x^3 + y^3'")
    source.add_argument("--file", help="file holding one expression (# comments allowed)")
    parser.add_argument(
        "--window", type=int, default=1, metavar="B",
        help="pole-order bound: conformal degrees start at -B (default 1)",
    )
    parser.add_argument(
        "--n-max", type=int, default=4, metavar="N",
        help="height of the cohomology tower (default 4)",
    )
    parser.add_argument(
        "--checks", default=",".join(CHECK_NAMES), metavar="LIST",
        help=f"comma-separated subset of: {', '.join(CHECK_NAMES)} (default all)",
    )
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output format (structured = JSON)",
    )
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument(
        "--emit-lambda", action="store_true",
        help="include the full loop functional in the report (grows quickly)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)

    config = RunConfig(
        function_source=args.function,
        window_bottom=args.window,
        n_max=args.n_max,
        checks=tuple(name.strip() for name in args.checks.split(",") if name.strip()),
        output_format=args.format,
        emit_lambda=args.emit_lambda,
    )

    try:
        if args.function is None:
            config.validate()  # a configuration error comes before an unreadable file
            config.function_source = read_function_file(args.file)
        report = run(config)
        rendered = report.to_json() if config.output_format == "structured" else report.to_text()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (
        ConfigError,
        ParseError,
        NotHomogeneous,
        DegreeTooLow,
        FunctionalTooLarge,
        grobner._BasisTooLarge,
        OSError,
    ) as exc:
        print(f"loopsing: error: {exc}", file=sys.stderr)
        return 2
    return report.exit_status
