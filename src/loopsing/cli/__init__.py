"""Expression parsing, pipeline orchestration, and report emission."""

from .main import ConfigError, RunConfig, main, run
from .parser import (
    ParseError,
    format_function,
    loop_poly_string,
    parse_function,
    poly_to_source,
    read_function_file,
)
from .report import CHECK_NAMES, FUNCTIONAL_CHECKS, CheckOutcome, Report, validate_report

__all__ = [
    "CHECK_NAMES",
    "FUNCTIONAL_CHECKS",
    "CheckOutcome",
    "ConfigError",
    "ParseError",
    "Report",
    "RunConfig",
    "format_function",
    "loop_poly_string",
    "main",
    "parse_function",
    "poly_to_source",
    "read_function_file",
    "run",
    "validate_report",
]
