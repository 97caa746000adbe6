"""Every function the benchmark's layer trace wraps still exists in loopsing.

The tracer skips a target the program no longer has, and its metrics then
read zero, so a rename would otherwise go unnoticed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_function_target_resolves(span):
    module, attribute = tracer.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module), attribute, None))
