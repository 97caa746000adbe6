"""Each narrative demo runs to completion and prints its pinned text."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopsing

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  The demos print polynomials, windows and
# cohomology through the package's printers, so a change to any of them that
# alters a character shows here.
STDOUT_DIGESTS = {
    "cohomology_tower": "b78d0493550596f4a29de8c91afb17f9bfcdfc9a37bea95bce57274e8c4834a5",
    "loop_functional_walkthrough": (
        "5ce80820ef51d1344eaa742091a13f3aefb06a31a35ff6ef0bd48a12e7b5b75f"
    ),
    "milnor_numbers": "807525522934c3d1c8145c91381b472c39bba5c4677488986edc1e45502c2791",
}


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(loopsing.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.stem]
