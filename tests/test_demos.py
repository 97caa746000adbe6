"""Each narrative demo runs to completion and prints its pinned text; the README tour runs."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopsing

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  The demos print polynomials, windows and
# cohomology through the package's printers, so a change to any of them that
# alters a character shows here.
STDOUT_DIGESTS = {
    "cohomology_tower": "b78d0493550596f4a29de8c91afb17f9bfcdfc9a37bea95bce57274e8c4834a5",
    "loop_functional_walkthrough": (
        "c8bacb8eb2edbfde84fa38fb6c48f7f694dce6463c38a21caf1ffdb8d291e839"
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


def test_readme_library_tour_runs():
    # The tour spells the public names; renaming one must fail here too.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md (library tour)", "exec"), {})
