"""Write pins.json: digests of every report of the default seed and length.

Each report is produced in this process and must first pass every reference
check; the script refuses to pin a report that fails one.  Re-pin only when a
change to the report format is intended, and say so where the change is
recorded.

Usage, from the repository root: PYTHONPATH=src python3 bench/pin.py
"""

from __future__ import annotations

import json
import sys

import loopsing.cli  # noqa: F401  (registers loopsing.cli.main)
import references
import run
import workloads
from worker import render


def main() -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.generate(workload, run.DEFAULT_SEED, run.DEFAULT_SECONDS):
            text, status = render(sys.modules["loopsing.cli.main"], case)
            problems = references.verify(case, text, status, {})
            if problems:
                print(f"refusing to pin {case.key}: {problems}", file=sys.stderr)
                return 1
            digests[case.key] = references.digest(json.loads(text))
    with open(run.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {"seed": run.DEFAULT_SEED, "seconds": run.DEFAULT_SECONDS, "digests": digests},
            fh, indent=0, sort_keys=True,
        )
        fh.write("\n")
    print(f"pinned {len(digests)} reports in {run.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
