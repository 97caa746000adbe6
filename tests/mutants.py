"""Mutation run: does the test suite notice when one audit or check is switched off?

Each mutant replaces one exact string, which must occur once in its file
under src/, with code that drops the guarantee named beside it.  For each
mutant the checkout is copied to a temporary directory, the replacement is
made there, and tier-1 (the whole suite, `PYTHONPATH=src python -m pytest
--continue-on-collection-errors`) runs in the copy with `-x -q` and hypothesis
seed 0, less the test of this table's strings.  One line per mutant
reads `killed` with the first failing test, or `survived`; the run exits 1
if any mutant survived, and 2 without running any if some mutant's string
does not occur exactly once or a name given is no mutant's.  Names given on
the command line run those mutants alone, in the table's order.

    python tests/mutants.py
    python tests/mutants.py s-pairs degree-cut

Standard library only; pytest does not collect this file.  The run takes
several minutes: a killed mutant stops at its first failure, a survivor
costs a whole tier-1 run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# A mutated copy no longer holds its mutant's string, so the test of the
# table's strings (test_mutation_table.py) would kill every mutant by itself.
# A fixed hypothesis seed draws the same examples on every run, so a mutant's
# first failing test does not move between runs.
TIER_1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--hypothesis-seed=0",
          "--ignore=tests/test_mutation_table.py"]
UNCOPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/loopsing
    old: str
    new: str
    guarantee: str


MUTANTS = (
    Mutant("colimit", "cohom.py", "if outcome != expected:", "if False:",
           "the stable renormalized cohomology is {d-1: mu}"),
    Mutant("underdetermined", "cohom.py", "if isinstance(solution, Underdetermined):",
           "if False:", "every Gysin sequence of the tower is determined"),
    Mutant("shift-rule", "cohom.py", "if solution.b != expected:", "if False:",
           "each solved B-column equals the shift rule's"),
    Mutant("concentration", "cohom.py", "if len(support) != 1:", "if False:",
           "each truncation's reduced cohomology sits in one degree"),
    Mutant("block-split", "cohom.py", "if solution != LesSolution(",
           "if False and solution != LesSolution(",
           "step n0 is the union of its unit and mu blocks"),
    Mutant("s-pairs", "grobner.py",
           "if _reduce(_s_terms(elements[i], elements[j], lcm), divisors, run)[0]:",
           "if False:", "every kept S-pair reduces to zero on the basis"),
    Mutant("degree-cut", "grobner.py", "lcm >> degree_shift > cut:",
           "lcm >> degree_shift >= cut:",
           "Buchberger and the audit leave out only S-pairs past the staircase top"),
    Mutant("ordered-chain", "grobner.py", "both = treated[i] & treated[j]",
           "both = treated[i]",
           "the chain criterion skips a pair only on two pairs treated before it"),
    Mutant("pair-queue", "grobner.py", "if supports[k] & support:", "if False:",
           "every non-coprime pair at or below the staircase top is queued"),
    Mutant("pair-cut", "grobner.py", "lcm_degree <= cut", "lcm_degree < cut",
           "a pair is dropped when queued only if its lcm lies past the staircase top"),
    Mutant("packed-lcm", "grobner.py", "lcm = b ^ (a ^ b) & take_a * _FIELD_MASK",
           "lcm = a ^ (a ^ b) & take_a * _FIELD_MASK",
           "each queued pair's packed lcm is the fieldwise max of its packed leads"),
    Mutant("generators", "grobner.py", "if _reduce(g, divisors, run)[0]:", "if False:",
           "every ideal generator reduces to zero on the basis"),
    Mutant("staircase", "grobner.py", "if mu != expected:", "if False:",
           "the standard-monomial count is (delta-1)^d"),
    Mutant("isolation-box", "grobner.py", "if not all(box):", "if False:",
           "a basis without a pure power of every variable raises NotIsolated"),
    Mutant("oracle-rank", "grobner.py",
           "and _rank({col + o: c for col, c in g.items()} for g in gens for o in offsets)"
           " < columns", "and False",
           "the oracle raises NotIsolated when the exact Macaulay rank falls short too"),
    Mutant("packing-budget", "grobner.py", "if degree > _MAX_DEGREE:", "if False:",
           "a Groebner basis meeting a monomial above _MAX_DEGREE ends in exit 2"),
    Mutant("pair-budget", "grobner.py", "if lcm_degree > _MAX_DEGREE:", "if False:",
           "a queued S-pair whose lcm lies above _MAX_DEGREE is refused as too large"),
    Mutant("oracle-gate", "cli/main.py", "if func.d <= 3 and func.delta <= 5:", "if False:",
           "the milnor check runs the linear-algebra oracle for d <= 3, delta <= 5"),
    Mutant("linearity", "loopfun.py", "_top_exponent(codes, first, after, m) > 1",
           "_top_exponent(codes, first, after, m) > 2",
           "the functional is linear in the top variables"),
    Mutant("conformal-weight", "loopfun.py", "if cdeg_weights not in",
           "if False and cdeg_weights not in", "the functional has conformal weight 0"),
    Mutant("scaling-weight", "loopfun.py", "if scale_weights not in",
           "if False and scale_weights not in", "the functional has scaling weight delta"),
    Mutant("doubled-term", "loopfun.py", "if codes == previous:", "if False:",
           "the jet kernel hands no monomial over twice"),
    Mutant("zero-coefficient", "loopfun.py", "if finished and not all(products.values()):",
           "if False:", "no jet term has coefficient zero"),
    Mutant("support", "loopfun.py", "ok=max_present <= bound", "ok=True",
           "no variable lies above conformal degree b*(delta-1)"),
    Mutant("derivative-coefficient", "loopfun.py", "lhs == via_coeff", "True",
           "the derivative identity via the t-coefficient"),
    Mutant("derivative-evaluation", "loopfun.py", "lhs == via_eval", "True",
           "the derivative identity via the bottom evaluation"),
    Mutant("constant-loops", "cli/main.py",
           "if lam.on_constant_loops() != lam.coded(func.terms, 0):",
           "if False:", "the functional restricted to constant loops is F"),
    Mutant("homogeneity", "loopfun.py", "if len(degrees) > 1:", "if False:",
           "a polynomial mixing two total degrees is refused as not homogeneous"),
    Mutant("jet-budget", "loopfun.py", "MAX_JET_TERMS = 100_000", "MAX_JET_TERMS = 10**9",
           "a loop functional past 100,000 built terms ends in exit 2"),
    Mutant("reduction-budget", "grobner.py", "if left < 0:", "if False:",
           "a Groebner basis past MAX_REDUCTION_WORK term-words ends in exit 2"),
    Mutant("source-budget", "cli/parser.py", "if len(data) > MAX_SOURCE_BYTES:", "if False:",
           "an input file longer than MAX_SOURCE_BYTES ends in exit 2"),
    Mutant("coefficient-budget", "cli/parser.py", "for c in coefficients:", "for c in ():",
           "a coefficient past MAX_COEFFICIENT_DIGITS digits ends in exit 2"),
    Mutant("product-budget", "cli/parser.py", "if self.work > MAX_PRODUCT_WORK:", "if False:",
           "products past MAX_PRODUCT_WORK term pairs end in exit 2"),
    Mutant("exponent-budget", "cli/parser.py", "if exponent > MAX_DEGREE:", "if False:",
           "an exponent above MAX_DEGREE ends in exit 2"),
    Mutant("degree-budget", "cli/parser.py", "if degree > MAX_DEGREE:", "if False:",
           "a product or power above total degree MAX_DEGREE ends in exit 2"),
    Mutant("nesting-budget", "cli/parser.py", "if self.depth == MAX_NESTING:", "if False:",
           "parentheses nested deeper than MAX_NESTING end in exit 2"),
    Mutant("n-max-budget", "cli/report.py", "if n_max > MAX_N_MAX:", "if False:",
           "an n-max above MAX_N_MAX ends in exit 2"),
    Mutant("window-bottom", "loopfun.py",
           'raise ValueError(f"window bottom must be nonnegative, got {bottom}")', "pass",
           "a window's bottom is nonnegative"),
    Mutant("window-top", "loopfun.py", "if top < -bottom:", "if False:",
           "a window's top lies at or above -bottom"),
    Mutant("window-make", "loopfun.py", "_make = classmethod(lambda cls, fields: cls(*fields))",
           "pass", "Window._replace and Window._make check the fields as the constructor does"),
    Mutant("rank-kind", "cohom.py", "if kind not in _KINDS:", "if False:",
           "a declared rank is of a gysin, restriction or residue map"),
    Mutant("rank-sign", "cohom.py", "if rank < 0:", "if False:",
           "a declared rank is nonnegative"),
    Mutant("les-codim", "cohom.py", "if codim < 1:", "if False:",
           "a Gysin sequence's codimension is positive"),
    Mutant("outcome-ok", "cli/report.py", "if ok and (skipped or witness is not None):",
           "if False:", "a passed check is neither skipped nor carries a witness"),
    Mutant("outcome-witness", "cli/report.py", "if not ok and witness is None:", "if False:",
           "a failed or skipped check carries a witness"),
    Mutant("json-writer", "cli/report.py", '"witness": {_leaf(outcome.witness)}',
           '"witness": "{outcome.witness}"',
           "the structured report is the standard encoder's bytes for `to_dict()`"),
)


# A summary line of a `-q` run: `FAILED <id> - <message>`, or `ERROR` for a
# test or file that errored.  A node id holds no space outside the brackets
# of its parameters, and those may hold " - " themselves, so the id ends at
# the first "]" that a " - " or the end of the line follows.
_SUMMARY = re.compile(r"(FAILED |ERROR )(\S*?(?:\[.*?\])?)(?: - |$)")


def first_failure(output: str) -> str:
    """The first failing or erroring test a `-q` run names, else its last line."""
    for line in output.splitlines():
        match = _SUMMARY.match(line)
        if match:
            kind, test = match.groups()
            return test if kind == "FAILED " else kind + test
    lines = output.strip().splitlines()
    return lines[-1] if lines else "no output"


def anchor_error(mutant: Mutant) -> str | None:
    """Why mutant cannot be applied to the checkout, or None when its string occurs once."""
    count = (ROOT / "src" / "loopsing" / mutant.path).read_text().count(mutant.old)
    if count != 1:
        return f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}"
    return None


def run(mutant: Mutant, workdir: Path) -> str:
    """`killed <test>` or `survived`, for tier-1 on a copy of the checkout with mutant applied."""
    copy = workdir / mutant.name
    shutil.copytree(ROOT, copy, ignore=UNCOPIED)
    target = copy / "src" / "loopsing" / mutant.path
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(TIER_1, cwd=copy, env=env, capture_output=True, text=True)
    shutil.rmtree(copy)
    return "survived" if result.returncode == 0 else f"killed    {first_failure(result.stdout)}"


def main(names: Sequence[str]) -> int:
    known = {mutant.name for mutant in MUTANTS}
    errors = [f"{name}: no such mutant" for name in names if name not in known]
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    errors += [error for error in map(anchor_error, chosen) if error]
    if errors:
        print(*errors, sep="\n", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="loopsing-mutants-") as workdir:
        for mutant in chosen:
            verdict = run(mutant, Path(workdir))
            survivors += verdict == "survived"
            print(f"{mutant.name:<24} {verdict}    ({mutant.guarantee})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
