"""Mutation run: does the test suite notice when one audit or check is switched off?

Each mutant replaces one exact string, which must occur once in its file
under src/, with code that drops the guarantee named beside it, and names the
test aimed at that guarantee.  For each mutant the checkout is copied to a
temporary directory and the replacement is made there.  The aimed test runs
first in the copy, with tier-1's flags (`PYTHONPATH=src python -m pytest
--continue-on-collection-errors`, with `-x -q`, hypothesis seed 0 and the
`verdict` profile of tests/conftest.py, which neither shrinks nor explains a
failing example); if it fails, the mutant's line reads `killed (aimed)`.
Otherwise tier-1 (the whole suite, less the test of this table's strings)
runs in the copy with the same flags, and the line reads `killed
(incidental)` with the first failing test, or `survived`.  The
run exits 1 if any mutant survived, and 2 without running any if some
mutant's string does not occur exactly once or a name given is no mutant's.
Names given on the command line run those mutants alone, in the table's order.

    python tests/mutants.py
    python tests/mutants.py s-pairs degree-cut

Standard library only; pytest does not collect this file.  The run takes a
few minutes: an aimed kill costs one test, a mutant its aimed test misses
costs tier-1 up to its first failure, and a survivor a whole tier-1 run.
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
# A fixed hypothesis seed draws the same examples on every run, alone or in
# the whole suite, so a verdict does not move between runs; a verdict needs
# no shrunk or explained example, which can cost a failing test tens of seconds.
TIER_1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--hypothesis-seed=0",
          "--hypothesis-profile=verdict", "--ignore=tests/test_mutation_table.py"]
UNCOPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/loopsing
    old: str
    new: str
    guarantee: str
    aimed: str  # the test aimed at the guarantee, under tests/


MUTANTS = (
    Mutant("colimit", "cohom.py", "if outcome != expected:", "if False:",
           "the stable renormalized cohomology is {d-1: mu}",
           "test_cli.py::TestRun::test_a_colimit_other_than_mu_fails_the_check"),
    Mutant("underdetermined", "cohom.py", "if isinstance(solution, Underdetermined):",
           "if False:", "every Gysin sequence of the tower is determined",
           "test_cli.py::TestRun::test_an_underdetermined_gysin_system_fails_the_check"),
    Mutant("shift-rule", "cohom.py", "if solution.b != expected:", "if False:",
           "each solved B-column equals the shift rule's",
           "test_cli.py::TestRun::test_failed_shift_rule_fails_the_check"),
    Mutant("concentration", "cohom.py", "if len(support) != 1:", "if False:",
           "each truncation's reduced cohomology sits in one degree",
           "test_cohom.py::TestGysinTower::test_concentration_is_checked"),
    Mutant("block-split", "cohom.py", "if solution != LesSolution(",
           "if False and solution != LesSolution(",
           "step n0 is the union of its unit and mu blocks",
           "test_cohom.py::TestGysinTower"
           "::test_a_unit_block_reaching_into_the_mu_block_fails_the_audit"),
    Mutant("s-pairs", "grobner.py",
           "if _reduce(_s_terms(elements[i], elements[j], lcm), divisors, run)[0]:",
           "if False:", "every kept S-pair reduces to zero on the basis",
           "test_cli.py::TestRun::test_corrupted_basis_fails_the_real_audit"),
    Mutant("degree-cut", "grobner.py", "lcm >> degree_shift > cut:",
           "lcm >> degree_shift >= cut:",
           "Buchberger and the audit leave out only S-pairs past the staircase top",
           "test_grobner.py::TestStandardMonomials::test_staircase_count_matches_the_enumeration"),
    Mutant("ordered-chain", "grobner.py", "both = treated[i] & treated[j]",
           "both = treated[i]",
           "the chain criterion skips a pair only on two pairs treated before it",
           "test_grobner.py::TestAudit::test_a_chain_relies_only_on_pairs_treated_before_it"),
    Mutant("pair-queue", "grobner.py", "if supports[k] & support:", "if False:",
           "every non-coprime pair at or below the staircase top is queued",
           "test_acceptance.py::test_criterion_2_renormalized_cohomology_on_corpus"),
    Mutant("pair-cut", "grobner.py", "lcm_degree <= cut", "lcm_degree < cut",
           "a pair is dropped when queued only if its lcm lies past the staircase top",
           "test_grobner.py::TestStandardMonomials::test_staircase_count_matches_the_enumeration"),
    Mutant("packed-lcm", "grobner.py", "lcm = b ^ (a ^ b) & take_a * _FIELD_MASK",
           "lcm = a ^ (a ^ b) & take_a * _FIELD_MASK",
           "each queued pair's packed lcm is the fieldwise max of its packed leads",
           "test_acceptance.py::test_criterion_2_renormalized_cohomology_on_corpus"),
    Mutant("generators", "grobner.py", "if _reduce(g, divisors, run)[0]:", "if False:",
           "every ideal generator reduces to zero on the basis",
           "test_grobner.py::TestAudit::test_pruned_audit_raises_exactly_when_all_pairs_does"),
    Mutant("staircase", "grobner.py", "if mu != expected:", "if False:",
           "the standard-monomial count is (delta-1)^d",
           "test_cli.py::TestRun::test_failed_groebner_audit_fails_the_milnor_check[count]"),
    Mutant("isolation-box", "grobner.py", "if not all(box):", "if False:",
           "a basis without a pure power of every variable raises NotIsolated",
           "test_acceptance.py::test_criterion_8_non_isolated_rejection"),
    Mutant("oracle-rank", "grobner.py",
           "and _rank({col + o: c for col, c in g.items()} for g in gens for o in offsets)"
           " < columns", "and False",
           "the oracle raises NotIsolated when the exact Macaulay rank falls short too",
           "test_cli.py::TestRun::test_oracle_that_finds_no_isolated_singularity_fails_the_check"),
    Mutant("packing-budget", "grobner.py", "if degree > _MAX_DEGREE:", "if False:",
           "a Groebner basis meeting a monomial above _MAX_DEGREE ends in exit 2",
           "test_grobner.py::TestPacking::test_a_queued_pair_has_the_packed_lcm"),
    Mutant("pair-budget", "grobner.py", "if lcm_degree > _MAX_DEGREE:", "if False:",
           "a queued S-pair whose lcm lies above _MAX_DEGREE is refused as too large",
           "test_grobner.py::TestPacking::test_a_queued_pair_has_the_packed_lcm"),
    Mutant("oracle-gate", "cli/main.py", "if func.d <= 3 and func.delta <= 5:", "if False:",
           "the milnor check runs the linear-algebra oracle for d <= 3, delta <= 5",
           "test_cli.py::TestRun::test_the_milnor_check_runs_the_oracle_exactly_on_its_gate"),
    Mutant("linearity", "loopfun.py", "_top_exponent(codes, first, after, m) > 1",
           "_top_exponent(codes, first, after, m) > 2",
           "the functional is linear in the top variables",
           "test_cli.py::TestRun::test_broken_functional_fails_its_check_with_its_witness"
           "[linearity]"),
    Mutant("conformal-weight", "loopfun.py", "if cdeg_weights not in",
           "if False and cdeg_weights not in", "the functional has conformal weight 0",
           "test_cli.py::TestRun::test_failed_functional_audit_fails_every_functional_check"
           "[conformal]"),
    Mutant("scaling-weight", "loopfun.py", "if scale_weights not in",
           "if False and scale_weights not in", "the functional has scaling weight delta",
           "test_cli.py::TestRun::test_failed_functional_audit_fails_every_functional_check"
           "[scaling]"),
    Mutant("doubled-term", "loopfun.py", "if codes == previous:", "if False:",
           "the jet kernel hands no monomial over twice",
           "test_cli.py::TestRun::test_a_jet_term_built_twice_fails_every_functional_check"),
    Mutant("zero-coefficient", "loopfun.py", "if finished and not all(products.values()):",
           "if False:", "no jet term has coefficient zero",
           "test_loopfun.py::TestJetAudits::test_a_zero_coefficient_raises"),
    Mutant("support", "loopfun.py", "ok=max_present <= bound", "ok=True",
           "no variable lies above conformal degree b*(delta-1)",
           "test_cli.py::TestRun::test_broken_functional_fails_its_check_with_its_witness"
           "[support]"),
    Mutant("derivative-coefficient", "loopfun.py", "lhs == via_coeff", "True",
           "the derivative identity via the t-coefficient",
           "test_loopfun.py::TestOrderReadingForms::test_checks_match_their_scans"),
    Mutant("derivative-evaluation", "loopfun.py", "lhs == via_eval", "True",
           "the derivative identity via the bottom evaluation",
           "test_loopfun.py::TestOrderReadingForms::test_checks_match_their_scans"),
    Mutant("constant-loops", "loopfun.py",
           "if lam.on_constant_loops() != lam.coded(func.terms, 0):",
           "if False:", "the functional restricted to constant loops is F",
           "test_cli.py::TestRun::test_broken_functional_fails_its_check_with_its_witness"
           "[lambda]"),
    Mutant("homogeneity", "loopfun.py", "if len(degrees) > 1:", "if False:",
           "a polynomial mixing two total degrees is refused as not homogeneous",
           "test_cli.py::TestStructuredOutput"
           "::test_schema_rejects_what_the_program_would_not_derive[function-x^3 + y^2-errors10]"),
    Mutant("jet-budget", "loopfun.py", "MAX_JET_TERMS = 100_000", "MAX_JET_TERMS = 10**9",
           "a loop functional past 100,000 built terms ends in exit 2",
           "test_cli.py::TestMain::test_oversized_functional_is_a_usage_error"),
    Mutant("reduction-budget", "grobner.py", "if left < 0:", "if False:",
           "a Groebner basis past MAX_REDUCTION_WORK term-words ends in exit 2",
           "test_cli.py::TestMain::test_groebner_basis_past_its_budget_is_a_usage_error[text]"),
    Mutant("source-budget", "cli/parser.py", "if len(data) > MAX_SOURCE_BYTES:", "if False:",
           "an input file longer than MAX_SOURCE_BYTES ends in exit 2",
           "test_cli.py::TestMain::test_file_one_byte_over_the_bound_is_a_usage_error"),
    Mutant("coefficient-budget", "cli/parser.py", "for c in coefficients:", "for c in ():",
           "a coefficient past MAX_COEFFICIENT_DIGITS digits ends in exit 2",
           "test_cli.py::TestMain::test_coefficient_budget_is_a_syntax_error[((2^64)^64)^64*x^2]"),
    Mutant("product-budget", "cli/parser.py", "if self.work > MAX_PRODUCT_WORK:", "if False:",
           "products past MAX_PRODUCT_WORK term pairs end in exit 2",
           "test_cli.py::TestMain::test_power_of_a_long_sum_is_a_syntax_error"),
    Mutant("exponent-budget", "cli/parser.py", "if exponent > MAX_DEGREE:", "if False:",
           "an exponent above MAX_DEGREE ends in exit 2",
           "test_parser.py::TestErrors::test_every_error_is_pinned"
           "[x^65-2-an exponent of at most 64-'65']"),
    Mutant("degree-budget", "cli/parser.py", "if degree > MAX_DEGREE:", "if False:",
           "a product or power above total degree MAX_DEGREE ends in exit 2",
           "test_cli.py::TestMain::test_degree_budget_is_a_syntax_error[x^40*y^40]"),
    Mutant("nesting-budget", "cli/parser.py", "if self.depth == MAX_NESTING:", "if False:",
           "parentheses nested deeper than MAX_NESTING end in exit 2",
           "test_cli.py::TestMain::test_deep_nesting_is_a_syntax_error"),
    Mutant("coordinate-budget", "cli/parser.py", "if len(self.coords) == MAX_COORDINATES:",
           "if False:", "a form in more than MAX_COORDINATES variables ends in exit 2",
           "test_parser.py::TestErrors"
           "::test_a_variable_past_the_coordinate_budget_is_refused_where_it_first_occurs"),
    Mutant("n-max-budget", "cli/report.py", "if n_max > MAX_N_MAX:", "if False:",
           "an n-max above MAX_N_MAX ends in exit 2",
           "test_cli.py::TestConfigValidation::test_nmax_budget"),
    Mutant("window-bottom", "loopfun.py",
           'raise ValueError(f"window bottom must be nonnegative, got {bottom}")', "pass",
           "a window's bottom is nonnegative",
           "test_records.py"
           "::test_a_record_refuses_bad_fields_through_the_constructor_and_replace"
           "[Window-window bottom must be nonnegative]"),
    Mutant("window-top", "loopfun.py", "if top < -bottom:", "if False:",
           "a window's top lies at or above -bottom",
           "test_loopfun.py::TestWindow::test_rejects_bad_bounds"),
    Mutant("window-make", "loopfun.py", "_make = classmethod(lambda cls, fields: cls(*fields))",
           "pass", "Window._replace and Window._make check the fields as the constructor does",
           "test_records.py"
           "::test_a_record_refuses_bad_fields_through_the_constructor_and_replace"
           "[Window-window bottom must be nonnegative]"),
    Mutant("rank-kind", "cohom.py", "if kind not in _KINDS:", "if False:",
           "a declared rank is of a gysin, restriction or residue map",
           "test_records.py"
           "::test_a_record_refuses_bad_fields_through_the_constructor_and_replace"
           "[RankFact-unknown map kind 'connecting']"),
    Mutant("rank-sign", "cohom.py", "if rank < 0:", "if False:",
           "a declared rank is nonnegative",
           "test_records.py"
           "::test_a_record_refuses_bad_fields_through_the_constructor_and_replace"
           "[RankFact-a rank cannot be negative]"),
    Mutant("les-codim", "cohom.py", "if codim < 1:", "if False:",
           "a Gysin sequence's codimension is positive",
           "test_records.py"
           "::test_a_record_refuses_bad_fields_through_the_constructor_and_replace"
           "[LesSystem-codimension must be positive]"),
    Mutant("outcome-ok", "cli/report.py", "if ok and (skipped or witness is not None):",
           "if False:", "a passed check is neither skipped nor carries a witness",
           "test_cli.py::TestStructuredOutput::test_schema_rejects_malformed_documents"),
    Mutant("outcome-witness", "cli/report.py", "if not ok and witness is None:", "if False:",
           "a failed or skipped check carries a witness",
           "test_cli.py::TestStructuredOutput::test_schema_rejects_malformed_documents"),
    Mutant("json-writer", "cli/report.py", '"witness": {_leaf(outcome.witness)}',
           '"witness": "{outcome.witness}"',
           "the structured report is the standard encoder's bytes for the report's"
           " reference document",
           "test_cli.py::TestStructuredOutput"
           "::test_json_writer_matches_the_standard_encoder_on_any_report"),
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
    """`killed (aimed)`, `killed (incidental) <test>` or `survived`, for the
    aimed test and then tier-1 on a copy of the checkout with mutant applied."""
    copy = workdir / mutant.name
    shutil.copytree(ROOT, copy, ignore=UNCOPIED)
    target = copy / "src" / "loopsing" / mutant.path
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")

    def tier_1(*tests: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run([*TIER_1, *tests], cwd=copy, env=env, capture_output=True, text=True)

    try:
        # Exit status 1 is a failed test; a stale id (4) or no test (5) falls through.
        if tier_1(f"tests/{mutant.aimed}").returncode == 1:
            return "killed (aimed)"
        result = tier_1()
    finally:
        shutil.rmtree(copy)
    if result.returncode == 0:
        return "survived"
    return f"killed (incidental) {first_failure(result.stdout)}"


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
