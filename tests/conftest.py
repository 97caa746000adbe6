"""Shared corpus of input functions, and the references and helpers the test modules import."""

from __future__ import annotations

import copy
import importlib.util
import itertools
import json
import signal
import sys
from bisect import bisect_left
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, assume, settings
from hypothesis import strategies as st

from loopsing import grobner, loopfun
from loopsing.cli import CHECK_NAMES, CheckOutcome, Report, parse_function
from loopsing.cli.parser import _Parser
from loopsing.cli.report import _cohomology_json
from loopsing.cohom import GysinTower, LesSolution, LesSystem
from loopsing.exactalg import LoopPoly, LoopVar, Monomial
from loopsing.loopfun import InputFunction, Window, minimal_window, support_window

# The mutation run (tests/mutants.py) needs only a verdict, pass or fail, so
# its profile finds failing examples as the default does but neither shrinks
# nor explains them.
settings.register_profile(
    "verdict", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)]
)


@dataclass(frozen=True)
class CorpusEntry:
    source: str
    d: int
    delta: int
    mu: int


# Homogeneous polynomials with isolated singularity at the origin; mu is the
# Milnor number (delta-1)^d.
CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("z^2", d=1, delta=2, mu=1),
    CorpusEntry("z^3", d=1, delta=3, mu=2),
    CorpusEntry("z^5", d=1, delta=5, mu=4),
    CorpusEntry("x^2 + y^2", d=2, delta=2, mu=1),
    CorpusEntry("x^3 + y^3", d=2, delta=3, mu=4),
    CorpusEntry("x^4 + y^4", d=2, delta=4, mu=9),
    CorpusEntry("x^2 + y^2 + w^2", d=3, delta=2, mu=1),
    CorpusEntry("x^3 + y^3 + w^3", d=3, delta=3, mu=8),
    # Forms that no linear change of coordinates takes to a Fermat form.
    # A smooth plane cubic of the Hesse pencil whose j-invariant is not 0,
    # the Fermat cubic's.
    CorpusEntry("x^3 + y^3 + w^3 + x*y*w", d=3, delta=3, mu=8),
    # The binary quartic x^4 + 6c*x^2*y^2 + y^4 at c = 1/2: its invariant
    # J = c - c^3 is 3/8, where x^4 + y^4 (c = 0) has J = 0.
    CorpusEntry("x^4 + 3*x^2*y^2 + y^4", d=2, delta=4, mu=9),
    # The Klein quartic: 168 automorphisms of the curve, the Fermat quartic 96.
    CorpusEntry("x^3*y + y^3*w + w^3*x", d=3, delta=4, mu=27),
)

# Homogeneous but with positive-dimensional singular locus.
NON_ISOLATED_SOURCES: tuple[str, ...] = (
    "x^2*y",
    "x^3*y + x^2*y^2",
    # Singular along the lines x = w = 0 and y = w = 0; not a product of
    # linear forms.
    "x^2*y^2 + w^4",
)

_FERMAT_NAMES = ("x", "y", "w")


def fermat_source(d: int, delta: int) -> str:
    if d == 1:
        return f"z^{delta}"
    return " + ".join(f"{name}^{delta}" for name in _FERMAT_NAMES[:d])


@st.composite
def homogeneous_forms(
    draw, max_d: int = 4, max_delta: int = 4
) -> dict[tuple[int, ...], int | Fraction]:
    """The terms of a form of degree 2..max_delta in 1..max_d coordinates, each
    of which occurs.  Coefficients are nonzero ints and Fractions of either
    sign; the first term printed, the smallest exponent vector, is as often
    negative as not."""
    d = draw(st.integers(1, max_d))
    delta = draw(st.integers(2, max_delta))
    vectors = [e for e in itertools.product(range(delta + 1), repeat=d) if sum(e) == delta]
    coefficients = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
    terms = draw(
        st.dictionaries(st.sampled_from(vectors), coefficients.filter(bool), min_size=1, max_size=8)
    )
    assume(all(map(any, zip(*terms))))
    lead = min(terms)
    terms[lead] = abs(terms[lead]) * draw(st.sampled_from((-1, 1)))
    return terms


def build(source: str) -> InputFunction:
    return parse_function(source)


def parse_polynomial(source: str) -> tuple[LoopPoly, tuple[str, ...]]:
    """The grammar alone: an expression's ambient polynomial, in the
    conformal-degree-0 variables, and coordinate names, without the checks
    parse_function makes."""
    terms, names = _Parser(source).parse()
    return _ambient(terms.items(), len(names)), names


def _ambient(terms, d: int) -> Poly:
    """Exponent-vector terms as a polynomial in z^1_0, ..., z^d_0, entry i
    being the exponent of z^(i+1)_0."""
    variables = [LoopVar(coord, 0) for coord in range(1, d + 1)]
    return Poly((Monomial(zip(variables, e)), c) for e, c in terms)


def ambient_poly(func: InputFunction) -> Poly:
    """F as a polynomial in z^1_0, ..., z^d_0: the tests' reference form of F,
    which the package holds as exponent-vector terms only."""
    return _ambient(func.terms.items(), func.d)


class Poly(LoopPoly):
    """The reference ring: LoopPoly with +, -, *, ** and partial for the tests.

    The package builds polynomials from their terms only; the tests compute
    expected values here, handing the checked constructor raw terms.  A
    LoopVar or a rational constant stands for its polynomial, and a
    LoopPoly of the package joins in through the reflected operators.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, value: Fraction | int) -> Poly:
        return cls({Monomial(): Fraction(value)})

    @classmethod
    def variable(cls, var: LoopVar) -> Poly:
        return cls({Monomial(((var, 1),)): 1})

    @classmethod
    def of(cls, value: LoopPoly | LoopVar | Fraction | int) -> Poly:
        """value as a Poly: a polynomial's terms, a variable, or a constant."""
        if isinstance(value, LoopPoly):
            return cls(value.terms)
        return cls.variable(value) if isinstance(value, LoopVar) else cls.constant(value)

    def __neg__(self) -> Poly:
        return Poly((m, -c) for m, c in self.terms)

    def __add__(self, other) -> Poly:
        return Poly(self.terms + Poly.of(other).terms)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        return self + -Poly.of(other)

    def __rsub__(self, other) -> Poly:
        return Poly.of(other) + -self

    def __mul__(self, other) -> Poly:
        pairs = Poly.of(other).terms
        return Poly(
            (Monomial(m.factors + n.factors), x * y) for m, x in self.terms for n, y in pairs
        )

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> Poly:
        if exp < 0:
            raise ValueError("negative powers are not defined")
        out = Poly.constant(1)
        for _ in range(exp):
            out = out * self
        return out

    def partial(self, var: LoopVar) -> Poly:
        """Formal partial derivative with respect to var."""
        terms = []
        for mono, coeff in self.terms:
            factors = mono.factors
            # Factors are sorted by variable, so a search finds var's slot;
            # most terms of a functional lack var and are skipped unbuilt.
            i = bisect_left(factors, (var,))
            if i == len(factors) or factors[i][0] != var:
                continue
            e = factors[i][1]
            terms.append((Monomial(factors[:i] + ((var, e - 1),) + factors[i + 1 :]), coeff * e))
        return Poly(terms)


def packed_vector(e: tuple[int, ...]) -> int:
    """Reference for grobner's packed exponent vectors, built field by field:
    from the top, deg, deg - e_i for i < d-1, then e_0 .. e_{d-1}, each
    grobner._FIELD bits wide; 0 for the vector of no entries."""
    degree = sum(e)
    v = degree
    for x in e[:-1]:
        v = (v << grobner._FIELD) | (degree - x)
    for x in e:
        v = (v << grobner._FIELD) | x
    return v


def unpacked_vector(v: int, d: int) -> tuple[int, ...]:
    """Reference: the d entry fields of a packed vector, one shift and mask each."""
    mask = (1 << grobner._FIELD) - 1
    return tuple((v >> (grobner._FIELD * i)) & mask for i in range(d - 1, -1, -1))


def input_function(poly: LoopPoly, names: Sequence[str] | None = None) -> InputFunction:
    """The InputFunction of an ambient LoopPoly, coordinate i being z^i_0.

    Raises ValueError for a variable of nonzero conformal degree.
    """
    d = max((v.coord for v in poly.variables()), default=0)
    return InputFunction(exponent_terms(poly, d), names)


def exponent_terms(poly: LoopPoly, d: int) -> dict[tuple[int, ...], Fraction]:
    """An ambient LoopPoly's terms as {exponent vector: coefficient}, entry i
    being the exponent of z^(i+1)_0, over d coordinates, in the polynomial's
    order.  Raises ValueError for a variable other than z^1_0, ..., z^d_0."""
    terms = {}
    for mono, coeff in poly.terms:
        e = [0] * d
        for v, x in mono.factors:
            if v.cdeg or v.coord > d:
                raise ValueError(f"an ambient polynomial on {d} coordinates has no variable {v}")
            e[v.coord - 1] = x
        terms[tuple(e)] = coeff
    return terms


def ideal_of(generators: Sequence[LoopPoly], d: int) -> grobner.Ideal:
    """The Ideal of ambient LoopPolys on z^1_0, ..., z^d_0, each given through exponent_terms."""
    return grobner.Ideal([exponent_terms(g, d) for g in generators], d)


def rename_variables(p: LoopPoly, rename: Callable[[LoopVar], LoopVar]) -> LoopPoly:
    """p with every variable v renamed rename(v); colliding images are merged."""
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms:
        m = Monomial(tuple((rename(v), e) for v, e in mono.factors))
        acc[m] = acc.get(m, Fraction(0)) + coeff
    return LoopPoly(acc)


def zero_out(poly: LoopPoly, doomed: Callable[[LoopVar], bool]) -> LoopPoly:
    """poly with every variable satisfying `doomed` set to zero; poly itself
    when no variable of it is doomed."""
    kept = [(m, c) for m, c in poly.terms if not any(doomed(v) for v, _ in m.factors)]
    return poly if len(kept) == len(poly.terms) else LoopPoly(kept)


def weight_set(poly: LoopPoly, weight_of: Callable[[LoopVar], int]) -> frozenset[int]:
    """The weights of poly's homogeneous components under a per-variable weight."""
    return frozenset(sum(weight_of(v) * e for v, e in m.factors) for m, _ in poly.terms)


def decoded_monomial(jet: loopfun._Jet, codes: tuple[int, ...]) -> Monomial:
    """The monomial of a jet's codes: code slot*m + (m - n) is the factor
    (z^c_j)^n with c = slot % d + 1 and j = slot // d - bottom."""
    m, d, bottom = jet.m, jet.d, jet.bottom
    return Monomial([
        (LoopVar(slot % d + 1, slot // d - bottom), m - rest)
        for slot, rest in (divmod(code, m) for code in codes)
    ])


def decoded(jet: loopfun._Jet) -> Poly:
    """A jet's rows as a Poly."""
    return Poly((decoded_monomial(jet, codes), c) for _, codes, c in jet.rows)


def jet_coefficient(func: InputFunction, window: Window, k: int) -> Poly:
    """The t^k coefficient of F(z^1(t), ..., z^d(t)) on the window, decoded
    from the jet kernel's codes."""
    return decoded(loopfun._jet_of_poly(func.terms, window, k))


# Bound at import: a test that forges `loopfun._functional_jet` from
# lambda_of must not have lambda_of call the forgery.
_functional_jet = loopfun._functional_jet


def lambda_of(func: InputFunction, window: Window) -> Poly:
    """The loop functional of F on a window, the constant-in-t coefficient,
    its weights audited, decoded from the jet kernel's codes."""
    return decoded(_functional_jet(func, window))


def jet_coefficient_by_enumeration(func: InputFunction, window: Window, k: int) -> LoopPoly:
    """Reference for jet_coefficient: the t^k coefficient by brute force.

    Enumerates every assignment of window indices to the factor slots of every
    monomial, with no pruning and no shared code with the convolution route.
    Feasible only for small degree/window combinations.
    """
    indices = range(-window.bottom, window.top + 1)
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in ambient_poly(func).terms:
        slots = [v.coord for v, e in mono.factors for _ in range(e)]
        for assignment in itertools.product(indices, repeat=len(slots)):
            if sum(assignment) != k:
                continue
            m = Monomial(tuple((LoopVar(c, j), 1) for c, j in zip(slots, assignment)))
            acc[m] = acc.get(m, Fraction(0)) + coeff
    return LoopPoly(acc)


def coded(poly: LoopPoly, func: InputFunction, bottom: int) -> loopfun._Jet:
    """A functional given as a LoopPoly, in the codes of F's jets at window
    bottom `bottom`; a test forges the functional that run() or a check's
    private reading reads by editing a LoopPoly and coding it here.

    m exceeds delta and the degree of every term, so that F's partials
    share the codes.  A variable beyond F's d coordinates raises ValueError.
    """
    d = func.d
    m = max([func.delta] + [mono.key[0] for mono, _ in poly.terms]) + 1
    rows = []
    for mono, coeff in poly.terms:
        codes = []
        for (cdeg, coord), e in mono.factors:
            if coord > d:
                raise ValueError(
                    f"the functional's variable z{coord}_{cdeg} lies beyond F's {d} coordinates"
                )
            codes.append(((cdeg + bottom) * d + coord - 1) * m + m - e)
        rows.append((mono.key[0], tuple(codes), coeff))
    return loopfun._Jet(rows, m, d, bottom)


def ranks_into_steps(tower: GysinTower) -> tuple[Mapping[int, int], ...]:
    """Entry n-1: the nonzero ranks of the Gysin map into truncation n, as `_step` reads them."""
    return tuple(tower._step(n)[2] for n in range(1, tower.n_max + 1))


def alternating_sums(solution: LesSolution, system: LesSystem) -> tuple[int, ...]:
    """Reference: the alternating dimension sum of each segment of a solved
    sequence, which exactness makes 0."""
    column = {"A": system.a, "B": solution.b, "C": system.c_dims}
    return tuple(
        sum((-1) ** position * column[slot].dim(degree)
            for position, (slot, degree) in enumerate(segment))
        for segment in solution.segments
    )


def top_exponent(mono: Monomial, top: int) -> int:
    """Reference: mono's total exponent in the variables of conformal degree `top`, by a scan."""
    return sum(e for v, e in mono.factors if v.cdeg == top)


def reference_functional_checks(
    func: InputFunction,
    bottom: int,
    names: Sequence[str],
    edit: Callable[[LoopPoly], LoopPoly] | None = None,
) -> tuple[int | None, str | None, dict[str, CheckOutcome]]:
    """What run() reports for the functional checks `names`, computed on LoopPolys.

    Returns (lambda_term_count, lambda_polynomial, outcomes).  The functional
    comes from lambda_of, on the support window when that check
    runs, then passes through `edit` if one is given, and every check reads
    it by scans: truncation and the constant-loop restriction by zero_out,
    the derivative identity by Poly.partial against the decoded
    t-coefficient jet and a substitution.
    """
    window = minimal_window(func, bottom)
    top = window.top
    try:
        wide = lambda_of(func, support_window(func, bottom) if "support" in names else window)
    except RuntimeError as exc:
        return None, None, {name: CheckOutcome(ok=False, witness=str(exc)) for name in names}
    if edit is not None:
        wide = edit(wide)
    lam = zero_out(wide, lambda v: v.cdeg > top)
    outcomes = {}
    for name in names:
        if name == "lambda":
            ok = zero_out(lam, lambda v: v.cdeg != 0) == ambient_poly(func)
            witness = "constant-loop restriction does not recover the input"
        elif name == "support":
            present = max(v.cdeg for v in wide.variables())
            ok = present <= top
            witness = f"conformal degree {present} exceeds bound {top}"
        elif name == "linearity":
            offending = [m for m, _ in lam.terms if top_exponent(m, top) > 1]
            ok = not offending
            witness = "nonlinear monomial " + ", ".join(map(str, offending))
        else:
            at_bottom = {
                LoopVar(i, 0): Poly.variable(LoopVar(i, -bottom)) for i in range(1, func.d + 1)
            }
            bad = []
            for j, d_j in enumerate(func.partials, 1):
                lhs = Poly.of(lam).partial(LoopVar(j, top))
                via_coeff = decoded(loopfun._jet_of_poly(d_j, window, -top))
                via_eval = substitute(ambient_poly(func).partial(LoopVar(j, 0)), at_bottom)
                if not lhs == via_coeff == via_eval:
                    bad.append(j)
            ok = not bad
            witness = f"identity fails for coordinates {bad}"
        outcomes[name] = CheckOutcome(ok=True) if ok else CheckOutcome(ok=False, witness=witness)
    return len(lam), lam.to_string(func.names), outcomes


def reference_document(report: Report) -> dict[str, object]:
    """Reference for Report.to_json: the document's members built as dicts,
    in schema order, for the standard encoder to write.  The cohomology
    section is the one part parsed back from its writer, `_cohomology_json`;
    tests/test_tower_record.py holds that writer to writers of its own."""
    checks: dict[str, dict[str, object]] = {}
    for name in CHECK_NAMES:
        if name in report.checks:
            outcome = report.checks[name]
            entry = checks[name] = {"ok": outcome.ok}
            if outcome.witness is not None:
                entry["witness"] = outcome.witness
            if outcome.skipped:
                entry["skipped"] = True

    lam = None
    if report.lambda_term_count is not None:
        lam = {"term_count": report.lambda_term_count}
        if report.lambda_polynomial is not None:
            lam["polynomial"] = report.lambda_polynomial

    return {
        "function": report.function,
        "d": report.d,
        "delta": report.delta,
        "window": {"bottom": report.window.bottom, "top": report.window.top},
        "milnor_number": report.milnor_number,
        "isolated": report.isolated,
        "lambda": lam,
        "checks": checks,
        "cohomology": report.cohomology and json.loads(_cohomology_json(report.cohomology)),
        "axioms": list(report.axioms),
        "timing": {"seconds": report.timing_seconds},
    }


class MissingAssignment(KeyError):
    """A substitution did not cover some variable of the polynomial."""


def substitute(poly: LoopPoly, assignment: Mapping[LoopVar, LoopPoly]) -> Poly:
    """Simultaneous substitution, fully expanded.

    The assignment must cover every variable occurring in the polynomial;
    an uncovered variable raises MissingAssignment.
    """
    out = Poly()
    for mono, coeff in poly.terms:
        prod = Poly.constant(coeff)
        for var, exp in mono.factors:
            if var not in assignment:
                raise MissingAssignment(var)
            prod = prod * Poly.of(assignment[var]) ** exp
        out = out + prod
    return out


@pytest.fixture(params=CORPUS, ids=lambda entry: entry.source)
def corpus_entry(request) -> CorpusEntry:
    return request.param


@pytest.fixture
def corpus_function(corpus_entry) -> InputFunction:
    return build(corpus_entry.source)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError inside the block once `seconds` have passed.

    Guards tests of inputs that used to run without bound; it relies on
    SIGALRM, so it works in the main thread of a Unix process.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


DELETE = object()


def edited(document, path, value):
    """A deep copy of `document` with the entry at `path` set to `value`.

    The last step of `path` may be a key, an index or a slice; `value` DELETE
    removes the entry.
    """
    document = copy.deepcopy(document)
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return document


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """The benchmark module bench/<name>.py, loaded once as `bench_<name>`.

    It is registered in sys.modules, where a dataclass looks its module up,
    and runs with bench/ on the import path, so that it imports its siblings
    by name as it does in the benchmark.
    """
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        sys.path.insert(0, str(BENCH))
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[key]
            raise
        finally:
            sys.path.remove(str(BENCH))
    return sys.modules[key]
