"""Graded-dimension bookkeeping for Gysin long exact sequences.

The long exact sequence of a codimension-c closed embedding with open
complement U repeats the three-term pattern

    ... -> A^{s-2c} -> B^s -> C^s -> A^{s-2c+1} -> ...

where A and C are known graded dimension vectors and B is solved for by
exactness.  The unknown B entries cut the sequence into links, C^s and
A^{s-2c+1} with the three maps around them, and exactness leaves each link
one free rank, fixed by a zero entry or a declared fact.  Only the links with
a nonzero entry or a fact are visited; every other B sits between two zero
entries and vanishes.  Declared ranks of specific maps
(notably the residue map onto the unit class) enter as tagged facts and are
surfaced in every report; they are inputs, not computations.

On top of the solver sits gysin_tower, the tower of truncation cohomologies of
the nearby fiber of a loop functional, certified from a few base steps and two
blocks that every later Gysin sequence splits into: a constant number of
solves, each checked against the shift rule, with the concentration of the
reduced cohomology audited on the way.  Its record stores those base steps
only; every later step is derived from the last of them on access.  The
truncation table, the degrees showing reduced classes running off to
infinity, and the renormalized colimit along Gysin maps are all read from
that one record, the colimit without a walk over the steps or the degrees.

Every graded dimension vector (A, B and C columns, truncations, the stable
outcome) is a GradedDims: the tuple of its nonzero (degree, dimension) pairs
in increasing degree.  Everything is a pure function over such small
immutable values and the records built from them; concurrent invocation is
safe, there is no shared state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

__all__ = [
    "GradedDims",
    "RankFact",
    "LesSystem",
    "LesSolution",
    "Underdetermined",
    "Inconsistent",
    "NotStabilized",
    "RESIDUE_FULL_RANK_AXIOM",
    "residue_onto_unit_fact",
    "solve_les_detailed",
    "milnor_fiber_cohomology",
    "sphere_cohomology",
    "gysin_tower",
    "GysinTower",
    "RenormalizedReport",
    "declared_support_floor",
]

# Bound on the height of the tower a report or its validation builds.  Its Gysin
# solves are a fixed few and its record stores only the steps solved directly,
# but the colimit's stabilization map and the report's rows grow with the height.
MAX_N_MAX = 200

RESIDUE_FULL_RANK_AXIOM = (
    "Declared axiom: the residue map of the Gysin sequence has full rank at "
    "the odd sphere class in degree 2d-1 (the dlog class of the covering "
    "charts has nonvanishing residue); taken as an input, not verified "
    "symbolically."
)


class Inconsistent(ValueError):
    """No dimension vector satisfies exactness with the declared ranks."""


class NotStabilized(RuntimeError):
    """A tracked degree still moving at the last step: a bug, unreachable on a
    tower from gysin_tower at any n_max >= 2.  Past n0 only the unit class
    moves, and it leaves the lowest tracked degree at step n_max - 2."""


class GradedDims(tuple):
    """Finite-support map from integer degree to a nonnegative dimension.

    A GradedDims is the tuple of its nonzero (degree, dimension) pairs in
    increasing degree; degrees may be negative.  The constructor takes a
    mapping or an iterable of pairs of ints, merges repeated degrees and drops
    zeros.  Being a tuple, a GradedDims is immutable, hashes, and compares
    equal to the plain tuple of its pairs.  `+` with a mapping or pairs on
    either side is the degreewise sum, and `*` is refused.
    """

    __slots__ = ()

    def __new__(cls, dims: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> GradedDims:
        store: dict[int, int] = {}
        # A tuple, list or dict is told apart without the Mapping check, a
        # Python-level call that every other argument pays.
        pairs = dims if isinstance(dims, (tuple, list)) else (
            dims.items() if isinstance(dims, (dict, Mapping)) else dims
        )
        for degree, dim in pairs:
            if type(degree) is not int or type(dim) is not int:
                raise TypeError("degrees and dimensions must be ints")
            if dim < 0:
                raise ValueError(f"negative dimension {dim} in degree {degree}")
            if dim:
                store[degree] = store.get(degree, 0) + dim
        return tuple.__new__(cls, sorted(store.items()))

    def dim(self, degree: int) -> int:
        for deg, dim in self:
            if deg == degree:
                return dim
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple([degree for degree, _ in self])

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    def shifted(self, offset: int) -> GradedDims:
        return GradedDims([(degree + offset, dim) for degree, dim in self])

    def __add__(self, other: Mapping[int, int] | Iterable[tuple[int, int]]) -> GradedDims:
        """The degreewise sum with a mapping or pairs, not the tuples' concatenation."""
        pairs = other.items() if isinstance(other, (dict, Mapping)) else other
        return GradedDims([*self, *pairs])

    __radd__ = __add__

    def __mul__(self, other: object) -> GradedDims:
        """Refused: a tuple's repetition is no operation on dimensions."""
        raise TypeError("a GradedDims cannot be repeated; use + for the degreewise sum")

    __rmul__ = __mul__

    def with_unit(self) -> GradedDims:
        """Add the one-dimensional unit class in degree 0."""
        return GradedDims([(0, 1), *self])

    def drop_unit(self) -> GradedDims:
        """Remove one dimension in degree 0 (pass to reduced cohomology)."""
        unit = self.dim(0)
        if unit < 1:
            raise ValueError("no unit class in degree 0 to drop")
        return GradedDims([(degree, dim - 1 if degree == 0 else dim) for degree, dim in self])

    def __str__(self) -> str:
        return "{" + ", ".join(f"{degree}: {dim}" for degree, dim in self) + "}"

    def __repr__(self) -> str:
        return f"GradedDims({self})"


_KINDS = ("gysin", "restriction", "residue")


class RankFact(namedtuple("RankFact", "kind degree rank justification")):
    """Declared rank of one connecting map of the sequence at one degree.

    kind is 'gysin' (A^{s-2c} -> B^s), 'restriction' (B^s -> C^s) or
    'residue' (C^s -> A^{s-2c+1}); degree is the pattern position s.  Every
    fact carries the justification it rests on, which reports surface
    verbatim.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, kind: str, degree: int, rank: int, justification: str) -> RankFact:
        if kind not in _KINDS:
            raise ValueError(f"unknown map kind {kind!r}")
        if rank < 0:
            raise ValueError("a rank cannot be negative")
        return super().__new__(cls, kind, degree, rank, justification)


class LesSystem(namedtuple("LesSystem", "codim a c_dims rank_facts")):
    """A Gysin long exact sequence with B unknown.

    codim is the codimension c of the closed embedding; a holds the known
    dimensions of the A-column, c_dims those of the open complement C.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, codim: int, a: GradedDims, c_dims: GradedDims, rank_facts: tuple[RankFact, ...] = ()
    ) -> LesSystem:
        if codim < 1:
            raise ValueError("codimension must be positive")
        return super().__new__(cls, codim, a, c_dims, rank_facts)


class Underdetermined(namedtuple("Underdetermined", "degrees")):
    """The declared ranks do not pin B down; lists the ambiguous degrees."""

    __slots__ = ()


class LesSolution(namedtuple("LesSolution", "b ranks segments axioms", defaults=((),))):
    """A solved sequence: its B-column and how the sequence splits.

    ranks holds the nonzero ranks only, keyed by (kind, degree) as in
    RankFact; segments are the runs of nonzero entries between zero ones.
    """

    __slots__ = ()


def solve_les_detailed(system: LesSystem) -> LesSolution | Underdetermined:
    """Solve the sequence for B by exactness, link by link; keep ranks and segments.

    The unknown B entries cut the sequence into links: link s is the two
    known entries C^s and A^(s-2c+1) between B^s and B^(s+1), with the maps
    B^s -> C^s -> A^(s-2c+1) -> B^(s+1).  Exactness at C^s and at the A entry
    leaves each link one free rank r, the residue's: the restriction has rank
    dim C^s - r and the next Gysin map dim A - r.  A zero entry fixes r at 0,
    and a declared fact fixes r at the value its rank forces; a link with two
    nonzero entries and no fact leaves B^s and B^(s+1) ambiguous.  Exactness
    at B^s then makes its dimension the sum of the ranks into and out of it,
    from links s-1 and s.  Only the links with a nonzero entry or a fact are
    visited (`_links`); every other map has rank 0, so the work does not grow
    with the gaps between degrees.  Returns the solution, whose `b` is the
    middle column, or Underdetermined with the ambiguous degrees.  A fixed r
    outside 0..min(dim C^s, dim A), or two facts fixing different r on one
    link, raise Inconsistent.

    Each segment's alternating sum of dimensions is 0 by construction, so no
    audit repeats it: every entry's dimension is the sum of the ranks of the
    maps in and out of it, so the sum telescopes to the ranks of the maps at
    the segment's two ends, both 0, being maps from or to a zero entry.
    """
    c2 = 2 * system.codim
    a, c = dict(system.a), dict(system.c_dims)
    fixed: dict[int, int] = {}  # link -> residue rank, from the facts
    for fact in system.rank_facts:
        if fact.kind == "gysin":
            s, r = fact.degree - 1, a.get(fact.degree - c2, 0) - fact.rank
        else:
            s = fact.degree
            r = fact.rank if fact.kind == "residue" else c.get(s, 0) - fact.rank
        if fixed.setdefault(s, r) != r:
            raise Inconsistent(
                f"the facts on link C^{s} -> A^{s - c2 + 1} force residue ranks {fixed[s]} and {r}"
            )
    b: dict[int, int] = {}  # the nonzero B entries
    ranks: dict[tuple[str, int], int] = {}  # the nonzero ranks, in sequence order
    unknown: list[int] = []
    for s in _links(system):
        into_c, into_a = c.get(s, 0), a.get(s - c2 + 1, 0)
        r = fixed.get(s)
        if r is None:
            if into_c and into_a:
                unknown += [s, s + 1]
                continue
            r = 0
        if not 0 <= r <= min(into_c, into_a):
            raise Inconsistent(
                f"exactness fails on link C^{s} -> A^{s - c2 + 1}: residue rank {r}"
                f" outside 0..{min(into_c, into_a)}"
            )
        # Link s + 1 has not been visited, so B^(s+1) has no rank into it yet.
        if into_c - r:
            ranks["restriction", s] = into_c - r
            b[s] = b.get(s, 0) + into_c - r
        if r:
            ranks["residue", s] = r
        if into_a - r:
            ranks["gysin", s + 1] = b[s + 1] = into_a - r
    if unknown:
        return Underdetermined(degrees=tuple(sorted(set(unknown))))

    # Node 3s + slot is slot A, B or C of pattern degree s; a segment is a run
    # of consecutive nonzero nodes.
    nodes = sorted(
        [(3 * (degree + c2), ("A", degree)) for degree in a]
        + [(3 * s + 1, ("B", s)) for s in b]
        + [(3 * s + 2, ("C", s)) for s in c]
    )
    segments: list[list[tuple[str, int]]] = []
    last = None
    for t, name in nodes:
        if t - 1 != last:
            segments.append([])
        segments[-1].append(name)
        last = t
    return LesSolution(
        b=GradedDims(b),
        ranks=ranks,
        segments=tuple(map(tuple, segments)),
        axioms=_axioms(system),
    )


def _links(system: LesSystem) -> list[int]:
    """The links of the sequence with a nonzero entry or a declared fact, in
    increasing order.  Link s is C^s -> A^(s-2c+1) between B^s and B^(s+1); a
    Gysin fact at degree s declares the last map of link s - 1."""
    c2 = 2 * system.codim
    return sorted({
        *system.c_dims.support,
        *(degree + c2 - 1 for degree in system.a.support),
        *(fact.degree - (fact.kind == "gysin") for fact in system.rank_facts),
    })


def _axioms(system: LesSystem) -> tuple[str, ...]:
    return tuple(sorted({fact.justification for fact in system.rank_facts}))


def milnor_fiber_cohomology(d: int, mu: int) -> GradedDims:
    """Cohomology of the Milnor fiber of a homogeneous isolated singularity.

    A wedge of mu spheres of dimension d-1 up to homotopy: one unit class plus
    mu classes in degree d-1 (for d = 1 both land in degree 0: mu+1 points).
    """
    if d < 1 or mu < 1:
        raise ValueError("need d >= 1 and mu >= 1")
    return GradedDims([(0, 1), (d - 1, mu)])


def sphere_cohomology(d: int) -> GradedDims:
    """Cohomology of the complement A^d minus the origin, a (2d-1)-sphere."""
    if d < 1:
        raise ValueError("need d >= 1")
    return GradedDims({0: 1, 2 * d - 1: 1})


def residue_onto_unit_fact(d: int, full_a: GradedDims) -> RankFact:
    """The declared full-rank residue fact at the sphere class degree 2d-1.

    Why the fact holds.  At rung b, let X_b = {Lambda = 1} be truncation b,
    Z its closed piece where z_-b = 0, U = X_b minus Z the open one, and
    pi = z_-b: X_b -> A^d, the bottom coefficients of the loop.

    - Lambda is homogeneous of degree delta in the window's variables, so
      Euler's identity gives sum_v v * dLambda/dv = delta * Lambda = delta on
      X_b.  On Z every z_-b coordinate vanishes, so the vector field
      sum_v v * d/dv over the other variables pairs with dLambda to delta,
      not 0, while every dz^i_-b annihilates it: dLambda is not in the span
      of the dz^i_-b.  Hence the dz^i_-b stay independent on the tangent
      space ker dLambda, pi is a submersion along Z, and Z = pi^-1(0) is a
      submanifold of complex codimension d whose normal bundle pi's
      coordinates trivialize.
    - Off Z, U -> A^d minus 0 is an affine bundle: Lambda is linear in the top
      coefficient z_N, whose coefficient is a partial of F at z_-b, not all
      zero off the origin since F is isolated.  So pi is a homotopy
      equivalence on U, and pi^* sigma generates H^(2d-1)(U), where sigma
      generates H^(2d-1)(A^d minus 0), the C column of the sequence.
    - The residue H^(2d-1)(U) -> H^0(Z) of the Gysin sequence reads a class
      on the sphere bundle of Z's tubular neighbourhood, through the Thom
      isomorphism.  pi maps each normal sphere onto a sphere about 0 with
      degree 1, since it trivializes the normal bundle, so pi^* sigma goes to
      the Thom class's unit: 1 in H^0(Z).  H^0(Z) is the A column in degree
      0, nonzero exactly when Z is non-empty, so the residue has rank
      1 = min(1, dim A^0) at the sphere class.

    See Bott and Tu 1982, section 6, for the Thom isomorphism, the tubular
    neighbourhood and the Gysin sequence.  The premises are Euler's identity,
    which needs every term of Lambda to have degree delta, and the affine
    bundle, which needs top linearity and the derivative identity at rung b;
    the code checks them at the window bottom only, so the fact stays
    declared, with its justification text unchanged in every report.
    """
    return RankFact(
        kind="residue",
        degree=2 * d - 1,
        rank=min(1, full_a.dim(0)),
        justification=RESIDUE_FULL_RANK_AXIOM,
    )


def _gysin_system(full_a: GradedDims, d: int) -> LesSystem:
    return LesSystem(
        codim=d,
        a=full_a,
        c_dims=sphere_cohomology(d),
        rank_facts=(residue_onto_unit_fact(d, full_a),),
    )


def _checked_solution(system: LesSystem, expected: GradedDims) -> LesSolution:
    """Solve one Gysin sequence and check its B-column against the shift rule."""
    solution = solve_les_detailed(system)
    if isinstance(solution, Underdetermined):
        raise RuntimeError(
            f"gysin system unexpectedly underdetermined at degrees {solution.degrees}"
        )
    if solution.b != expected:
        raise RuntimeError(
            f"gysin shift rule disagrees with the solver: {solution.b} != {expected}"
        )
    return solution


def _concentration_degree(full: GradedDims, n: int) -> int:
    support = full.drop_unit().support
    if len(support) != 1:
        raise RuntimeError(f"reduced cohomology not concentrated at step {n}")
    return support[0]


class GysinTower(namedtuple(
    "GysinTower", "d mu head_truncations head_degrees head_ranks axioms n0 n_max"
)):
    """The truncation tower up to n_max, certified from the Milnor fiber.

    The record stores the steps gysin_tower solves directly, 0..min(n0,
    n_max): head_truncations holds the full cohomology of each truncation,
    head_degrees the single degree carrying its reduced cohomology, as the
    concentration audit found it, and head_ranks[n-1] only the nonzero ranks
    of the Gysin map into truncation n, keyed by their target degree; axioms
    are the declared facts the solved sequences rest on.  A step past n0 is
    not stored: it is step n0 with the mu block moved up by 2d per step, as
    the blocks certify.  `truncations` and `degrees` build every step
    0..n_max on access; `_step(n)` gives one, with the Gysin ranks into it.

    Truncation n's reduced cohomology is mu classes concentrated in the single
    degree 2nd + d - 1, so it runs off to infinity as n grows.
    """

    __slots__ = ()

    def _step(self, n: int) -> tuple[GradedDims, int, Mapping[int, int]]:
        """Truncation n, its reduced degree and the nonzero Gysin ranks into it
        (none into step 0), for 0 <= n <= n_max.

        Past n0 the step is derived from step n0: the unit block's B-column is
        the unit class alone, so every Gysin rank and the reduced classes lie
        in the mu block, which moves up by 2d per step.  The audits found step
        n0 to be the unit class beside its reduced classes, all in its degree.
        """
        if n < len(self.head_truncations):
            ranks = self.head_ranks[n - 1] if n else {}
            return self.head_truncations[n], self.head_degrees[n], ranks
        n0 = self.n0
        offset, degree = 2 * self.d * (n - n0), self.head_degrees[n0]
        return (
            GradedDims({0: 1, degree + offset: self.head_truncations[n0].dim(degree)}),
            degree + offset,
            {s + offset: r for s, r in self.head_ranks[n0 - 1].items()},
        )

    def _later_steps(self) -> tuple[int, list[tuple[int, int]]]:
        """The mu block's dimension, and each step past the stored head with
        its reduced degree, for `degrees` and the structured report's writer,
        which prints those steps' rows without building their truncations:
        each is the unit class in degree 0 beside that block in that degree,
        as in `_step`."""
        last = len(self.head_degrees) - 1  # step n0 whenever a later step exists
        dims, degree, _ = self._step(last)
        return dims.dim(degree), [
            (n, degree + 2 * self.d * (n - last)) for n in range(last + 1, self.n_max + 1)
        ]

    @property
    def truncations(self) -> tuple[GradedDims, ...]:
        return tuple(self._step(n)[0] for n in range(self.n_max + 1))

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.head_degrees + tuple(degree for _, degree in self._later_steps()[1])

    def renormalized(self) -> RenormalizedReport:
        """Colimit of the truncation cohomologies along the Gysin maps, degree-shifted.

        The contribution of step n to renormalized degree s is its cohomology in
        degree s + 2*delta(n), with delta(n) = n*d, the one renormalizing shift,
        which vanishes at step 0; a degree has stabilized once the Gysin maps are
        isomorphisms there from some step onward.  The stable reduced outcome is
        mu in degree d-1; transient classes (the unit, any class at negative
        degrees) die through the residue and are reported as stabilized zeros.
        Any other shift delta(n) = k + n*d only reindexes degrees s -> s - 2k:
        its stable outcome is `.stable.shifted(-2 * k)`.

        Raises NotStabilized if a tracked degree has not settled by n_max: a bug.
        """
        d, n_max, n0 = self.d, self.n_max, self.n0
        if n_max < 2:
            raise ValueError("need n_max >= 2")
        # The reduced degree climbs by 2d per stored step, as every later one does.
        degrees = self.head_degrees
        for n in range(1, len(degrees)):
            if degrees[n] != degrees[n - 1] + 2 * d:
                raise RuntimeError(
                    f"reduced cohomology in degree {degrees[n]} at step {n},"
                    f" not moved up by 2d = {2 * d} from step {n - 1}"
                )

        head = min(n_max, n0 + 1)
        # Steps 0..head; ranks[n] belongs to the map from step n to step n+1.
        fulls, _, into = zip(*map(self._step, range(head + 1)))
        ranks = into[1:]

        # Step n contributes its degree s + 2*delta(n) = s + 2*n*d.
        def value(s: int, n: int) -> int:
            m = s + 2 * n * d
            return fulls[n].dim(m) if m >= 0 else 0

        def is_iso(s: int, n: int) -> bool:
            m = s + 2 * (n + 1) * d
            rank = ranks[n].get(m, 0) if m >= 2 * d else 0
            return value(s, n) == value(s, n + 1) == rank

        # The Gysin map at step n can fail to be an isomorphism in degree s
        # only where truncation n or n+1 carries a class there or the map has
        # nonzero rank there.  Scanning the steps up to n0 backward, the first
        # failure seen in a degree is its last one among them.
        last_failure: dict[int, int] = {}
        for n in reversed(range(head)):
            here, there = 2 * n * d, 2 * (n + 1) * d
            candidates = {m - here for m in fulls[n].support}
            candidates.update(m - there for m in fulls[n + 1].support)
            candidates.update(m - there for m in ranks[n])
            for s in candidates:
                if s not in last_failure and not is_iso(s, n):
                    last_failure[s] = n
        # Each later map is map n0 with the mu block moved up by 2d, as fast as
        # 2*delta(n): its failures away from the unit class recur.
        for s, n in last_failure.items():
            if n == n0 and s not in (-2 * d * n0, -2 * d * head):
                last_failure[s] = n_max - 1

        # A degree where no map up to n0 fails and the unit class does not pass
        # is stable from step 0 on, holding what truncation 0 holds there.
        low, high = -2 * d * (n_max - 2), 3 * d
        steps = dict.fromkeys(range(low, high + 1), 0)
        stable = {m: dim for m, dim in fulls[0].items() if 0 <= m <= high}
        # Past n0 the unit class leaves degree -2dk at map k, for
        # head <= k <= n_max - 2, so that degree is stable from step k + 1.
        # Truncation head has no class there for k > head, so only k = head
        # and the head failures need their dimension read.
        unit = -2 * d * head
        steps.update(zip(range(low, unit + 1, 2 * d), range(n_max - 1, head, -1)))
        special = {s for s in last_failure if low <= s <= high}
        if unit >= low:
            special.add(unit)
        for s in sorted(special):
            k, r = divmod(-s, 2 * d)
            first = max(last_failure.get(s, -1), k if r == 0 and k >= head else -1) + 1
            if first == n_max:
                raise NotStabilized(
                    f"renormalized degree {s} not stable by step {n_max}: "
                    "the tower is below its certified height"
                )
            steps[s] = first
            # Past step `head` a degree holds what it held there, the unit aside.
            dim = value(s, first) if first <= head else value(s, head) - (k == head)
            if dim:
                stable[s] = dim
            else:
                stable.pop(s, None)

        outcome = GradedDims(stable)
        expected = GradedDims({d - 1: self.mu})
        if outcome != expected:
            raise RuntimeError(
                f"stable renormalized cohomology {outcome} != expected {expected}"
            )
        return RenormalizedReport(stable=outcome, stabilization_step=steps, tower=self)


def gysin_tower(d: int, mu: int, n_max: int) -> GysinTower:
    """Solve the truncation tower up to n_max from the Milnor fiber, certified.

    Step n's Gysin sequence is a fixed unit block (A^0, C^0, C^(2d-1), the
    residue fact) beside a mu block A^m, m = 2(n-1)d + d - 1.  The steps up to
    n0, the first whose mu block's links all lie above the unit block's (2
    for d = 1, else 1), are solved directly and audited for the shift rule
    (reduced cohomology moves up by 2d) and concentration in one degree.  The
    unit block and the step-n0 mu block are solved once, against the shift
    rule, and their union must equal the step-n0 solve.  The gap only grows,
    and the solver solves each link on its own (locality) and a translated
    system to the translated solution (translation equivariance), so each
    later step is step n0 with the mu block moved up: n0 + 2 solves in all.
    The record stores the directly solved steps and derives the later ones.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    base = milnor_fiber_cohomology(d, mu)
    reduced = base.drop_unit()
    unit, empty = GradedDims({0: 1}), GradedDims()
    unit_block = _gysin_system(unit, d)
    # Each step moves the mu block's links up by 2d.
    gap = _links(LesSystem(d, reduced, empty))[0] - _links(unit_block)[-1]
    n0 = 1 + max(0, -((gap - 1) // (2 * d)))
    truncations = [base]
    degrees = [_concentration_degree(base, 0)]
    head_ranks: list[dict[int, int]] = []
    axioms: set[str] = set()
    moved = reduced
    for n in range(1, min(n0, n_max) + 1):
        # Step n's mu block is step n-1's reduced cohomology, which the shift
        # rule moves up by 2d.
        step, moved = moved, moved.shifted(2 * d)
        solution = _checked_solution(_gysin_system(step.with_unit(), d), moved.with_unit())
        truncations.append(solution.b)
        degrees.append(_concentration_degree(solution.b, n))
        head_ranks.append(
            {degree: rank for (kind, degree), rank in solution.ranks.items() if kind == "gysin"}
        )
        axioms.update(solution.axioms)
    if n_max >= n0:
        # `step` and `solution` are the mu block and the direct solve of step n0.
        unit_solution = _checked_solution(unit_block, unit)
        block = _checked_solution(LesSystem(d, step, empty), moved)
        if solution != LesSolution(
            unit_solution.b + block.b, {**unit_solution.ranks, **block.ranks},
            unit_solution.segments + block.segments,
            tuple(sorted({*unit_solution.axioms, *block.axioms})),
        ):
            raise RuntimeError(f"the unit and mu blocks do not split the sequence at step {n0}")
    return GysinTower(
        d=d, mu=mu, head_truncations=tuple(truncations), head_degrees=tuple(degrees),
        head_ranks=tuple(head_ranks), axioms=tuple(sorted(axioms)), n0=n0, n_max=n_max,
    )


def declared_support_floor(d: int, n: int) -> int:
    """Declared floor 2(n+1)d - 1 for reduced-cohomology support of step n.

    Recorded in reports next to the computed concentration degree 2nd + d - 1,
    which sits exactly d below this floor; the discrepancy is documented, not
    resolved, and nothing downstream relies on the floor.
    """
    return 2 * (n + 1) * d - 1


class RenormalizedReport(namedtuple("RenormalizedReport", "stable stabilization_step tower")):
    """The renormalized colimit together with the tower it was read from."""

    __slots__ = ()

    @property
    def axioms(self) -> tuple[str, ...]:
        return self.tower.axioms
