"""Graded-dimension bookkeeping for Gysin long exact sequences.

The long exact sequence of a codimension-c closed embedding with open
complement U repeats the three-term pattern

    ... -> A^{s-2c} -> B^s -> C^s -> A^{s-2c+1} -> ...

where A and C are known graded dimension vectors and B is solved for by rank
propagation through the segments bounded by zero entries.  Only the nodes next
to a nonzero A or C entry or to a declared fact are built; every other B sits
between two zero entries and vanishes.  Declared ranks of specific maps
(notably the residue map onto the unit class) enter as tagged facts and are
surfaced in every report; they are inputs, not computations.

On top of the solver sits gysin_tower, the tower of truncation cohomologies of
the nearby fiber of a loop functional, certified from a few base steps and two
blocks that every later Gysin sequence splits into: a constant number of
solves, each checked against the shift rule, with the concentration of the
reduced cohomology audited on the way.  The truncation table, the escape
bookkeeping showing reduced classes running off to infinity, and the
renormalized colimit along Gysin maps are all read from that one record.

Everything is a pure function over small immutable values; concurrent
invocation is safe, there is no shared state.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

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
    "gysin_step",
    "gysin_tower",
    "GysinTower",
    "truncation_cohomology",
    "renormalized_nearby_cohomology",
    "RenormalizedReport",
    "escape_table",
    "EscapeRow",
    "declared_support_floor",
]

# Bound on the height of the tower a report or its validation builds.  Its Gysin
# solves are a fixed few, but the record and its colimit grow with the height.
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
    """A tracked degree failed to stabilize within the tower; a bug."""


class GradedDims:
    """Finite-support map from integer degree to a nonnegative dimension.

    Zero entries are never stored; degrees may be negative.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dims.items() if isinstance(dims, Mapping) else dims
        store: dict[int, int] = {}
        for degree, dim in items:
            if not isinstance(degree, int) or not isinstance(dim, int):
                raise TypeError("degrees and dimensions must be ints")
            if dim < 0:
                raise ValueError(f"negative dimension {dim} in degree {degree}")
            if dim:
                store[degree] = store.get(degree, 0) + dim
        self._dims = store

    def dim(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._dims))

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._dims.items()))

    def __bool__(self) -> bool:
        return bool(self._dims)

    def total(self) -> int:
        return sum(self._dims.values())

    def euler(self) -> int:
        return sum(dim if degree % 2 == 0 else -dim for degree, dim in self._dims.items())

    def shifted(self, offset: int) -> "GradedDims":
        return GradedDims({degree + offset: dim for degree, dim in self._dims.items()})

    def plus(self, other: "GradedDims | Mapping[int, int]") -> "GradedDims":
        other_items = other.items() if isinstance(other, (GradedDims, Mapping)) else other
        merged = dict(self._dims)
        for degree, dim in other_items:
            merged[degree] = merged.get(degree, 0) + dim
        return GradedDims(merged)

    def with_unit(self) -> "GradedDims":
        """Add the one-dimensional unit class in degree 0."""
        return self.plus({0: 1})

    def drop_unit(self) -> "GradedDims":
        """Remove one dimension in degree 0 (pass to reduced cohomology)."""
        if self.dim(0) < 1:
            raise ValueError("no unit class in degree 0 to drop")
        out = dict(self._dims)
        out[0] -= 1
        return GradedDims(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedDims) and self._dims == other._dims

    def __str__(self) -> str:
        if not self._dims:
            return "{}"
        inner = ", ".join(f"{deg}: {dim}" for deg, dim in self.items())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"GradedDims({self})"


@dataclass(frozen=True)
class RankFact:
    """Declared rank of one connecting map of the sequence at one degree.

    kind is 'gysin' (A^{s-2c} -> B^s), 'restriction' (B^s -> C^s) or
    'residue' (C^s -> A^{s-2c+1}); degree is the pattern position s.  Every
    fact carries the justification it rests on, which reports surface
    verbatim.
    """

    kind: str
    degree: int
    rank: int
    justification: str

    def __post_init__(self) -> None:
        if self.kind not in ("gysin", "restriction", "residue"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.rank < 0:
            raise ValueError("a rank cannot be negative")


@dataclass(frozen=True)
class LesSystem:
    """A Gysin long exact sequence with B unknown.

    codim is the codimension c of the closed embedding; a holds the known
    dimensions of the A-column, c_dims those of the open complement C.
    """

    codim: int
    a: GradedDims
    c_dims: GradedDims
    rank_facts: tuple[RankFact, ...] = ()

    def __post_init__(self) -> None:
        if self.codim < 1:
            raise ValueError("codimension must be positive")


@dataclass(frozen=True)
class Underdetermined:
    """The declared ranks do not pin B down; lists the ambiguous degrees."""

    degrees: tuple[int, ...]


@dataclass(frozen=True)
class LesSolution:
    """A solved sequence: its B-column and how the sequence splits.

    ranks holds the nonzero ranks only, keyed by (kind, degree) as in
    RankFact; segments are the runs of nonzero entries between zero ones.
    """

    b: GradedDims
    ranks: Mapping[tuple[str, int], int]
    segments: tuple[tuple[tuple[str, int], ...], ...]
    axioms: tuple[str, ...] = field(default=())

    def segment_alternating_sums(self, system: LesSystem) -> tuple[int, ...]:
        """Alternating dimension sum of every segment; exactness forces 0."""
        sums = []
        for segment in self.segments:
            total = 0
            for position, (slot, degree) in enumerate(segment):
                if slot == "A":
                    dim = system.a.dim(degree)
                elif slot == "B":
                    dim = self.b.dim(degree)
                else:
                    dim = system.c_dims.dim(degree)
                total += dim if position % 2 == 0 else -dim
            sums.append(total)
        return tuple(sums)


_SLOTS = ("A", "B", "C")
_KINDS = ("gysin", "restriction", "residue")


def solve_les_detailed(system: LesSystem) -> LesSolution | Underdetermined:
    """Solve the sequence for B by rank propagation; keep ranks and segments.

    Exactness says each space's dimension is the sum of the ranks of the maps
    in and out of it.  Zero entries force both adjacent ranks to zero, so the
    chain splits into independent segments; within a segment, dimensions and
    declared ranks propagate until everything is pinned or some B entries stay
    ambiguous.  Only the nodes next to a nonzero A or C entry or to a declared
    fact are built: any other B lies between two zero entries and vanishes, so
    the work does not grow with the gaps between degrees.  Returns the
    solution, whose `b` is the middle column, or Underdetermined with the
    ambiguous degrees.
    """
    c2 = 2 * system.codim

    def node(t: int) -> tuple[str, int]:
        s, slot = divmod(t, 3)
        return _SLOTS[slot], s - c2 if slot == 0 else s

    ranks, core = _core(system)
    # Keep the core and its neighbours (each fact's source too); the rest are zero.
    kept = sorted({t + step for t in core for step in (-1, 0, 1)})

    dims: dict[int, int | None] = {}
    for t in kept:
        s, slot = divmod(t, 3)
        dims[t] = (system.a.dim(s - c2), None, system.c_dims.dim(s))[slot]
    # Every map leaving the kept set has a zero entry at its far end.
    for t in kept:
        if t - 1 not in dims:
            ranks[t] = 0
        if t + 1 not in dims:
            ranks[t + 1] = 0

    def set_rank(t: int, value: int) -> bool:
        if value < 0:
            raise Inconsistent(f"exactness forces a negative rank at the map into {node(t)}")
        known = ranks.get(t)
        if known is None:
            ranks[t] = value
            return True
        if known != value:
            raise Inconsistent(f"rank clash at the map into {node(t)}: {known} vs {value}")
        return False

    changed = True
    while changed:
        changed = False
        for t in kept:
            dim, r_in, r_out = dims[t], ranks.get(t), ranks.get(t + 1)
            if dim == 0:
                changed |= set_rank(t, 0)
                changed |= set_rank(t + 1, 0)
            elif dim is not None:
                if r_in is not None and r_out is None:
                    changed |= set_rank(t + 1, dim - r_in)
                elif r_out is not None and r_in is None:
                    changed |= set_rank(t, dim - r_out)
                elif r_in is not None and r_out is not None and r_in + r_out != dim:
                    raise Inconsistent(
                        f"exactness fails at {node(t)}: {dim} != {r_in} + {r_out}"
                    )
            elif r_in is not None and r_out is not None:
                dims[t] = r_in + r_out
                changed = True

    unknown = tuple(t // 3 for t in kept if dims[t] is None)
    if unknown:
        return Underdetermined(degrees=unknown)

    segments: list[list[tuple[str, int]]] = []
    for t in kept:
        if dims[t]:
            if not dims.get(t - 1):
                segments.append([])
            segments[-1].append(node(t))
    solution = LesSolution(
        b=GradedDims({t // 3: dims[t] for t in kept if t % 3 == 1}),
        ranks={
            (_KINDS[(t - 1) % 3], (t - 1) // 3): rank
            for t, rank in sorted(ranks.items())
            if rank
        },
        segments=tuple(map(tuple, segments)),
        axioms=_axioms(system),
    )
    bad = [s for s in solution.segment_alternating_sums(system) if s != 0]
    if bad:
        raise RuntimeError(f"exactness audit failed: alternating sums {bad}")
    return solution


def _core(system: LesSystem) -> tuple[dict[int, int], set[int]]:
    """The declared ranks by map, and the nodes with a nonzero A or C entry or a
    fact.  Node t is slot t % 3 (A, B, C) of pattern degree t // 3 and map t is
    node t-1 -> t, so a fact's map is 3 * degree + 1, 2 or 3 by its kind.
    """
    ranks: dict[int, int] = {}
    for fact in system.rank_facts:
        t = 3 * fact.degree + 1 + _KINDS.index(fact.kind)
        if ranks.setdefault(t, fact.rank) != fact.rank:
            raise Inconsistent(f"conflicting rank facts at {fact.kind}/{fact.degree}")
    core = {3 * (degree + 2 * system.codim) for degree in system.a.support}
    core.update(3 * degree + 2 for degree in system.c_dims.support)
    core.update(ranks)
    return ranks, core


def _axioms(system: LesSystem) -> tuple[str, ...]:
    return tuple(sorted({fact.justification for fact in system.rank_facts}))


def milnor_fiber_cohomology(d: int, mu: int) -> GradedDims:
    """Cohomology of the Milnor fiber of a homogeneous isolated singularity.

    A wedge of mu spheres of dimension d-1 up to homotopy: one unit class plus
    mu classes in degree d-1 (for d = 1 both land in degree 0: mu+1 points).
    """
    if d < 1 or mu < 1:
        raise ValueError("need d >= 1 and mu >= 1")
    return GradedDims({0: 1}).plus({d - 1: mu})


def sphere_cohomology(d: int) -> GradedDims:
    """Cohomology of the complement A^d minus the origin, a (2d-1)-sphere."""
    if d < 1:
        raise ValueError("need d >= 1")
    return GradedDims({0: 1, 2 * d - 1: 1})


def residue_onto_unit_fact(d: int, full_a: GradedDims) -> RankFact:
    """The declared full-rank residue fact at the sphere class degree 2d-1."""
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


def gysin_step(reduced: GradedDims, d: int) -> GradedDims:
    """Reduced cohomology of the next truncation: a shift up by 2d.

    The unit class cancels against the two sphere classes of the open
    complement through the full-rank residue.  The shift rule is validated on
    every call against the generic solver on the full (non-reduced) system.
    """
    _checked_solution(_gysin_system(reduced.with_unit(), d), reduced.shifted(2 * d).with_unit())
    return reduced.shifted(2 * d)


def _concentration_degree(full: GradedDims, n: int) -> int:
    support = full.drop_unit().support
    if len(support) != 1:
        raise RuntimeError(f"reduced cohomology not concentrated at step {n}")
    return support[0]


@dataclass(frozen=True)
class GysinTower:
    """The truncation tower up to n_max, solved once from the Milnor fiber.

    truncations holds the full cohomology of truncations 0..n_max, and
    degrees the single degree carrying the reduced cohomology of each, as the
    concentration audit found it on the directly solved steps, translated
    after them.  gysin_ranks[n-1] holds only the nonzero ranks of the Gysin
    maps into truncation n, keyed by their target degree; axioms are the
    declared facts the solved sequences rest on.
    """

    d: int
    mu: int
    truncations: tuple[GradedDims, ...]
    degrees: tuple[int, ...]
    gysin_ranks: tuple[Mapping[int, int], ...]
    axioms: tuple[str, ...]

    @property
    def n_max(self) -> int:
        return len(self.gysin_ranks)

    def escape_table(self) -> tuple[EscapeRow, ...]:
        """Per truncation step, the single degree carrying reduced cohomology.

        The degrees grow without bound (an arithmetic progression of step 2d),
        which is why nothing survives the naive colimit; the declared floor is
        recorded alongside.
        """
        return tuple(
            EscapeRow(n=n, degree=degree, declared_floor=declared_support_floor(self.d, n))
            for n, degree in enumerate(self.degrees)
        )

    def renormalized(self, normalization: int = 0) -> RenormalizedReport:
        """Colimit of the truncation cohomologies along the Gysin maps.

        See renormalized_nearby_cohomology.
        """
        d, n_max = self.d, self.n_max
        if n_max < 2:
            raise ValueError("need n_max >= 2")

        fulls = self.truncations
        shift = 2 * normalization
        tracked = range(-2 * d * (n_max - 2) - shift, 3 * d - shift + 1)

        # Step n contributes its degree s + 2*delta(n) = s + shift + 2*n*d.
        def value(s: int, n: int) -> int:
            m = s + shift + 2 * n * d
            return fulls[n].dim(m) if m >= 0 else 0

        def is_iso(s: int, n: int) -> bool:
            m = s + shift + 2 * (n + 1) * d
            rank = self.gysin_ranks[n].get(m, 0) if m >= 2 * d else 0
            return value(s, n) == value(s, n + 1) == rank

        # The Gysin map at step n can fail to be an isomorphism in degree s
        # only where truncation n or n+1 carries a class there or the map has
        # nonzero rank there.  Scanning the steps backward, the first failure
        # seen in a degree is its last one; it stabilizes at the next step.
        last_failure: dict[int, int] = {}
        for n in reversed(range(n_max)):
            here, there = shift + 2 * n * d, shift + 2 * (n + 1) * d
            candidates = {m - here for m in fulls[n].support}
            candidates.update(m - there for m in fulls[n + 1].support)
            candidates.update(m - there for m in self.gysin_ranks[n])
            for s in candidates:
                if s not in last_failure and not is_iso(s, n):
                    last_failure[s] = n

        stable: dict[int, int] = {}
        steps: dict[int, int] = {}
        for s in tracked:
            first = last_failure.get(s, -1) + 1
            if first == n_max:
                raise NotStabilized(f"renormalized degree {s} not stable by step {n_max}")
            steps[s] = first
            dim = value(s, first)
            if dim:
                stable[s] = dim

        outcome = GradedDims(stable)
        expected = GradedDims({d - 1 - shift: self.mu})
        if outcome != expected:
            raise RuntimeError(
                f"stable renormalized cohomology {outcome} != expected {expected}"
            )
        return RenormalizedReport(
            stable=outcome,
            stabilization_step=steps,
            normalization=normalization,
            tower=self,
        )


def gysin_tower(d: int, mu: int, n_max: int) -> GysinTower:
    """Solve the truncation tower up to n_max from the Milnor fiber, certified.

    Step n's Gysin sequence is a fixed unit block (A^0, C^0, C^(2d-1), the
    residue fact) beside a mu block A^m, m = 2(n-1)d + d - 1.  The steps up to
    n0, the first whose blocks a zero A or C node separates (2 for d = 1, else
    1), are solved directly and audited for the shift rule (reduced cohomology
    moves up by 2d) and concentration in one degree.  The unit block and the
    step-n0 mu block are solved once, against the shift rule, and their union
    must equal the step-n0 solve.  The gap only grows, and the solver solves
    segments split by a zero node independently (locality) and a translated
    system to the translated solution (translation equivariance), so each
    later step is step n0 with the mu block moved up: n0 + 2 solves in all.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    base = milnor_fiber_cohomology(d, mu)
    reduced = base.drop_unit()
    unit_block = _gysin_system(GradedDims({0: 1}), d)
    # Each step moves the mu block's nodes up by 6d.
    gap = min(_core(LesSystem(d, reduced, GradedDims()))[1]) - max(_core(unit_block)[1])
    n0 = 1 + max(0, -((gap - 3) // (6 * d)))
    truncations = [base]
    degrees = [_concentration_degree(base, 0)]
    gysin_ranks: list[dict[int, int]] = []
    axioms: set[str] = set()
    for n in range(1, min(n0, n_max) + 1):
        step = reduced.shifted(2 * d * (n - 1))
        solution = _checked_solution(
            _gysin_system(step.with_unit(), d), step.shifted(2 * d).with_unit()
        )
        truncations.append(solution.b)
        degrees.append(_concentration_degree(solution.b, n))
        gysin_ranks.append(
            {degree: rank for (kind, degree), rank in solution.ranks.items() if kind == "gysin"}
        )
        axioms.update(solution.axioms)
    if n_max >= n0:
        # `step` and `solution` are the mu block and the direct solve of step n0.
        unit = _checked_solution(unit_block, GradedDims({0: 1}))
        block = _checked_solution(LesSystem(d, step, GradedDims()), step.shifted(2 * d))
        if solution != LesSolution(
            unit.b.plus(block.b), {**unit.ranks, **block.ranks}, unit.segments + block.segments,
            tuple(sorted({*unit.axioms, *block.axioms})),
        ):
            raise RuntimeError(f"the unit and mu blocks do not split the sequence at step {n0}")
        # The unit block's B-column is the unit class alone, so every Gysin
        # rank and the reduced class of step n0 lie in the mu block.
        for n in range(n0 + 1, n_max + 1):
            offset = 2 * d * (n - n0)
            truncations.append(block.b.shifted(offset).with_unit())
            degrees.append(degrees[n0] + offset)
            gysin_ranks.append({s + offset: r for s, r in gysin_ranks[n0 - 1].items()})
    return GysinTower(
        d=d, mu=mu, truncations=tuple(truncations), degrees=tuple(degrees),
        gysin_ranks=tuple(gysin_ranks), axioms=tuple(sorted(axioms)),
    )


def truncation_cohomology(d: int, mu: int, n: int) -> GradedDims:
    """Full cohomology of the n-th truncation of the nearby fiber.

    Walks the Gysin tower from the Milnor fiber base case; the reduced part
    is concentrated in the single degree 2nd + d - 1 with dimension mu.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return gysin_tower(d, mu, n).truncations[n]


def declared_support_floor(d: int, n: int) -> int:
    """Declared floor 2(n+1)d - 1 for reduced-cohomology support of step n.

    Recorded in reports next to the computed concentration degree 2nd + d - 1,
    which sits exactly d below this floor; the discrepancy is documented, not
    resolved, and nothing downstream relies on the floor.
    """
    return 2 * (n + 1) * d - 1


@dataclass(frozen=True)
class EscapeRow:
    n: int
    degree: int
    declared_floor: int

    @property
    def meets_floor(self) -> bool:
        return self.degree >= self.declared_floor


def escape_table(d: int, mu: int, n_max: int) -> tuple[EscapeRow, ...]:
    """Escape degrees of the tower with the declared floor recorded alongside."""
    return gysin_tower(d, mu, n_max).escape_table()


@dataclass(frozen=True)
class RenormalizedReport:
    """The renormalized colimit together with the tower it was read from."""

    stable: GradedDims
    stabilization_step: Mapping[int, int]
    normalization: int
    tower: GysinTower

    @property
    def tracked(self) -> tuple[int, ...]:
        """The renormalized degrees read, in increasing order."""
        return tuple(self.stabilization_step)

    @property
    def axioms(self) -> tuple[str, ...]:
        return self.tower.axioms


def renormalized_nearby_cohomology(
    d: int, mu: int, n_max: int, normalization: int = 0
) -> RenormalizedReport:
    """Colimit of truncation cohomologies along Gysin maps, degree-shifted.

    The contribution of step n to renormalized degree s is its cohomology in
    degree s + 2*delta(n), with delta(n) = normalization + n*d; a degree has
    stabilized once the Gysin maps are isomorphisms there from some step
    onward.  With the default normalization (delta vanishing at step 0) the
    stable reduced outcome is mu in degree d-1; transient classes (the unit,
    any class at negative degrees) die through the residue and are reported
    as stabilized zeros.

    Raises NotStabilized if a tracked degree has not settled by n_max, which
    would be a bug rather than a feature of the tower.
    """
    return gysin_tower(d, mu, n_max).renormalized(normalization)
