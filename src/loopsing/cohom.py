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
reduced cohomology audited on the way.  Its record stores those base steps
only; every later step is derived from the last of them on access.  The
truncation table, the degrees showing reduced classes running off to
infinity, and the renormalized colimit along Gysin maps are all read from
that one record, the colimit without a walk over the steps or the degrees.

Everything is a pure function over small immutable values; concurrent
invocation is safe, there is no shared state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from types import MappingProxyType

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


class GradedDims:
    """Finite-support map from integer degree to a nonnegative dimension.

    Zero entries are never stored; degrees may be negative.  A GradedDims is
    immutable: its store is a read-only mapping, and no attribute can be
    assigned or deleted.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dims.items() if isinstance(dims, Mapping) else dims
        store: dict[int, int] = {}
        for degree, dim in items:
            if type(degree) is not int or type(dim) is not int:
                raise TypeError("degrees and dimensions must be ints")
            if dim < 0:
                raise ValueError(f"negative dimension {dim} in degree {degree}")
            if dim:
                store[degree] = store.get(degree, 0) + dim
        _set_store(self, MappingProxyType(store))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GradedDims is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GradedDims is immutable: cannot delete {name!r}")

    def dim(self, degree: int) -> int:
        dims = self._dims
        return dims[degree] if degree in dims else 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._dims))

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._dims.items()))

    def __bool__(self) -> bool:
        return bool(self._dims)

    @classmethod
    def _of(cls, store: dict[int, int]) -> "GradedDims":
        """Wrap a fresh store of int degrees to positive int dimensions,
        unchecked; no one else may hold it."""
        dims = object.__new__(cls)
        _set_store(dims, MappingProxyType(store))
        return dims

    def shifted(self, offset: int) -> "GradedDims":
        return GradedDims._of({degree + offset: dim for degree, dim in self._dims.items()})

    def plus(self, other: "GradedDims | Mapping[int, int]") -> "GradedDims":
        other_items = other.items() if isinstance(other, (GradedDims, Mapping)) else other
        merged = self._dims.copy()
        for degree, dim in other_items:
            merged[degree] = merged.get(degree, 0) + dim
        return GradedDims(merged)

    def with_unit(self) -> "GradedDims":
        """Add the one-dimensional unit class in degree 0."""
        store = self._dims.copy()
        store[0] = store.get(0, 0) + 1
        return GradedDims._of(store)

    def drop_unit(self) -> "GradedDims":
        """Remove one dimension in degree 0 (pass to reduced cohomology)."""
        if self.dim(0) < 1:
            raise ValueError("no unit class in degree 0 to drop")
        out = self._dims.copy()
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

    def __reduce__(self) -> tuple:
        # The read-only store cannot be pickled; a copy rebuilds from a plain dict.
        return GradedDims, (dict(self._dims),)


# Assignment is refused, so the store goes in through its slot's descriptor.
_set_store = GradedDims.__dict__["_dims"].__set__


_SLOTS = ("A", "B", "C")
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

    Each segment's alternating sum of dimensions is 0 by construction, so no
    audit repeats it.  The maps at both ends of a segment have rank 0, being
    maps from or to a zero entry.  The sweep stops only after a pass that
    changes nothing, and on that pass every node it keeps with a known
    dimension and both ranks known has dim = r_in + r_out, or Inconsistent
    was raised; a B dimension is only ever set to r_in + r_out.  Once every
    dimension is known the ranks follow from each segment's first node on,
    so the alternating sum telescopes to its two end ranks, both 0.
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
    return LesSolution(
        b=GradedDims({t // 3: dims[t] for t in kept if t % 3 == 1}),
        ranks={
            (_KINDS[(t - 1) % 3], (t - 1) // 3): rank
            for t, rank in sorted(ranks.items())
            if rank
        },
        segments=tuple(map(tuple, segments)),
        axioms=_axioms(system),
    )


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
            GradedDims._of({0: 1, degree + offset: self.head_truncations[n0].dim(degree)}),
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
    n0, the first whose blocks a zero A or C node separates (2 for d = 1, else
    1), are solved directly and audited for the shift rule (reduced cohomology
    moves up by 2d) and concentration in one degree.  The unit block and the
    step-n0 mu block are solved once, against the shift rule, and their union
    must equal the step-n0 solve.  The gap only grows, and the solver solves
    segments split by a zero node independently (locality) and a translated
    system to the translated solution (translation equivariance), so each
    later step is step n0 with the mu block moved up: n0 + 2 solves in all.
    The record stores the directly solved steps and derives the later ones.
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
    head_ranks: list[dict[int, int]] = []
    axioms: set[str] = set()
    for n in range(1, min(n0, n_max) + 1):
        step = reduced.shifted(2 * d * (n - 1))
        solution = _checked_solution(
            _gysin_system(step.with_unit(), d), step.shifted(2 * d).with_unit()
        )
        truncations.append(solution.b)
        degrees.append(_concentration_degree(solution.b, n))
        head_ranks.append(
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
