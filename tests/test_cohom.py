"""LES solving, the Gysin tower, and renormalized nearby cohomology."""

from __future__ import annotations

from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsing import cohom
from loopsing.cohom import (
    GradedDims,
    GysinTower,
    Inconsistent,
    LesSolution,
    LesSystem,
    MAX_N_MAX,
    NotStabilized,
    RankFact,
    RenormalizedReport,
    Underdetermined,
    declared_support_floor,
    gysin_tower,
    milnor_fiber_cohomology,
    residue_onto_unit_fact,
    solve_les_detailed,
    sphere_cohomology,
)

from conftest import CORPUS, alternating_sums, deadline, ranks_into_steps


def gysin_system(full_a: GradedDims, d: int) -> LesSystem:
    return LesSystem(
        codim=d,
        a=full_a,
        c_dims=sphere_cohomology(d),
        rank_facts=(residue_onto_unit_fact(d, full_a),),
    )


def _walk_gysin_tower(d: int, mu: int, n_max: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Reference: the rows of the tower up to n_max, from one direct walk.

    Every step is its own Gysin solve, checked against the shift rule and for
    concentration; the tower of height n has the first n + 1 truncations and
    degrees, the first n Gysin ranks and axioms[n].
    """
    base = milnor_fiber_cohomology(d, mu)
    (degree,) = base.drop_unit().support
    truncations, degrees, gysin_ranks, axioms = [base], [degree], [], [()]
    reduced = base.drop_unit()
    for _ in range(n_max):
        solution = solve_les_detailed(gysin_system(reduced.with_unit(), d))
        reduced = reduced.shifted(2 * d)
        assert solution.b == reduced.with_unit()
        (degree,) = solution.b.drop_unit().support
        truncations.append(solution.b)
        degrees.append(degree)
        gysin_ranks.append(
            {deg: rank for (kind, deg), rank in solution.ranks.items() if kind == "gysin"}
        )
        axioms.append(tuple(sorted({*axioms[-1], *solution.axioms})))
    return tuple(truncations), tuple(degrees), tuple(gysin_ranks), tuple(axioms)


def _scan_renormalized(tower: GysinTower) -> RenormalizedReport:
    """Reference: the colimit read by scanning every Gysin map of the record.

    The map at step n can fail to be an isomorphism in degree s only where
    truncation n or n+1 carries a class there or the map has nonzero rank
    there.  Scanning the steps backward, the first failure seen in a degree is
    its last one; it stabilizes at the next step.
    """
    d, n_max, fulls, gysin_ranks = tower.d, tower.n_max, tower.truncations, ranks_into_steps(tower)
    if n_max < 2:
        raise ValueError("need n_max >= 2")

    def value(s: int, n: int) -> int:
        m = s + 2 * n * d
        return fulls[n].dim(m) if m >= 0 else 0

    def is_iso(s: int, n: int) -> bool:
        m = s + 2 * (n + 1) * d
        rank = gysin_ranks[n].get(m, 0) if m >= 2 * d else 0
        return value(s, n) == value(s, n + 1) == rank

    last_failure: dict[int, int] = {}
    for n in reversed(range(n_max)):
        here, there = 2 * n * d, 2 * (n + 1) * d
        candidates = {m - here for m in fulls[n].support}
        candidates.update(m - there for m in fulls[n + 1].support)
        candidates.update(m - there for m in gysin_ranks[n])
        for s in candidates:
            if s not in last_failure and not is_iso(s, n):
                last_failure[s] = n

    stable, steps = {}, {}
    for s in range(-2 * d * (n_max - 2), 3 * d + 1):
        first = last_failure.get(s, -1) + 1
        if first == n_max:
            raise NotStabilized(f"renormalized degree {s} not stable by step {n_max}")
        steps[s] = first
        if value(s, first):
            stable[s] = value(s, first)
    outcome = GradedDims(stable)
    if outcome != GradedDims({d - 1: tower.mu}):
        raise RuntimeError(f"stable renormalized cohomology {outcome} is not mu in degree d-1")
    return RenormalizedReport(outcome, steps, tower)


def _dense_solve_les(system: LesSystem) -> LesSolution | Underdetermined:
    """Reference solver over the dense degree range.

    It lays out every pattern degree from one below the lowest anchor to one
    above the highest, keeps a rank for every map in that range and sweeps
    the whole range until nothing changes.

    Exactness says each space's dimension is the sum of the ranks of the maps
    in and out of it.  Zero entries force both adjacent ranks to zero, so the
    chain splits into independent segments; within a segment, dimensions and
    declared ranks propagate until everything is pinned or some B entries stay
    ambiguous.  Returns the solution, whose `b` is the middle column, or
    Underdetermined with the ambiguous degrees.
    """
    c2 = 2 * system.codim
    anchors = (
        [deg + c2 for deg in system.a.support]
        + list(system.c_dims.support)
        + [fact.degree for fact in system.rank_facts]
        + [fact.degree + 1 for fact in system.rank_facts]
    )
    if not anchors:
        return LesSolution(
            b=GradedDims(), ranks={}, segments=(), axioms=cohom._axioms(system)
        )
    s_lo, s_hi = min(anchors) - 1, max(anchors) + 1

    # Node t = 3*(s - s_lo) + slot with slots A, B, C; map t is node t-1 -> t,
    # with virtual zero maps off both ends of the chain.
    nodes: list[tuple[str, int]] = []
    for s in range(s_lo, s_hi + 1):
        nodes.append(("A", s - c2))
        nodes.append(("B", s))
        nodes.append(("C", s))
    count = len(nodes)

    dims: list[int | None] = []
    for slot, degree in nodes:
        if slot == "A":
            dims.append(system.a.dim(degree))
        elif slot == "C":
            dims.append(system.c_dims.dim(degree))
        else:
            dims.append(None)

    ranks: list[int | None] = [None] * (count + 1)
    ranks[0] = 0
    ranks[count] = 0

    fact_positions = {"gysin": 1, "restriction": 2, "residue": 3}
    for fact in system.rank_facts:
        t = 3 * (fact.degree - s_lo) + fact_positions[fact.kind]
        if not 0 < t < count:
            raise Inconsistent(f"rank fact {fact} lies outside the sequence range")
        if ranks[t] is not None and ranks[t] != fact.rank:
            raise Inconsistent(f"conflicting rank facts at {fact.kind}/{fact.degree}")
        ranks[t] = fact.rank

    def set_rank(t: int, value: int) -> bool:
        if value < 0:
            raise Inconsistent(
                f"exactness forces a negative rank at map {t} ({nodes[min(t, count - 1)]})"
            )
        if ranks[t] is None:
            ranks[t] = value
            return True
        if ranks[t] != value:
            raise Inconsistent(f"rank clash at map {t}: {ranks[t]} vs {value}")
        return False

    changed = True
    while changed:
        changed = False
        for t in range(count):
            dim, r_in, r_out = dims[t], ranks[t], ranks[t + 1]
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
                        f"exactness fails at {nodes[t]}: {dim} != {r_in} + {r_out}"
                    )
            else:
                if r_in is not None and r_out is not None:
                    dims[t] = r_in + r_out
                    changed = True

    unknown = sorted(
        degree for (slot, degree), dim in zip(nodes, dims) if slot == "B" and dim is None
    )
    if unknown:
        return Underdetermined(degrees=tuple(unknown))

    for fact in system.rank_facts:
        t = 3 * (fact.degree - s_lo) + fact_positions[fact.kind]
        src = dims[t - 1] or 0
        dst = dims[t] if t < count else 0
        if fact.rank > min(src, dst or 0):
            raise Inconsistent(
                f"declared rank {fact.rank} of {fact.kind} at degree {fact.degree} "
                f"exceeds min of adjacent dimensions ({src}, {dst})"
            )

    b = GradedDims(
        {degree: dim for (slot, degree), dim in zip(nodes, dims) if slot == "B" and dim}
    )
    rank_map = {}
    for t in range(1, count):
        slot, degree = nodes[t]
        kind = {"B": "gysin", "C": "restriction", "A": "residue"}[slot]
        key_degree = degree if slot != "A" else degree + c2 - 1
        rank_map[(kind, key_degree)] = ranks[t] or 0

    segments: list[tuple[tuple[str, int], ...]] = []
    current: list[tuple[str, int]] = []
    for node, dim in zip(nodes, dims):
        if dim:
            current.append(node)
        elif current:
            segments.append(tuple(current))
            current = []
    if current:
        segments.append(tuple(current))

    solution = LesSolution(
        b=b, ranks=rank_map, segments=tuple(segments), axioms=cohom._axioms(system)
    )
    bad = [s for s in alternating_sums(solution, system) if s != 0]
    if bad:
        raise RuntimeError(f"exactness audit failed: alternating sums {bad}")
    return solution


def _outcome(solve, system: LesSystem):
    """What a solver gives, with only the nonzero ranks of a solution."""
    try:
        result = solve(system)
    except (Inconsistent, RuntimeError) as exc:
        return type(exc)
    if isinstance(result, Underdetermined):
        return result
    nonzero = {key: rank for key, rank in result.ranks.items() if rank}
    return result.b, nonzero, result.segments, result.axioms


_small_dims = st.dictionaries(st.integers(-4, 8), st.integers(0, 3), max_size=3).map(GradedDims)
_facts = st.lists(
    st.builds(
        RankFact,
        st.sampled_from(("gysin", "restriction", "residue")),
        st.integers(-4, 8),
        st.integers(0, 3),
        st.sampled_from(("test: first", "test: second")),
    ),
    max_size=3,
).map(tuple)
_systems = st.builds(LesSystem, st.integers(1, 3), _small_dims, _small_dims, _facts)


def _euler(dims: GradedDims) -> int:
    """The Euler characteristic: the alternating sum of the dimensions."""
    return sum(dim if degree % 2 == 0 else -dim for degree, dim in dims.items())


class TestGradedDims:
    def test_prunes_zeros_and_merges(self):
        dims = GradedDims({0: 1, 3: 0, -2: 2})
        assert dims.support == (-2, 0)
        assert dims.dim(3) == 0
        assert GradedDims([(1, 2), (1, 3)]) == GradedDims({1: 5})

    def test_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            GradedDims({0: -1})

    @pytest.mark.parametrize("dims", [{True: True, 2: 3}, {True: 1}, {1: False}, {1.0: 1}, {1: 2.0}])
    def test_rejects_degrees_and_dimensions_that_are_not_ints(self, dims):
        # A bool degree would reach a report as the dims key "True".
        with pytest.raises(TypeError):
            GradedDims(dims)

    def test_shift_and_euler(self):
        dims = GradedDims({0: 1, 1: 4})
        assert dims.shifted(4) == GradedDims({4: 1, 5: 4})
        assert _euler(dims) == -3

    def test_plus_takes_any_mapping(self):
        assert GradedDims({1: 2}).plus(MappingProxyType({3: 1})) == GradedDims({1: 2, 3: 1})
        assert GradedDims({1: 2}).plus(GradedDims({1: 1})) == GradedDims({1: 3})
        assert GradedDims({1: 2}).plus([(1, 1), (4, 2)]) == GradedDims({1: 3, 4: 2})

    def test_unit_bookkeeping(self):
        assert GradedDims({1: 4}).with_unit() == GradedDims({0: 1, 1: 4})
        assert GradedDims({0: 2}).with_unit() == GradedDims({0: 3})
        assert GradedDims().with_unit().items() == ((0, 1),)
        assert GradedDims({0: 2}).drop_unit() == GradedDims({0: 1})
        with pytest.raises(ValueError):
            GradedDims({1: 1}).drop_unit()

    def test_is_immutable(self):
        source = {0: 1, 2: 3}
        dims = GradedDims(source)
        for name in ("_dims", "support"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(dims, name, {})
            with pytest.raises(AttributeError, match="immutable"):
                delattr(dims, name)
        with pytest.raises(TypeError):
            dims._dims[2] = 5
        # Neither the constructor's argument nor any derived value shares the store.
        source[2] = 7
        derived = (dims.shifted(1), dims.with_unit(), dims.drop_unit(), dims.plus({2: 1}))
        assert all(type(d._dims) is MappingProxyType for d in (dims, *derived))
        assert dims.items() == ((0, 1), (2, 3))
        assert [d.items() for d in derived] == [
            ((1, 1), (3, 3)), ((0, 2), (2, 3)), ((2, 3),), ((0, 1), (2, 4))
        ]


class TestBaseCases:
    def test_milnor_fiber_two_points(self):
        assert milnor_fiber_cohomology(1, 1) == GradedDims({0: 2})

    def test_milnor_fiber_wedge_of_circles(self):
        dims = milnor_fiber_cohomology(2, 4)
        assert dims == GradedDims({0: 1, 1: 4})
        assert _euler(dims) == 1 - 4

    def test_milnor_fiber_affine_quadric_surface(self):
        dims = milnor_fiber_cohomology(3, 1)
        assert dims == GradedDims({0: 1, 2: 1})
        assert _euler(dims) == 1 + 1

    @pytest.mark.parametrize("d,expected", [(1, {0: 1, 1: 1}), (2, {0: 1, 3: 1}), (5, {0: 1, 9: 1})])
    def test_sphere(self, d, expected):
        assert sphere_cohomology(d) == GradedDims(expected)


class TestSolveLes:
    def test_quadric_step_gives_the_two_sphere(self):
        system = gysin_system(GradedDims({0: 2}), 1)
        assert solve_les_detailed(system).b == GradedDims({0: 1, 2: 1})

    def test_zero_system(self):
        system = LesSystem(codim=1, a=GradedDims(), c_dims=GradedDims())
        assert solve_les_detailed(system).b == GradedDims()

    def test_plane_cubic_first_step(self):
        system = gysin_system(GradedDims({0: 1, 1: 4}), 2)
        assert solve_les_detailed(system).b == GradedDims({0: 1, 5: 4})

    def test_underdetermined_without_the_residue_fact(self):
        system = LesSystem(codim=1, a=GradedDims({0: 2}), c_dims=sphere_cohomology(1))
        result = solve_les_detailed(system)
        assert isinstance(result, Underdetermined)
        assert result.degrees == (1, 2)

    def test_inconsistent_rank_fact(self):
        fact = RankFact("residue", 1, 2, "test: impossible rank")
        system = LesSystem(
            codim=1, a=GradedDims({0: 2}), c_dims=sphere_cohomology(1), rank_facts=(fact,)
        )
        with pytest.raises(Inconsistent):
            solve_les_detailed(system)

    def test_inconsistent_forced_dimension(self):
        # killing the restriction map strands C^0 with nowhere to map
        fact = RankFact("restriction", 0, 0, "test: zero restriction")
        system = LesSystem(
            codim=1, a=GradedDims({0: 1}), c_dims=GradedDims({0: 1}), rank_facts=(fact,)
        )
        with pytest.raises(Inconsistent):
            solve_les_detailed(system)

    def test_detailed_solution_exposes_ranks_and_segments(self):
        system = gysin_system(GradedDims({0: 2}), 1)
        solution = solve_les_detailed(system)
        assert solution.ranks[("residue", 1)] == 1
        assert 0 not in solution.ranks.values()
        assert all(total == 0 for total in alternating_sums(solution, system))
        assert solution.axioms


    @settings(max_examples=500, deadline=None)
    @given(_systems)
    def test_matches_the_dense_solver(self, system):
        assert _outcome(solve_les_detailed, system) == _outcome(_dense_solve_les, system)

    def test_work_does_not_grow_with_the_gap_between_degrees(self):
        system = gysin_system(GradedDims({0: 1, 1_000_000: 1}), 1)
        with deadline(1):
            solution = solve_les_detailed(system)
        assert solution.b == GradedDims({0: 1, 1_000_002: 1})


def _solved_step(reduced: GradedDims, d: int) -> GradedDims:
    """The next truncation's reduced cohomology, solved on the full Gysin system."""
    return solve_les_detailed(gysin_system(reduced.with_unit(), d)).b.drop_unit()


class TestGysinShift:
    def test_point_pair_becomes_sphere_class(self):
        assert _solved_step(GradedDims({0: 1}), 1) == GradedDims({2: 1})

    def test_plane_cubic(self):
        assert _solved_step(GradedDims({1: 4}), 2) == GradedDims({5: 4})

    def test_empty(self):
        assert _solved_step(GradedDims(), 1) == GradedDims()

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    @pytest.mark.parametrize("n", range(5))
    def test_agrees_with_generic_solver_on_corpus(self, entry, n):
        reduced = gysin_tower(entry.d, entry.mu, n).truncations[n].drop_unit()
        system = gysin_system(reduced.with_unit(), entry.d)
        solution = solve_les_detailed(system)
        assert solution.b == reduced.shifted(2 * entry.d).with_unit()
        assert all(total == 0 for total in alternating_sums(solution, system))

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_euler_characteristic_bookkeeping(self, entry):
        for n in range(4):
            full = gysin_tower(entry.d, entry.mu, n).truncations[n]
            nxt = solve_les_detailed(gysin_system(full, entry.d)).b
            assert _euler(nxt) == _euler(full) + _euler(sphere_cohomology(entry.d))


class TestGysinTower:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_one_walk_agrees_with_every_consumer(self, entry):
        d, mu = entry.d, entry.mu
        for n_max in range(13):
            tower = gysin_tower(d, mu, n_max)
            assert tower.n_max == n_max
            assert len(tower.truncations) == n_max + 1
            for n, full in enumerate(tower.truncations):
                shorter = gysin_tower(d, mu, n)
                assert full == shorter.truncations[n]
                assert tower.degrees[n] == shorter.degrees[n]

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_steps_keep_only_nonzero_gysin_ranks(self, entry):
        d, mu = entry.d, entry.mu
        tower = gysin_tower(d, mu, 6)
        assert len(ranks_into_steps(tower)) == 6
        for n, ranks in enumerate(ranks_into_steps(tower), start=1):
            # the reduced class maps isomorphically; the unit dies in the residue
            assert dict(ranks) == {2 * n * d + d - 1: mu}
        assert tower.axioms == (cohom.RESIDUE_FULL_RANK_AXIOM,)
        assert gysin_tower(d, mu, 0).axioms == ()

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            gysin_tower(2, 4, -1)

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("mu", [1, 4, 27])
    def test_block_solve_equals_the_direct_walk(self, d, mu):
        # The record holds the directly solved steps up to n0, the first whose
        # unit and mu blocks a zero node separates; the rows past it are derived.
        n0 = 2 if d == 1 else 1
        truncations, degrees, gysin_ranks, axioms = _walk_gysin_tower(d, mu, MAX_N_MAX)
        for n_max in range(MAX_N_MAX + 1):
            tower = gysin_tower(d, mu, n_max)
            head = min(n0, n_max)
            assert tower == GysinTower(
                d, mu, truncations[: head + 1], degrees[: head + 1], gysin_ranks[:head],
                axioms[n_max], n0, n_max,
            )
            assert tower.truncations == truncations[: n_max + 1]
            assert tower.degrees == degrees[: n_max + 1]
            assert ranks_into_steps(tower) == gysin_ranks[:n_max]
            if n_max >= 2:
                assert tower.renormalized() == _scan_renormalized(tower)

    @pytest.mark.parametrize("d, n0", [(1, 2), (2, 1), (3, 1)])
    def test_shift_rule_is_checked_on_every_base_step_and_block(self, monkeypatch, d, n0):
        solve = cohom.solve_les_detailed
        for wrong_call in range(1, n0 + 3):
            calls = []

            def solve_wrong_once(system):
                calls.append(system)
                solution = solve(system)
                if len(calls) < wrong_call:
                    return solution
                return LesSolution(
                    solution.b.shifted(1), solution.ranks, solution.segments, solution.axioms
                )

            monkeypatch.setattr(cohom, "solve_les_detailed", solve_wrong_once)
            with pytest.raises(RuntimeError, match="shift rule"):
                gysin_tower(d, 4, 6)
            assert len(calls) == wrong_call

    def test_a_unit_block_reaching_into_the_mu_block_fails_the_audit(self, monkeypatch):
        gysin = cohom._gysin_system

        def reaching(full_a, d):
            system = gysin(full_a, d)
            if full_a != GradedDims({0: 1}):
                return system
            # C^8 onto A^5, where the mu block sits at step 2, through a
            # residue of rank 1: the unit block's B-column is still the unit.
            return LesSystem(
                system.codim,
                system.a.plus({5: 1}),
                system.c_dims.plus({8: 1}),
                system.rank_facts + (RankFact("residue", 8, 1, "test: reach"),),
            )

        monkeypatch.setattr(cohom, "_gysin_system", reaching)
        assert solve_les_detailed(reaching(GradedDims({0: 1}), 2)).b == GradedDims({0: 1})
        with pytest.raises(RuntimeError, match="do not split"):
            gysin_tower(2, 4, 6)
        # Below the first separated step, now step 3, the tower is the direct
        # walk alone, every step of it stored.
        truncations, degrees, gysin_ranks, axioms = _walk_gysin_tower(2, 4, 2)
        assert gysin_tower(2, 4, 2) == GysinTower(
            2, 4, truncations, degrees, gysin_ranks, axioms[2], n0=3, n_max=2
        )

    def test_block_union_must_match_the_direct_solve(self, monkeypatch):
        solve = cohom.solve_les_detailed

        def merged_segments(system):
            solution = solve(system)
            if system.a.dim(0) != 1 or len(system.a.support) < 2:
                return solution
            return LesSolution(
                solution.b, solution.ranks, (sum(solution.segments, ()),), solution.axioms
            )

        monkeypatch.setattr(cohom, "solve_les_detailed", merged_segments)
        with pytest.raises(RuntimeError, match="do not split"):
            gysin_tower(3, 8, 4)

    def test_concentration_is_checked(self, monkeypatch):
        spread = GradedDims({0: 1, 1: 2, 3: 1})
        monkeypatch.setattr(cohom, "milnor_fiber_cohomology", lambda d, mu: spread)
        with pytest.raises(RuntimeError, match="not concentrated"):
            gysin_tower(2, 4, 3)


class TestTruncationTower:
    @pytest.mark.parametrize("n,expected", [(0, {0: 2}), (1, {0: 1, 2: 1}), (2, {0: 1, 4: 1})])
    def test_quadric_tower_is_even_spheres(self, n, expected):
        assert gysin_tower(1, 1, n).truncations[n] == GradedDims(expected)

    def test_plane_cubic_base(self):
        assert gysin_tower(2, 4, 0).truncations[0] == GradedDims({0: 1, 1: 4})

    def test_plane_cubic_two_steps(self):
        assert gysin_tower(2, 4, 2).truncations[2] == GradedDims({0: 1, 9: 4})

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_concentration_degree(self, entry):
        for n in range(4):
            full = gysin_tower(entry.d, entry.mu, n).truncations[n]
            reduced = full.drop_unit()
            assert reduced.items() == ((2 * n * entry.d + entry.d - 1, entry.mu),)


class TestEscape:
    def test_quadric(self):
        assert gysin_tower(1, 1, 3).degrees == (0, 2, 4, 6)

    def test_plane_cubic(self):
        assert gysin_tower(2, 4, 2).degrees == (1, 5, 9)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_strictly_increasing_in_steps_of_2d(self, entry):
        degrees = gysin_tower(entry.d, entry.mu, 4).degrees
        assert all(b - a == 2 * entry.d for a, b in zip(degrees, degrees[1:]))

    def test_degrees_sit_d_below_the_declared_floor(self):
        degrees = gysin_tower(2, 4, 2).degrees
        assert (degrees[0], declared_support_floor(2, 0)) == (1, 3)
        for n, degree in enumerate(degrees):
            assert declared_support_floor(2, n) - degree == 2


class TestRenormalized:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("mu", [1, 2, 5])
    def test_equals_the_backward_scan(self, d, mu):
        # Heights up to 24 cross the head steps and many translated ones; 60 is
        # the benchmark's tallest and MAX_N_MAX the command line's.  The direct
        # walk test covers every height.
        for n_max in [*range(2, 25), 60, MAX_N_MAX]:
            tower = gysin_tower(d, mu, n_max)
            assert tower.renormalized() == _scan_renormalized(tower)

    @pytest.mark.parametrize("d, n0", [(1, 2), (2, 1), (3, 1)])
    @pytest.mark.parametrize("n_max", [20, 60, MAX_N_MAX])
    def test_reads_a_fixed_number_of_steps(self, monkeypatch, d, n0, n_max):
        # The record stores steps 0..n0 whatever the height, and the colimit
        # reads steps 0..n0 + 1 of it, the last one derived.
        tower = gysin_tower(d, 4, n_max)
        assert tower.n0 == n0
        assert len(tower.head_truncations) == len(tower.head_degrees) == n0 + 1
        assert len(tower.head_ranks) == n0
        step, read = GysinTower._step, set()

        def counted(record, n):
            read.add(n)
            return step(record, n)

        monkeypatch.setattr(GysinTower, "_step", counted)
        report = tower.renormalized()
        monkeypatch.undo()
        assert read == set(range(n0 + 2))
        assert report == _scan_renormalized(tower)

    @pytest.mark.parametrize("d, n0", [(1, 2), (2, 1), (3, 1)])
    def test_a_head_map_that_is_not_an_isomorphism_raises(self, d, n0):
        tower = gysin_tower(d, 4, 20)

        def broken_from(step: int) -> GysinTower:
            # The stored maps from `step` on send mu classes onto a rank-3
            # image; every map past n0 is the last stored one translated.
            head_ranks = tuple(
                {m: 3 if step <= n else r for m, r in ranks.items()}
                for n, ranks in enumerate(tower.head_ranks)
            )
            return GysinTower(
                tower.d, tower.mu, tower.head_truncations, tower.head_degrees, head_ranks,
                tower.axioms, tower.n0, tower.n_max,
            )

        for step in range(n0):
            with pytest.raises(NotStabilized):
                _scan_renormalized(broken_from(step))
            with pytest.raises(NotStabilized, match="below its certified height"):
                broken_from(step).renormalized()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("claimed", [3, 5])
    def test_a_claimed_mu_other_than_the_head_fails_the_colimit_audit(self, d, claimed):
        # The certified mu = 4 head settles to mu in degree d-1 at every height;
        # a record claiming another mu over it must fail the audit, not report.
        for n_max in (2, 6, MAX_N_MAX):
            tower = gysin_tower(d, 4, n_max)
            forged = GysinTower(
                tower.d, claimed, tower.head_truncations, tower.head_degrees,
                tower.head_ranks, tower.axioms, tower.n0, tower.n_max,
            )
            with pytest.raises(RuntimeError) as raised:
                forged.renormalized()
            assert str(raised.value) == (
                f"stable renormalized cohomology {{{d - 1}: 4}} "
                f"!= expected {{{d - 1}: {claimed}}}"
            )

    def test_quadric(self):
        report = gysin_tower(1, 1, 4).renormalized()
        assert report.stable == GradedDims({0: 1})
        assert report.stabilization_step[0] == 1

    def test_plane_cubic(self):
        report = gysin_tower(2, 4, 4).renormalized()
        assert report.stable == GradedDims({1: 4})
        assert report.stabilization_step[1] == 0
        assert report.stabilization_step[0] == 1

    def test_space_cubic(self):
        assert gysin_tower(3, 8, 4).renormalized().stable == GradedDims({2: 8})

    def test_negative_degrees_report_zero(self):
        report = gysin_tower(2, 4, 4).renormalized()
        negatives = [s for s in report.stabilization_step if s < 0]
        assert negatives
        for s in negatives:
            assert report.stable.dim(s) == 0
            assert s in report.stabilization_step

    def test_unit_death_steps_match_divisibility(self):
        report = gysin_tower(2, 4, 4).renormalized()
        # s = -4 = -2d: unit lives at step 1, dies at step 2
        assert report.stabilization_step[-4] == 2
        # s = -2 is never hit: stable zero from the start
        assert report.stabilization_step[-2] == 0

    def test_surfaces_the_residue_axiom(self):
        report = gysin_tower(2, 4, 4).renormalized()
        assert any("residue" in axiom for axiom in report.axioms)

    def test_requires_tall_enough_tower(self):
        with pytest.raises(ValueError):
            gysin_tower(2, 4, 1).renormalized()

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_theorem_values_on_corpus(self, entry):
        report = gysin_tower(entry.d, entry.mu, 4).renormalized()
        assert report.stable == GradedDims({entry.d - 1: entry.mu})
