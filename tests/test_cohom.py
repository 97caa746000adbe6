"""LES solving, the Gysin tower, and renormalized nearby cohomology."""

from __future__ import annotations

from dataclasses import replace
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsing import cohom
from loopsing.cohom import (
    EscapeRow,
    GradedDims,
    GysinTower,
    Inconsistent,
    LesSolution,
    LesSystem,
    RankFact,
    Underdetermined,
    declared_support_floor,
    escape_table,
    gysin_step,
    gysin_tower,
    milnor_fiber_cohomology,
    renormalized_nearby_cohomology,
    residue_onto_unit_fact,
    solve_les_detailed,
    sphere_cohomology,
    truncation_cohomology,
)

from loopsing.cli.main import MAX_N_MAX

from conftest import CORPUS, deadline


def gysin_system(full_a: GradedDims, d: int) -> LesSystem:
    return LesSystem(
        codim=d,
        a=full_a,
        c_dims=sphere_cohomology(d),
        rank_facts=(residue_onto_unit_fact(d, full_a),),
    )


def _walk_gysin_towers(d: int, mu: int, n_max: int) -> list[GysinTower]:
    """Reference: the tower of every height up to n_max, from one direct walk.

    Every step is its own Gysin solve, checked against the shift rule and for
    concentration; the tower of height n is the record of the first n steps.
    """
    base = milnor_fiber_cohomology(d, mu)
    (degree,) = base.drop_unit().support
    truncations, degrees, gysin_ranks, axioms = [base], [degree], [], set()
    towers = [GysinTower(d, mu, (base,), (degree,), (), ())]
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
        axioms.update(solution.axioms)
        towers.append(GysinTower(
            d, mu, tuple(truncations), tuple(degrees), tuple(gysin_ranks), tuple(sorted(axioms))
        ))
    return towers


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
    bad = [s for s in solution.segment_alternating_sums(system) if s != 0]
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


class TestGradedDims:
    def test_prunes_zeros_and_merges(self):
        dims = GradedDims({0: 1, 3: 0, -2: 2})
        assert dims.support == (-2, 0)
        assert dims.dim(3) == 0
        assert GradedDims([(1, 2), (1, 3)]) == GradedDims({1: 5})

    def test_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            GradedDims({0: -1})

    def test_shift_and_euler(self):
        dims = GradedDims({0: 1, 1: 4})
        assert dims.shifted(4) == GradedDims({4: 1, 5: 4})
        assert dims.euler() == -3
        assert dims.total() == 5

    def test_plus_takes_any_mapping(self):
        assert GradedDims({1: 2}).plus(MappingProxyType({3: 1})) == GradedDims({1: 2, 3: 1})
        assert GradedDims({1: 2}).plus(GradedDims({1: 1})) == GradedDims({1: 3})
        assert GradedDims({1: 2}).plus([(1, 1), (4, 2)]) == GradedDims({1: 3, 4: 2})

    def test_unit_bookkeeping(self):
        assert GradedDims({1: 4}).with_unit() == GradedDims({0: 1, 1: 4})
        assert GradedDims({0: 2}).drop_unit() == GradedDims({0: 1})
        with pytest.raises(ValueError):
            GradedDims({1: 1}).drop_unit()


class TestBaseCases:
    def test_milnor_fiber_two_points(self):
        assert milnor_fiber_cohomology(1, 1) == GradedDims({0: 2})

    def test_milnor_fiber_wedge_of_circles(self):
        dims = milnor_fiber_cohomology(2, 4)
        assert dims == GradedDims({0: 1, 1: 4})
        assert dims.euler() == 1 - 4

    def test_milnor_fiber_affine_quadric_surface(self):
        dims = milnor_fiber_cohomology(3, 1)
        assert dims == GradedDims({0: 1, 2: 1})
        assert dims.euler() == 1 + 1

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
        assert all(total == 0 for total in solution.segment_alternating_sums(system))
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


class TestGysinShift:
    def test_point_pair_becomes_sphere_class(self):
        assert gysin_step(GradedDims({0: 1}), 1) == GradedDims({2: 1})

    def test_plane_cubic(self):
        assert gysin_step(GradedDims({1: 4}), 2) == GradedDims({5: 4})

    def test_empty(self):
        assert gysin_step(GradedDims(), 1) == GradedDims()

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    @pytest.mark.parametrize("n", range(5))
    def test_agrees_with_generic_solver_on_corpus(self, entry, n):
        reduced = truncation_cohomology(entry.d, entry.mu, n).drop_unit()
        system = gysin_system(reduced.with_unit(), entry.d)
        solution = solve_les_detailed(system)
        assert solution.b == gysin_step(reduced, entry.d).with_unit()
        assert all(total == 0 for total in solution.segment_alternating_sums(system))

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_euler_characteristic_bookkeeping(self, entry):
        for n in range(4):
            full = truncation_cohomology(entry.d, entry.mu, n)
            nxt = solve_les_detailed(gysin_system(full, entry.d)).b
            assert nxt.euler() == full.euler() + sphere_cohomology(entry.d).euler()


class TestGysinTower:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_one_walk_agrees_with_every_consumer(self, entry):
        d, mu = entry.d, entry.mu
        for n_max in range(13):
            tower = gysin_tower(d, mu, n_max)
            assert tower.n_max == n_max
            assert len(tower.truncations) == n_max + 1
            for n, full in enumerate(tower.truncations):
                assert full == truncation_cohomology(d, mu, n)
            assert tower.escape_table() == escape_table(d, mu, n_max)
            if n_max >= 2:
                assert tower.renormalized() == renormalized_nearby_cohomology(d, mu, n_max)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_steps_keep_only_nonzero_gysin_ranks(self, entry):
        d, mu = entry.d, entry.mu
        tower = gysin_tower(d, mu, 6)
        assert len(tower.gysin_ranks) == 6
        for n, ranks in enumerate(tower.gysin_ranks, start=1):
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
        for n_max, walked in enumerate(_walk_gysin_towers(d, mu, MAX_N_MAX)):
            tower = gysin_tower(d, mu, n_max)
            assert tower == walked
            assert tower.escape_table() == walked.escape_table()
            if n_max >= 2:
                k = n_max % 3 - 1
                assert tower.renormalized(k) == walked.renormalized(k)

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
                return replace(solution, b=solution.b.shifted(1))

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
            return replace(
                system,
                a=system.a.plus({5: 1}),
                c_dims=system.c_dims.plus({8: 1}),
                rank_facts=system.rank_facts + (RankFact("residue", 8, 1, "test: reach"),),
            )

        monkeypatch.setattr(cohom, "_gysin_system", reaching)
        assert solve_les_detailed(reaching(GradedDims({0: 1}), 2)).b == GradedDims({0: 1})
        with pytest.raises(RuntimeError, match="do not split"):
            gysin_tower(2, 4, 6)
        # Below the first separated step the tower is the direct walk alone.
        assert gysin_tower(2, 4, 2) == _walk_gysin_towers(2, 4, 2)[2]

    def test_block_union_must_match_the_direct_solve(self, monkeypatch):
        solve = cohom.solve_les_detailed

        def merged_segments(system):
            solution = solve(system)
            if system.a.dim(0) != 1 or len(system.a.support) < 2:
                return solution
            return replace(solution, segments=(sum(solution.segments, ()),))

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
        assert truncation_cohomology(1, 1, n) == GradedDims(expected)

    def test_plane_cubic_base(self):
        assert truncation_cohomology(2, 4, 0) == GradedDims({0: 1, 1: 4})

    def test_plane_cubic_two_steps(self):
        assert truncation_cohomology(2, 4, 2) == GradedDims({0: 1, 9: 4})

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_concentration_degree(self, entry):
        for n in range(4):
            full = truncation_cohomology(entry.d, entry.mu, n)
            reduced = full.drop_unit()
            assert reduced.items() == ((2 * n * entry.d + entry.d - 1, entry.mu),)


class TestEscape:
    def test_quadric(self):
        assert [(row.n, row.degree) for row in escape_table(1, 1, 3)] == [
            (0, 0), (1, 2), (2, 4), (3, 6)
        ]

    def test_plane_cubic(self):
        assert [(row.n, row.degree) for row in escape_table(2, 4, 2)] == [(0, 1), (1, 5), (2, 9)]

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_strictly_increasing_in_steps_of_2d(self, entry):
        degrees = [row.degree for row in escape_table(entry.d, entry.mu, 4)]
        assert all(b - a == 2 * entry.d for a, b in zip(degrees, degrees[1:]))

    def test_table_records_declared_floor(self):
        rows = escape_table(2, 4, 2)
        assert rows[0] == EscapeRow(n=0, degree=1, declared_floor=3)
        for row in rows:
            assert row.declared_floor == declared_support_floor(2, row.n)
            # the computed degree sits exactly d below the declared floor
            assert row.declared_floor - row.degree == 2
            assert not row.meets_floor


class TestRenormalized:
    def test_quadric(self):
        report = renormalized_nearby_cohomology(1, 1, 4)
        assert report.stable == GradedDims({0: 1})
        assert report.stabilization_step[0] == 1

    def test_plane_cubic(self):
        report = renormalized_nearby_cohomology(2, 4, 4)
        assert report.stable == GradedDims({1: 4})
        assert report.stabilization_step[1] == 0
        assert report.stabilization_step[0] == 1

    def test_space_cubic(self):
        assert renormalized_nearby_cohomology(3, 8, 4).stable == GradedDims({2: 8})

    def test_negative_degrees_report_zero(self):
        report = renormalized_nearby_cohomology(2, 4, 4)
        negatives = [s for s in report.tracked if s < 0]
        assert negatives
        for s in negatives:
            assert report.stable.dim(s) == 0
            assert s in report.stabilization_step

    def test_unit_death_steps_match_divisibility(self):
        report = renormalized_nearby_cohomology(2, 4, 4)
        # s = -4 = -2d: unit lives at step 1, dies at step 2
        assert report.stabilization_step[-4] == 2
        # s = -2 is never hit: stable zero from the start
        assert report.stabilization_step[-2] == 0

    def test_surfaces_the_residue_axiom(self):
        report = renormalized_nearby_cohomology(2, 4, 4)
        assert any("residue" in axiom for axiom in report.axioms)

    def test_requires_tall_enough_tower(self):
        with pytest.raises(ValueError):
            renormalized_nearby_cohomology(2, 4, 1)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.source)
    def test_theorem_values_on_corpus(self, entry):
        report = renormalized_nearby_cohomology(entry.d, entry.mu, 4)
        assert report.stable == GradedDims({entry.d - 1: entry.mu})

    @pytest.mark.parametrize("k", [-2, -1, 1, 3])
    def test_normalization_shift_covariance(self, k):
        base = renormalized_nearby_cohomology(2, 4, 4)
        shifted = renormalized_nearby_cohomology(2, 4, 4, normalization=k)
        assert shifted.normalization == k
        # a normalization change by k rigidly shifts every renormalized degree
        # by 2k (the colimit degree offset is twice the normalization)
        assert shifted.stable == base.stable.shifted(-2 * k)
        assert set(shifted.tracked) == {s - 2 * k for s in base.tracked}
        assert shifted.stabilization_step == {
            s - 2 * k: step for s, step in base.stabilization_step.items()
        }
