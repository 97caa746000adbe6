"""Buchberger, standard monomials, and the two Milnor-number routes."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from loopsing import grobner
from loopsing.exactalg import LoopPoly, LoopVar, Monomial
from loopsing.grobner import (
    GroebnerBasis,
    Ideal,
    Infinite,
    NotIsolated,
    buchberger,
    jacobian_ideal,
    milnor_number,
    milnor_number_oracle,
    normal_form,
    s_polynomial,
    standard_monomials,
)

from conftest import NON_ISOLATED_SOURCES, build, fermat_source


def _store_repeatedly(path: str, source: str, times: int) -> None:
    gb = buchberger(jacobian_ideal(build(source)))
    for _ in range(times):
        grobner._cache_store(path, gb)


def lv(coord: int) -> LoopPoly:
    return LoopPoly.variable(LoopVar(coord, 0))


x, y, w = lv(1), lv(2), lv(3)


def mono(*pairs) -> Monomial:
    return Monomial(tuple((LoopVar(c, 0), e) for c, e in pairs))


class TestBuchberger:
    def test_principal_ideal_normalizes(self):
        gb = buchberger(Ideal([2 * x], 1))
        assert gb.elements == (x,)
        assert gb.reduced

    def test_fermat_cubic_jacobian(self):
        gb = buchberger(Ideal([3 * x**2, 3 * y**2], 2))
        assert gb.elements == (x**2, y**2)

    def test_linear_pair(self):
        gb = buchberger(Ideal([x + y, x - y], 2))
        assert gb.elements == (x, y)

    def test_idempotent(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3 + w^3")))
        again = buchberger(Ideal(gb.elements, gb.d))
        assert again == gb

    def test_all_s_polynomials_reduce_to_zero(self):
        gb = buchberger(jacobian_ideal(build("x^4 + y^4")))
        elements = gb.elements
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                assert normal_form(s_polynomial(elements[i], elements[j]), elements).is_zero

    def test_nontrivial_pair_processing(self):
        # x^2 y - 1 and x y^2 - 1 need genuine S-polynomial work
        f = x**2 * y - LoopPoly.constant(1)
        g = x * y**2 - LoopPoly.constant(1)
        gb = buchberger(Ideal([f, g], 2))
        for p in (f, g):
            assert normal_form(p, gb.elements).is_zero
        lead = {e.leading_monomial for e in gb.elements}
        assert mono((1, 1)) in lead or mono((2, 1)) in lead  # x - y reduces one of them


class TestNormalForm:
    def test_reduction_is_idempotent(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3")))
        probe = x**4 + x * y**2 + y + LoopPoly.constant(5)
        once = normal_form(probe, gb.elements)
        assert normal_form(once, gb.elements) == once

    def test_remainder_has_no_reducible_monomial(self):
        gb = buchberger(jacobian_ideal(build("x^3 + y^3")))
        remainder = normal_form(x**5 + y**5 + x**2 * y**2, gb.elements)
        heads = gb.leading_monomials()
        for m, _ in remainder.terms:
            assert not any(h.divides(m) for h in heads)


class TestStandardMonomials:
    def test_principal(self):
        gb = buchberger(Ideal([x], 1))
        assert standard_monomials(gb, 5) == [Monomial()]

    def test_fermat_cubic(self):
        gb = buchberger(Ideal([x**2, y**2], 2))
        assert standard_monomials(gb, 10) == [
            Monomial(),
            mono((1, 1)),
            mono((2, 1)),
            mono((1, 1), (2, 1)),
        ]

    def test_infinite_when_a_variable_is_free(self):
        gb = buchberger(Ideal([x], 2))
        assert standard_monomials(gb, 10) is Infinite

    def test_unit_ideal_has_empty_quotient(self):
        gb = buchberger(Ideal([LoopPoly.constant(2), x], 1))
        assert standard_monomials(gb, 5) == []

    def test_requires_reduced_basis(self):
        gb = GroebnerBasis(elements=(x,), reduced=False, d=1)
        with pytest.raises(ValueError):
            standard_monomials(gb, 5)

    def test_cap_guard(self):
        gb = buchberger(Ideal([x**4], 1))
        with pytest.raises(ValueError):
            standard_monomials(gb, 1)


class TestMilnorNumber:
    def test_quadric(self):
        assert milnor_number(build("z^2")) == 1
        assert milnor_number_oracle(build("z^2")) == 1

    def test_fermat_cubic(self):
        assert milnor_number(build("x^3 + y^3")) == 4
        assert milnor_number_oracle(build("x^3 + y^3")) == 4

    def test_space_quadric(self):
        assert milnor_number_oracle(build("x^2 + y^2 + w^2")) == 1

    def test_corpus_values(self, corpus_entry, corpus_function):
        assert milnor_number(corpus_function) == corpus_entry.mu
        assert milnor_number_oracle(corpus_function) == corpus_entry.mu

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_fermat_family(self, d, delta):
        func = build(fermat_source(d, delta))
        expected = (delta - 1) ** d
        assert milnor_number(func) == expected
        assert milnor_number_oracle(func) == expected

    @pytest.mark.parametrize("source", NON_ISOLATED_SOURCES)
    def test_non_isolated_raises(self, source):
        func = build(source)
        with pytest.raises(NotIsolated):
            milnor_number(func)
        with pytest.raises(NotIsolated):
            milnor_number_oracle(func)

    def test_mixed_cubic_is_isolated(self):
        # x^3 + x*y^2 has Jacobian (3x^2 + y^2, 2xy): only common zero is 0
        assert milnor_number(build("x^3 + x*y^2")) == 4


class TestIdealValidation:
    def test_rejects_zero_generator_set(self):
        with pytest.raises(ValueError):
            Ideal([LoopPoly.zero()], 1)

    def test_rejects_loop_variables(self):
        with pytest.raises(ValueError):
            Ideal([LoopPoly.variable(LoopVar(1, -1))], 1)


class TestCache:
    def test_round_trip(self, tmp_path):
        ideal = jacobian_ideal(build("x^4 + y^4"))
        first = buchberger(ideal, cache_dir=str(tmp_path))
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        second = buchberger(ideal, cache_dir=str(tmp_path))
        assert second == first

    def test_corrupt_cache_is_recomputed(self, tmp_path):
        ideal = jacobian_ideal(build("x^3 + y^3"))
        buchberger(ideal, cache_dir=str(tmp_path))
        (path,) = tmp_path.glob("*.json")
        path.write_text("{not json")
        assert buchberger(ideal, cache_dir=str(tmp_path)).elements == (x**2, y**2)

    def test_distinct_ideals_get_distinct_keys(self, tmp_path):
        buchberger(jacobian_ideal(build("x^3 + y^3")), cache_dir=str(tmp_path))
        buchberger(jacobian_ideal(build("x^4 + y^4")), cache_dir=str(tmp_path))
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_concurrent_writers_of_one_key(self, tmp_path):
        ideal = jacobian_ideal(build("x^3 + y^3"))
        path = tmp_path / (grobner._cache_key(ideal) + ".json")
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=context) as pool:
            futures = [
                pool.submit(_store_repeatedly, str(path), "x^3 + y^3", 300) for _ in range(3)
            ]
            for future in futures:
                future.result(timeout=120)
        assert list(tmp_path.iterdir()) == [path]
        assert grobner._cache_load(str(path), ideal) == buchberger(ideal)

    def test_unusable_cache_directory_only_warns(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        ideal = jacobian_ideal(build("x^3 + y^3"))
        assert buchberger(ideal, cache_dir=str(blocker)).elements == (x**2, y**2)
        assert capsys.readouterr().err.startswith("loopsing: warning:")

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(grobner.os, "replace", refuse)
        ideal = jacobian_ideal(build("x^3 + y^3"))
        assert buchberger(ideal, cache_dir=str(tmp_path)).elements == (x**2, y**2)
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
