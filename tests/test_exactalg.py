"""The tests' reference ring, canonical form, and the exact-coefficient invariants."""

from __future__ import annotations

import copy
import pickle
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsing.exactalg import LoopPoly, LoopVar, Monomial

from conftest import MissingAssignment, Poly, rename_variables, substitute, weight_set, zero_out


def var(coord: int, cdeg: int) -> Poly:
    return Poly.variable(LoopVar(coord, cdeg))


z0, z1, zm1 = var(1, 0), var(1, 1), var(1, -1)
y0 = var(2, 0)


def test_rational_invariants():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6).denominator == 2
    assert Fraction(3, -6).numerator == -1
    zero = Fraction(0, 7)
    assert (zero.numerator, zero.denominator) == (0, 1)


def test_loopvar_order_is_cdeg_major():
    assert LoopVar(2, -1) < LoopVar(1, 0) < LoopVar(2, 0) < LoopVar(1, 1)
    variables = [LoopVar(c, j) for c in (3, 1, 2) for j in (1, -2, 0)]
    assert sorted(variables) == sorted(variables, key=lambda v: (v.cdeg, v.coord))
    assert min(variables) == LoopVar(1, -2) and max(variables) == LoopVar(3, 1)
    assert LoopVar(1, 0) <= LoopVar(1, 0) and LoopVar(2, 1) > LoopVar(3, 0)


def test_loopvar_public_surface():
    v = LoopVar(2, -3)
    assert (v.coord, v.cdeg) == (2, -3)
    assert LoopVar(coord=2, cdeg=-3) == v
    assert str(v) == "z2_-3"
    assert repr(v) == "LoopVar(coord=2, cdeg=-3)"
    assert str(Monomial({v: 2, LoopVar(1, 0): 1})) == "z2_-3^2*z1_0"
    with pytest.raises(AttributeError):
        v.coord = 1


def test_loopvar_rejects_coordinates_below_one():
    for coord in (0, -1):
        with pytest.raises(ValueError, match="coordinate index must be >= 1"):
            LoopVar(coord, 0)


def test_equal_loopvars_hash_equal():
    a, b = LoopVar(1, 4), LoopVar(1, 4)
    assert a == b and hash(a) == hash(b)
    assert a != LoopVar(4, 1)
    assert len({a, b, LoopVar(4, 1)}) == 2
    assert {a: "kept"}[b] == "kept"


def test_loopvar_copies_and_pickles():
    v = LoopVar(3, -1)
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(twin) is LoopVar and twin == v and twin.coord == 3


def test_add_examples():
    x, y = z0, y0
    assert (x + y) + (x - y) == 2 * x
    p = z0**2 + 2 * z1 * zm1
    assert p + LoopPoly() == p
    assert p + -(z0**2) == 2 * z1 * zm1


def test_mul_examples():
    assert z0 * z0 == z0**2
    assert (z1 + zm1) * (z1 - zm1) == z1**2 - zm1**2


def _naive_mul(p: LoopPoly, q: LoopPoly) -> Poly:
    # Oracle: expand term against term and accumulate by repeated addition.
    total = Poly()
    for mono, coeff in p.terms:
        for other, c2 in q.terms:
            total = total + LoopPoly({Monomial(mono.factors + other.factors): coeff * c2})
    return total


def test_mul_matches_naive_expansion():
    rng = random.Random(20240817)
    variables = [LoopVar(c, j) for c in (1, 2) for j in (-2, -1, 0, 1)]
    for _ in range(25):
        polys = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(0, 8)):
                mono = Monomial(
                    [(rng.choice(variables), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
                )
                terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            polys.append(Poly(terms))
        p, q = polys
        assert p * q == _naive_mul(p, q)


def test_partial_examples():
    p = z0**2 + 2 * z1 * zm1
    assert p.partial(LoopVar(1, 1)) == 2 * zm1
    assert Poly.constant(7).partial(LoopVar(1, 0)) == LoopPoly()
    assert (z0**3).partial(LoopVar(1, 0)) == 3 * z0**2


def test_substitute_binomial():
    assert substitute(z0**2, {LoopVar(1, 0): z0 + z1}) == z0**2 + 2 * z0 * z1 + z1**2


def test_substitute_identity():
    p = z0**2 + 2 * z1 * zm1 - y0
    identity = {v: Poly.variable(v) for v in p.variables()}
    assert substitute(p, identity) == p


def test_substitute_cube():
    image = zm1 + z0
    expected = zm1**3 + 3 * zm1**2 * z0 + 3 * zm1 * z0**2 + z0**3
    assert substitute(z0**3, {LoopVar(1, 0): image}) == expected


def test_substitute_missing_assignment():
    with pytest.raises(MissingAssignment):
        substitute(z0 * y0, {LoopVar(1, 0): z0})


def test_grading_examples():
    # The reference weight_set of the loop functional tests.
    lam = z0**2 + 2 * z1 * zm1
    assert weight_set(lam, lambda v: v.cdeg) == {0}
    assert weight_set(lam, lambda v: 1) == {2}
    assert weight_set(LoopPoly(), lambda v: v.cdeg) == set()
    weights = {LoopVar(1, 0): 1, LoopVar(2, 0): 5}
    assert weight_set(z0 * y0, weights.__getitem__) == {6}


def test_canonical_form_is_insertion_order_independent():
    items = [
        (Monomial({LoopVar(1, 0): 2}), Fraction(1)),
        (Monomial({LoopVar(1, 1): 1, LoopVar(1, -1): 1}), Fraction(2)),
        (Monomial({LoopVar(2, 0): 1}), Fraction(-3)),
        (Monomial({LoopVar(1, 0): 2}), Fraction(2)),
    ]
    rng = random.Random(7)
    reference = LoopPoly(items)
    for _ in range(10):
        shuffled = items[:]
        rng.shuffle(shuffled)
        other = LoopPoly(shuffled)
        assert other == reference
        assert other.terms == reference.terms
        assert str(other) == str(reference)


def test_zero_out():
    # The reference zero_out of the loop functional tests.
    p = z0 * z1 + 2 * zm1 * y0 + 3 * z0
    assert zero_out(p, lambda v: v.cdeg > 0) == 2 * zm1 * y0 + 3 * z0
    assert zero_out(p, lambda v: v.coord == 2) == z0 * z1 + 3 * z0
    assert zero_out(p, lambda v: v.cdeg > 1) is p


def test_zero_coefficients_are_pruned():
    p = LoopPoly({Monomial({LoopVar(1, 0): 1}): Fraction(0)})
    assert not p
    q = z0 - z0
    assert not q and len(q) == 0 and q.terms == ()


# -- randomized algebraic laws -------------------------------------------------

_vars = st.builds(LoopVar, st.integers(1, 2), st.integers(-2, 2))
_monomials = st.dictionaries(_vars, st.integers(1, 3), max_size=3).map(Monomial)
_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
_polys = st.dictionaries(_monomials, _coeffs, max_size=4).map(Poly)


@settings(deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(deadline=None)
@given(_polys, _polys, _vars)
def test_partial_is_a_derivation(p, q, v):
    assert (p * q).partial(v) == p * q.partial(v) + q * p.partial(v)


@settings(deadline=None)
@given(_polys, _polys, st.dictionaries(_vars, _polys, max_size=6))
def test_substitute_commutes_with_mul(p, q, images):
    # make the assignment total on everything that occurs
    assignment = {v: Poly.variable(v) for v in (p * q).variables()}
    assignment.update({v: img for v, img in images.items()})
    for v in set(p.variables()) | set(q.variables()):
        assignment.setdefault(v, Poly.variable(v))
    assert substitute(p * q, assignment) == substitute(p, assignment) * substitute(q, assignment)


# -- each operation against the accumulating version it replaced ---------------
# These merge equal monomials in a dict of their own before the constructor
# prunes and orders them; the operations hand the constructor raw terms.


def _reference_add(p: LoopPoly, q: LoopPoly) -> LoopPoly:
    acc = dict(p.terms)
    for mono, coeff in q.terms:
        prev = acc.get(mono)
        acc[mono] = coeff if prev is None else prev + coeff
    return LoopPoly(acc)


def _reference_mul(p: LoopPoly, q: LoopPoly) -> LoopPoly:
    acc: dict[Monomial, Fraction] = {}
    for ma, ca in p.terms:
        for mb, cb in q.terms:
            m = Monomial(ma.factors + mb.factors)
            prev = acc.get(m)
            acc[m] = ca * cb if prev is None else prev + ca * cb
    return LoopPoly(acc)


def _reference_partial(p: LoopPoly, var: LoopVar) -> LoopPoly:
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms:
        factors = mono.factors
        i = bisect_left(factors, (var,))
        if i == len(factors) or factors[i][0] != var:
            continue
        e = factors[i][1]
        m = Monomial(factors[:i] + ((var, e - 1),) + factors[i + 1 :])
        prev = acc.get(m)
        acc[m] = coeff * e if prev is None else prev + coeff * e
    return LoopPoly(acc)


def _assert_operations_match_references(p, q, v):
    assert (p + q).terms == _reference_add(p, q).terms
    assert (p * q).terms == _reference_mul(p, q).terms
    assert p.partial(v).terms == _reference_partial(p, v).terms


@settings(deadline=None)
@given(_polys, _polys, _vars)
def test_operations_match_their_accumulating_references(p, q, v):
    _assert_operations_match_references(p, q, v)
    _assert_operations_match_references(p, -p, v)


def test_operations_match_their_references_where_terms_cancel():
    x, y, w = LoopVar(1, 0), LoopVar(2, 0), LoopVar(1, 1)
    px, py, pw = map(Poly.variable, (x, y, w))
    p = 3 * px * pw - Fraction(1, 2) * py**2

    # a sum that cancels to zero
    assert (p + -p).terms == _reference_add(p, -p).terms == ()
    # a product whose cross terms cancel
    square = ((px + py) * (px - py)).terms
    assert square == _reference_mul(px + py, px - py).terms == (px**2 - py**2).terms
    assert len(square) == 2
    # a partial by a variable that does not occur
    assert p.partial(LoopVar(2, 5)).terms == _reference_partial(p, LoopVar(2, 5)).terms == ()
    # the tests' renaming helper, sending two variables to one whose coefficients cancel
    cancelling = 2 * px * pw - 2 * py * pw + px**2
    renamed = rename_variables(cancelling, lambda var: x if var == y else var)
    assert renamed.terms == (px**2).terms
    _assert_operations_match_references(p, -p, y)


# -- the monomial order against the grevlex definition --------------------------


def _grevlex_greater(a: Monomial, b: Monomial) -> bool:
    """a > b in grevlex (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.2).

    The variables are x_1 > x_2 > ... > x_n in decreasing (cdeg, coord); a > b
    when a has the larger total degree, or the degrees agree and the rightmost
    nonzero entry of the exponent difference a - b is negative.
    """
    variables = sorted(
        set(a.variables()) | set(b.variables()), key=lambda v: (v.cdeg, v.coord), reverse=True
    )
    alpha = [dict(a.factors).get(v, 0) for v in variables]
    beta = [dict(b.factors).get(v, 0) for v in variables]
    if sum(alpha) != sum(beta):
        return sum(alpha) > sum(beta)
    differences = [x - y for x, y in zip(alpha, beta) if x != y]
    return bool(differences) and differences[-1] < 0


_order_vars = st.builds(LoopVar, st.integers(1, 3), st.integers(-3, 3))
_order_monomials = st.dictionaries(_order_vars, st.integers(1, 4), max_size=4).map(Monomial)


@settings(deadline=None)
@given(_order_monomials, _order_monomials)
def test_monomial_order_is_grevlex(a, b):
    assert (a < b) == _grevlex_greater(b, a)
    assert (a > b) == _grevlex_greater(a, b)
    assert (a == b) == (a.factors == b.factors)


@settings(deadline=None)
@given(_order_monomials, st.data())
def test_monomial_order_is_grevlex_at_equal_degree(a, data):
    # b has the degree of a, spread over randomly drawn variables
    degree = sum(e for _, e in a.factors)
    spread = data.draw(st.lists(_order_vars, min_size=degree, max_size=degree))
    b = Monomial([(v, 1) for v in spread])
    assert sum(e for _, e in b.factors) == degree
    assert (a < b) == _grevlex_greater(b, a)
    assert (b < a) == _grevlex_greater(a, b)


def test_grevlex_textbook_examples():
    # The book's x > y > z are z3_0 > z2_0 > z1_0 here.
    x, y, z = LoopVar(3, 0), LoopVar(2, 0), LoopVar(1, 0)
    assert Monomial({x: 4, y: 7, z: 1}) > Monomial({x: 4, y: 2, z: 3})
    assert Monomial({x: 1, y: 5, z: 2}) > Monomial({x: 4, y: 1, z: 3})
    assert Monomial({x: 1}) > Monomial({y: 1}) > Monomial({z: 1}) > Monomial()


@settings(deadline=None)
@given(st.dictionaries(_order_monomials, _coeffs, max_size=8).map(LoopPoly))
def test_terms_are_in_decreasing_grevlex_order(p):
    monomials = [mono for mono, _ in p.terms]
    assert all(_grevlex_greater(s, t) for s, t in zip(monomials, monomials[1:]))


def _sorted_by_variable(mono: Monomial) -> bool:
    """The invariant the structural checks read: factors strictly increase in (cdeg, coord)."""
    keys = [(v.cdeg, v.coord) for v, _ in mono.factors]
    return all(a < b for a, b in zip(keys, keys[1:]))


@settings(deadline=None)
@given(st.lists(st.tuples(_vars, st.integers(0, 3)), max_size=6), _monomials)
def test_every_way_of_building_a_monomial_sorts_its_factors(pairs, other):
    variables = [v for v, _ in pairs]
    exponents = [e for _, e in pairs]
    built = [
        Monomial(dict(pairs)),
        Monomial(zip(variables, exponents)),
        Monomial((v, e) for v, e in pairs),
        Monomial(tuple(pairs)),
        Monomial(list(pairs)),
    ]
    built.append(Monomial(built[0].factors + other.factors))
    built += [mono for v in variables for mono, _ in Poly({built[1]: 1}).partial(v).terms]
    for mono in built:
        assert _sorted_by_variable(mono)
        assert all(e > 0 for _, e in mono.factors)
    # Every route merges repeated variables to the same monomial.
    assert built[1] == built[2] == built[3] == built[4]
