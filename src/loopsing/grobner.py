"""Jacobian-ideal computations over exact rationals.

Buchberger's algorithm with the normal selection strategy and both classical
pair-elimination criteria, reduced bases, the standard-monomial count, and
the Milnor number of a homogeneous polynomial with isolated singularity.  A
second, Groebner-free route decides isolation from the rank of one Macaulay
matrix, the (monomial * partial) products of one degree, taken modulo a prime
and exactly when that falls short, and serves as an independent oracle.

The monomial order is the graded reverse lexicographic order fixed in
exactalg; any global order yields the same Milnor number, this one is fixed
for determinism.  buchberger itself runs sequentially (its loop is order
sensitive) but independent invocations on distinct inputs are safe.

Inside this module a polynomial is a sequence of (exponent vector, int)
terms in decreasing grevlex order, entry i of a vector the exponent of
z^(i+1)_0.  Each is primitive: its coefficients have content 1 and its
leading coefficient is positive, so it stands for the whole line of its
rational multiples.  An `Ideal` holds its generators so, made by
`_integer_terms`; the Jacobian ideal's are InputFunction's `integer_partials`,
built once per function and read by both Milnor routes.  Fractions are built
only for `GroebnerBasis.elements`, the monic basis (`_from_terms`).
Buchberger, the basis reduction, the audit and the oracle do no Fraction
arithmetic and build no polynomial object:

- division (`_reduce`) keeps the pending integer coefficients in a dict and
  their packed vectors in a heap, cancels each term fraction-free against
  a divisor's lead and subtracts the divisor's tail, shifted by the quotient
  vector, in place; the remainder comes out up to a nonzero multiplier;
- the divisors are a record (`_Divisors`) that Buchberger, the basis
  reduction and the audit each build once and append to as their basis
  grows; it remembers each vector's first dividing lead, so a division looks
  a vector's divisor up once per basis;
- one pair loop (`_pairs_to_reduce`) serves Buchberger and the audit of the
  reduced basis (`_verify_basis`): it keeps the leads' staircase as they
  arrive, and the S-pairs wait in a heap keyed by (packed lcm, i, j), each
  pushed when its second element joins the basis unless it lies past the
  staircase top; it yields only those that the coprime criterion, on
  support masks, and the chain criterion in the order taken, on bit sets,
  leave; Buchberger makes each nonzero remainder primitive once and appends
  it, and the audit fails at the first nonzero one;
- the Milnor count and the pair loop's degree cut read the leading vectors
  only (`_staircase`);
- the oracle packs each (monomial * partial) row into one int, a 64-bit slot
  per column, and eliminates it modulo a prime below 2^20 (`_rank_mod_p`);
  a matrix that falls short of full rank goes to `_rank`, which eliminates
  sparse integer rows fraction-free, dividing each by its content.

Division, the S-pairs, the basis reduction and the audit hold each exponent
vector packed into one int (`_packed`), as Monagan and Pearce do in
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors" (CASC 2007) and "Sparse polynomial division using a heap" (J. Symb.
Comput. 2011).  Its fields, _FIELD bits each, are from the bottom up the d
entries e_i, then deg - e_i for i < d-1, then the total degree deg.  Every
field is at most deg, and deg at most _MAX_DEGREE, so the top bit of each
entry field, its guard bit, is clear.  So:

- a monomial product is an int sum and a quotient by a divisor an int
  difference, since no field overflows or goes negative;
- int order is grevlex order: deg decides first, then the smaller e_0, and
  so on, and the upper fields fix the vector;
- l divides e exactly when ((e | G) - l) & G == G, for the mask G of the
  guard bits: an entry field of e below l's borrows its guard bit, and no
  field borrows from the one above it;
- packing is linear, so a vector packs as one dot product with the packed
  unit vectors (`_weights`), and one `struct` unpack of its bytes reads its
  entry fields back;
- the same borrow picks the fieldwise max of two entry parts, so the pair
  loop forms each S-pair's lcm, its degree and its packed key on the packed
  leads, and each lead's support mask, the guard bits of its nonzero
  entries, is ((l & L) | G) - O, masked by G, for the mask L of the entry
  fields and the ones O of their lowest bits.

`buchberger` packs the generators once and unpacks the reduced basis once,
so `GroebnerBasis`, the Milnor count and the oracle read tuples; inside, only
the pair loop's staircase reads leads as tuples.  A degree above _MAX_DEGREE,
or division work beyond MAX_REDUCTION_WORK, raises a ValueError.

Fraction-free elimination is classical: Bareiss 1968, and Cox, Little and
O'Shea, "Ideals, Varieties, and Algorithms", ch. 2.  The Hilbert function of
a complete intersection: Froeberg 1985, and Eisenbud, "Commutative Algebra",
section 17.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import mul

from .exactalg import LoopPoly, LoopVar, Monomial
from .loopfun import InputFunction, _integer_terms, _primitive

__all__ = [
    "Ideal",
    "GroebnerBasis",
    "NotIsolated",
    "buchberger",
    "jacobian_ideal",
    "milnor_number",
    "milnor_number_oracle",
]

Exponents = tuple[int, ...]
Term = tuple[Exponents, int]
Terms = list[Term]
PackedTerm = tuple[int, int]
PackedTerms = list[PackedTerm]


class NotIsolated(ArithmeticError):
    """The singular locus is positive dimensional.

    Raised when the Jacobian ideal has infinitely many standard monomials,
    i.e. the quotient by the partial derivatives is not finite dimensional.
    """


# -- exponent-vector terms ------------------------------------------------------

# Each field of a packed exponent vector is _FIELD bits wide.  The top bit of
# an entry's field is its guard bit, so an entry, and with it every field,
# holds at most _MAX_DEGREE, whose ones fill the bits below the guard bit.
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
_MAX_DEGREE = (1 << (_FIELD - 1)) - 1


# The division work one Buchberger run may do: each tail term a division
# subtracts counts once per 64-bit word of the coefficient it cancels, so
# coefficient growth is charged as well as term count.  About
# 100 times the most any test input or benchmark input needs (53,162, for a
# dense quartic in four variables).  x^8+y^8+w^8+v^8+(x+y+w+v)^8, whose basis
# ran a minute unbounded, meets it in its 225th S-pair reduction, after about
# 1.1 s on a 2 vCPU Intel Xeon.
MAX_REDUCTION_WORK = 6_000_000


class _BasisTooLarge(ValueError):
    """A Groebner basis computation would exceed MAX_REDUCTION_WORK, or meet
    an exponent vector of degree above _MAX_DEGREE."""


def _too_large(degree: int) -> _BasisTooLarge:
    return _BasisTooLarge(
        f"the Groebner basis computation meets a monomial of degree {degree}, "
        f"above {_MAX_DEGREE}"
    )


@functools.cache
def _weights(d: int) -> tuple[int, ...]:
    """The packed unit vectors of d entries, so that e packs to sum(e_i * w_i).

    e_i is its own field d-1-i and a term of deg in each upper field, but not
    of deg - e_i, the field d-1 above its own (for i < d-1).
    """
    upper = ((1 << _FIELD * d) - 1) // _FIELD_MASK << _FIELD * d  # 1 in each upper field
    return tuple(
        (1 << _FIELD * j) + upper - ((1 << _FIELD * (j + d - 1)) if j else 0)
        for j in range(d - 1, -1, -1)
    )


@functools.cache
def _entry_fields(d: int) -> struct.Struct:
    """The d entry fields, e_0 first, as the last 2d of 4d big-endian bytes."""
    return struct.Struct(f">{2 * d}x{d}H")  # H: one _FIELD-bit field


def _packed(e: Exponents) -> int:
    """The exponent vector as one int: fields, from the top, deg, deg - e_i for
    i < d-1, then e_0 .. e_{d-1}.  Raises _BasisTooLarge above _MAX_DEGREE.

    Packing is linear while no field overflows, and an overflow only carries
    into the degree field, so the degree read from the top field exceeds
    _MAX_DEGREE exactly when deg does.
    """
    d = len(e)
    v = sum(map(mul, e, _weights(d)))
    degree = v >> _FIELD * (2 * d - 1) if d else 0
    if degree > _MAX_DEGREE:
        raise _too_large(sum(e))
    return v


def _unpacked(v: int, d: int) -> Exponents:
    """The exponent vector of d entries that `_packed` packed into v."""
    return _entry_fields(d).unpack(v.to_bytes(4 * d, "big"))


class _Run:
    """One computation's division state: the number d of vector entries, the
    guard mask of their packed fields, and the work its divisions may still
    do before _BasisTooLarge is raised."""

    __slots__ = ("d", "guard", "left")

    def __init__(self, d: int):
        self.d = d
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(d))
        self.left = MAX_REDUCTION_WORK


def _coordinates(d: int) -> tuple[LoopVar, ...]:
    """z^1_0, ..., z^d_0: the variables of the entries of an exponent vector."""
    return tuple(LoopVar(coord, 0) for coord in range(1, d + 1))


def _from_terms(terms: Iterable[Term], variables: Sequence[LoopVar], scale: Fraction) -> LoopPoly:
    """The LoopPoly with the terms' coefficients times `scale`."""
    return LoopPoly((Monomial(zip(variables, e)), c * scale) for e, c in terms)


def _packed_terms(terms: Iterable[Term]) -> PackedTerms:
    return [(_packed(e), c) for e, c in terms]


def _unpacked_terms(terms: Iterable[PackedTerm], d: int) -> Terms:
    return [(_unpacked(e, d), c) for e, c in terms]


class _Divisors:
    """The divisors of a division, as a growing basis holds them.

    `heads` has one (lead, lead coefficient, tail) triple per nonzero element,
    in the order the elements were appended; `first` maps a packed vector
    already met to the first triple whose lead divides it.  An appended lead
    comes after every earlier one, so a first divisor stays first and `first`
    stays valid for as long as the record lives; a vector no lead divided is
    not remembered, since a later lead may divide it.  Each record belongs to
    one computation and is built once per basis.
    """

    __slots__ = ("heads", "first")

    def __init__(self, elements: Iterable[PackedTerms] = ()):
        self.heads = [(g[0][0], g[0][1], g[1:]) for g in elements if g]
        self.first: dict[int, tuple[int, int, PackedTerms]] = {}

    def append(self, g: PackedTerms) -> None:
        if g:
            self.heads.append((g[0][0], g[0][1], g[1:]))


def _reduce(
    terms: Iterable[PackedTerm], divisors: _Divisors, run: _Run
) -> tuple[PackedTerms, int]:
    """Remainder of the sum of `terms` under division by the divisors, up to a
    nonzero integer multiplier; returns (remainder, multiplier).

    Vectors are packed for `run`, and every tail subtracted is charged to its
    work budget.  The terms may come in any order and repeat a vector.  The
    largest pending term c*x^e is cancelled against the first divisor whose
    leading term a*x^l divides it, fraction-free: with g = gcd(c, a), the
    pending coefficients and the remainder so far are multiplied by a/g, and
    (c/g)*x^(e-l) times the divisor's tail is subtracted straight from the
    pending coefficients.  A term no leading vector divides goes to the
    remainder, which comes out in decreasing order.  The steps are those of
    division over the rationals, so the remainder is the rational remainder
    times the product of the factors a/g, the returned multiplier.
    """
    pending: dict[int, int] = {}
    for e, c in terms:
        pending[e] = pending.get(e, 0) + c
    # The heap holds the negated vectors, so it pops the largest vector first.
    # A vector is in the heap while it is in pending.
    heap = [-e for e in pending]
    heapify(heap)
    heads, first = divisors.heads, divisors.first
    remainder: PackedTerms = []
    multiplier = 1
    guard, left = run.guard, run.left
    while heap:
        e = -heappop(heap)
        c = pending.pop(e)
        if not c:
            continue
        head = first.get(e)
        if head is None:
            # l divides e when no entry field of e - l borrows its guard bit.
            probe = e | guard
            for head in heads:
                if (probe - head[0]) & guard == guard:
                    first[e] = head
                    break
            else:
                remainder.append((e, c))
                continue
        lead, lead_c, tail = head
        shift = e - lead
        common = math.gcd(c, lead_c)
        scale = lead_c // common
        if scale != 1:
            multiplier *= scale
            for m in pending:
                pending[m] *= scale
            remainder = [(r, rc * scale) for r, rc in remainder]
        factor = c // common
        left -= len(tail) * (c.bit_length() // 64 + 1)
        if left < 0:
            raise _BasisTooLarge(
                "the Groebner basis computation exceeds its budget of "
                f"{MAX_REDUCTION_WORK} reduction term-words"
            )
        for t, tc in tail:
            m = t + shift
            old = pending.get(m)
            if old is None:
                pending[m] = -factor * tc
                heappush(heap, -m)
            else:
                pending[m] = old - factor * tc
    run.left = left
    return remainder, multiplier


def _s_terms(f: PackedTerms, g: PackedTerms, lcm: int) -> Iterable[PackedTerm]:
    """The S-polynomial of f and g times c_f*c_g/gcd(c_f, c_g), for the leading
    coefficients c_f and c_g and the packed lcm of the leads, as unsorted
    terms without the leads that cancel.
    """
    (lead_f, c_f), (lead_g, c_g) = f[0], g[0]
    shift_f, shift_g = lcm - lead_f, lcm - lead_g
    common = math.gcd(c_f, c_g)
    scale_f, scale_g = c_g // common, -(c_f // common)
    for e, c in f[1:]:
        yield e + shift_f, c * scale_f
    for e, c in g[1:]:
        yield e + shift_g, c * scale_g


class Ideal(namedtuple("Ideal", "terms d")):
    """An ideal in the polynomial ring on the degree-0 variables z^1_0..z^d_0.

    It is given its generators as exponent-vector terms with exact rational
    coefficients, each {vector: coefficient} or its items, and `terms` holds
    each nonzero one as its primitive integer multiple (`_integer_terms`).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, terms: Iterable[Mapping[Exponents, Fraction | int]], d: int) -> Ideal:
        generators = tuple(filter(None, (_integer_terms(dict(g)) for g in terms)))
        if not generators:
            raise ValueError("an ideal needs at least one nonzero generator")
        if d < 1:
            raise ValueError("need at least one ambient variable")
        for e, _ in itertools.chain.from_iterable(generators):
            if len(e) != d or min(e) < 0:
                raise ValueError(f"term {e} is not a vector of {d} nonnegative exponents")
        return super().__new__(cls, generators, d)


class GroebnerBasis(namedtuple("GroebnerBasis", "terms d")):
    """The reduced Groebner basis of an ideal on z^1_0..z^d_0.

    `terms` holds it as primitive integer terms, one tuple per element, in
    increasing order of leading vectors.
    """

    __slots__ = ()

    @property
    def elements(self) -> tuple[LoopPoly, ...]:
        """The basis as monic LoopPolys, built on each access."""
        variables = _coordinates(self.d)
        return tuple(_from_terms(g, variables, Fraction(1, g[0][1])) for g in self.terms)


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal.

    Pairs are processed by lowest lcm first (normal strategy) and eliminated
    by the criteria of `_pairs_to_reduce`; each nonzero remainder joins the
    basis.  The output is the unique reduced basis, so running buchberger on
    its own output returns an equal basis.  It is returned only after
    `_verify_basis` has proved it a Groebner basis by which every generator
    reduces to zero.
    """
    run = _Run(ideal.d)
    generators = [_packed_terms(g) for g in ideal.terms]
    basis: list[PackedTerms] = []
    for g in generators:
        if g not in basis:
            basis.append(g)
    divisors = _Divisors(basis)
    for lcm, i, j in _pairs_to_reduce(basis, run):
        remainder, _ = _reduce(_s_terms(basis[i], basis[j], lcm), divisors, run)
        if remainder:
            basis.append(_primitive(remainder))
            divisors.append(basis[-1])
    reduced = _reduce_basis(basis, run)
    _verify_basis(reduced, generators, run)
    return GroebnerBasis(tuple(tuple(_unpacked_terms(g, ideal.d)) for g in reduced), ideal.d)


def _pairs_to_reduce(
    basis: Sequence[PackedTerms], run: _Run
) -> Iterator[tuple[int, int, int]]:
    """The S-pairs (packed lcm, i, j) of the basis that the pair criteria
    leave to reduce, each the least of the pairs queued when it is taken.

    The basis is packed for `run`.  An element the caller appends between two
    yields is queued with the others: each of its pairs whose leads are not
    coprime waits in the queue from then on, unless the degree cut below
    already rules it out.  The pairs left out are those whose S-polynomial
    is proved to have a standard representation below lcm_ij, a sum of
    multiples of elements whose leads all lie below it (the lcm
    representations of Cox, Little and O'Shea, "Ideals, Varieties, and
    Algorithms", ch. 2, "Improvements on Buchberger's Algorithm").  An
    S-polynomial that reduces to zero has one, and so does that of a pair
    with coprime leads (Buchberger's first criterion).  The elements are a
    Groebner basis once every pair has one.  Three criteria leave pairs out:

    - Coprime leads, whose support masks, below, share no bit.  Such a pair is
      marked treated as soon as its second element is queued.  Cox, Little
      and O'Shea's improved algorithm may take its pairs in any order, and
      taking the coprime pairs of an element first is one such order.
    - The chain criterion, in that order (Gebauer and Moeller, "On an
      installation of Buchberger's algorithm", J. Symb. Comput. 6, 1988).  A
      pair (i, j) is skipped when some lead_k divides lcm_ij while (i, k) and
      (j, k) are already treated, that is coprime or taken before it.  S_ij is
      then a combination of the monomial multiples lcm_ij/lcm_ik * S_ik and
      lcm_ij/lcm_jk * S_jk, whose representations lie below lcm_ij; by
      induction along the order, a pair relies only on earlier pairs, so
      every pair has a representation once the caller has reduced each
      yielded pair to zero, appending what did not.  Each row of `treated`
      is a bit set, so only the k treated with both i and j are tried.
    - The homogeneous degree cut.  When every element is homogeneous, an
      S-polynomial is homogeneous of its lcm's degree, and so is each stage
      of its division; past the top degree of the leads' staircase every
      monomial is a multiple of some lead, so no term reaches the remainder
      and the S-polynomial reduces to zero.  A batch's leads join the
      staircase before its pairs are queued, as soon as some pair waits:
      whether every element is homogeneous, whether a lead is 1 (the top is
      then -1), and the pure-power leads, whose box, once complete, bounds
      it.  Its top is taken again only when the basis has grown.  The
      remainder of a homogeneous S-polynomial has its degree, so on
      homogeneous input no later pair has a lower degree than the one taken,
      and the loop stops at the first pair past the cut.  A pair past the
      cut when it is formed is never queued, which changes no yield:
      appended leads only lower the cut (they shrink the staircase, and on
      homogeneous input they are homogeneous), and the loop already stops at
      the first popped pair past the cut, so at that pair or before.

    The bookkeeping reads the packed leads, and no tuple is built until the
    staircase needs the leads.  A lead's support mask holds the guard bit of
    each nonzero entry field, and its degree is its top field.  A pair's lcm
    keeps, field by field, the entry of the lead whose field borrows no
    guard bit from the other's; its degree is field d-1 of the lcm times O,
    the ones of the entry fields, a product in which no field carries, since
    no sum of the lcm's entries exceeds 2 * _MAX_DEGREE; and the upper
    fields of its key are that degree times O less the entries e_0 ..
    e_{d-2}, shifted up.  A
    queued pair of degree above _MAX_DEGREE raises _BasisTooLarge, as
    packing its lcm would.  So a basis whose pairs are all coprime unpacks
    no lead.
    """
    d, guard = run.d, run.guard
    ones = guard >> (_FIELD - 1)  # 1 in each entry field
    entry_bits, degree_shift = _FIELD * d, _FIELD * (2 * d - 1)
    entry_mask = (1 << entry_bits) - 1
    sum_shift = _FIELD * (d - 1)  # the field of (v * ones) that sums v's entries
    # The entry fields of each lead; divisibility and the lcm read no others.
    entries: list[int] = []
    leads: list[Exponents] = []  # the leads unpacked, only for the staircase
    # The guard bit of each nonzero entry field of lead k.
    supports: list[int] = []
    # Bit k of treated[i]: the pair (i, k) is coprime or was taken.  Bit i
    # stays clear, so no k in {i, j} counts for (i, j).
    treated: list[int] = []
    queue: list[tuple[int, int, int]] = []
    homogeneous, unit, box = True, False, [0] * d
    while True:
        if len(entries) < len(basis):
            pairs = []
            for new in range(len(entries), len(basis)):
                g = basis[new]
                b = g[0][0] & entry_mask
                support, row = ((b | guard) - ones) & guard, 0
                for k in range(new):
                    if supports[k] & support:
                        # The fieldwise max: a where a's field borrows no guard bit.
                        a = entries[k]
                        take_a = (((a | guard) - b) & guard) >> (_FIELD - 1)
                        lcm = b ^ (a ^ b) & take_a * _FIELD_MASK
                        # Below 2 * _MAX_DEGREE, so no field of the product carries.
                        lcm_degree = (lcm * ones >> sum_shift) & _FIELD_MASK
                        lcm += (lcm_degree * ones - (lcm >> _FIELD)) << entry_bits
                        pairs.append((lcm_degree, lcm, k, new))
                    else:
                        row |= 1 << k
                        treated[k] |= 1 << new
                treated.append(row)
                entries.append(b)
                supports.append(support)
                degree = g[0][0] >> degree_shift
                homogeneous = homogeneous and degree == g[-1][0] >> degree_shift
                if not support:
                    unit = True
                elif not support & (support - 1):  # a pure power
                    box[d - support.bit_length() // _FIELD] = degree
            if not (pairs or queue):
                return
            cut = None  # the degree cut of the basis so far
            if homogeneous and unit:
                cut = -1
            elif homogeneous and all(box):
                leads += [_unpacked(v, d) for v in entries[len(leads):]]
                cut = _staircase(leads, box)[1]
            for lcm_degree, lcm, i, j in pairs:
                if cut is None or lcm_degree <= cut:
                    if lcm_degree > _MAX_DEGREE:
                        raise _too_large(lcm_degree)
                    heappush(queue, (lcm, i, j))
        if not queue:
            return
        lcm, i, j = heappop(queue)
        if cut is not None and lcm >> degree_shift > cut:
            return
        probe = lcm | guard
        both = treated[i] & treated[j]
        while both:
            low = both & -both
            if (probe - entries[low.bit_length() - 1]) & guard == guard:
                break
            both ^= low
        else:
            yield lcm, i, j
        treated[i] |= 1 << j
        treated[j] |= 1 << i


def _reduce_basis(basis: Sequence[PackedTerms], run: _Run) -> list[PackedTerms]:
    """The reduced basis of a Groebner basis, in increasing order of leads.

    In that order a lead comes after every lead that divides it, so an element
    is kept when no kept lead divides its own, and is then reduced once
    against the kept ones.  No larger lead divides a term below its own lead,
    so each kept element comes out fully reduced.
    """
    reduced: list[PackedTerms] = []
    divisors = _Divisors()
    guard = run.guard
    for g in sorted(basis, key=lambda g: g[0][0]):
        probe = g[0][0] | guard
        if not any((probe - lead) & guard == guard for lead, _, _ in divisors.heads):
            reduced.append(_primitive(_reduce(g, divisors, run)[0]))
            divisors.append(reduced[-1])
    return reduced


def _verify_basis(
    elements: Sequence[PackedTerms], generators: Sequence[PackedTerms], run: _Run
) -> None:
    """Raise RuntimeError unless the elements, packed for `run`, are a
    Groebner basis by which every generator reduces to zero.

    Each S-pair that `_pairs_to_reduce` keeps must reduce to zero; the pairs
    it leaves out are proved to have a standard representation, and a
    Groebner basis reduces every S-polynomial to zero, so the audit passes
    exactly when the audit of all pairs does.
    """
    divisors = _Divisors(elements)
    for lcm, i, j in _pairs_to_reduce(elements, run):
        if _reduce(_s_terms(elements[i], elements[j], lcm), divisors, run)[0]:
            raise RuntimeError("S-polynomial does not reduce to zero")
    for g in generators:
        if _reduce(g, divisors, run)[0]:
            raise RuntimeError("an ideal generator does not reduce to zero")


def _box(leads: Sequence[Exponents], d: int) -> list[int]:
    """The exponents of the pure-power leading vectors, one per coordinate.

    Raises NotIsolated when some coordinate has none.
    """
    # A basis not yet reduced may hold several pure powers of one variable;
    # the last is taken, and the vectors past the least are its multiples.
    box = [0] * d
    for lead in leads:
        if lead.count(0) == d - 1:
            side = max(lead)
            box[lead.index(side)] = side
    if not all(box):
        raise NotIsolated(
            "the Jacobian ideal has infinitely many standard monomials; "
            "the singular locus is positive dimensional"
        )
    return box


def _staircase(leads: Sequence[Exponents], box: Sequence[int]) -> tuple[int, int]:
    """The number of exponent vectors in the box that no leading vector
    divides, and the largest degree among them, or -1 when there is none.

    By recursion on the last coordinate: between two consecutive values that
    some lead takes there, the leads that can divide a vector are the same
    ones, so each such slab is counted once on the other coordinates and
    multiplied by its thickness, and its top is theirs plus the slab's
    largest last coordinate.  On one coordinate the vectors run up to one
    below the least lead or side.
    """
    if not all(map(any, leads)):
        return 0, -1  # a unit lead divides everything
    if len(box) == 1:
        side = min([box[0], *(lead[0] for lead in leads)])
        return side, side - 1
    side = box[-1]
    cuts = sorted({lead[-1] for lead in leads if lead[-1] < side} | {0}) + [side]
    size, top = 0, -1
    for lo, hi in zip(cuts, cuts[1:]):
        count, below = _staircase([lead[:-1] for lead in leads if lead[-1] <= lo], box[:-1])
        if count:
            size += (hi - lo) * count
            top = max(top, below + hi - 1)
    return size, top


def jacobian_ideal(func: InputFunction) -> Ideal:
    """F's Jacobian ideal: `func.integer_partials`, already canonical, wrapped unchecked."""
    return tuple.__new__(Ideal, (func.integer_partials, func.d))


def milnor_number(func: InputFunction) -> int:
    """Dimension of the Jacobian ring, counted via standard monomials.

    The standard monomials are counted on the leading exponent vectors
    (`_staircase`), not listed.  For a homogeneous isolated singularity
    the count must equal (delta-1)^d, and that cross-check is enforced on
    every call.  Raises NotIsolated when the quotient is infinite dimensional,
    and a ValueError when the basis would exceed MAX_REDUCTION_WORK.
    """
    leads = [g[0][0] for g in buchberger(jacobian_ideal(func)).terms]
    mu = _staircase(leads, _box(leads, func.d))[0]
    expected = (func.delta - 1) ** func.d
    if mu != expected:
        raise RuntimeError(
            f"standard-monomial count {mu} != (delta-1)^d = {expected}"
        )
    return mu


def milnor_number_oracle(func: InputFunction) -> int:
    """Groebner-free Milnor number: one Macaulay matrix decides isolation.

    The partials are d forms of degree delta-1 in d variables.  Their only
    common zero is the origin exactly when their ideal holds every monomial of
    the degree D = d*(delta-2)+1, i.e. when the (monomial * partial) products
    of degree D span that degree: the Macaulay resultant (Macaulay 1902; Cox,
    Little and O'Shea, "Using Algebraic Geometry", ch. 3 section 4).  Then the
    partials form a regular sequence, so the Jacobian ring has the Hilbert
    series (1 + t + ... + t^(delta-2))^d and mu = (delta-1)^d (Froeberg 1985;
    Eisenbud, "Commutative Algebra", section 17).  So this route proves mu
    through that theorem; it does not sum the coranks of the lower degrees.

    The matrix is ranked modulo the prime _PRIME first.  A minor that is
    nonzero modulo p is nonzero over the integers, so full rank modulo p is
    full rank over the rationals.  A rank that falls short, from an unlucky
    prime or a non-isolated singularity, is recomputed with the exact `_rank`,
    and NotIsolated is raised when that falls short too.
    """
    d, delta = func.d, func.delta
    top = d * (delta - 2) + 1
    # A monomial of known degree is its first d-1 exponents, read as digits
    # in base top+1: a column position additive under multiplication, so a
    # (monomial * partial) row is the partial's row shifted by the monomial.
    weights = [(top + 1) ** i for i in range(d - 1)] + [0]
    gens = [
        {sum(map(mul, e, weights)): c for e, c in gen} for gen in func.integer_partials
    ]
    offsets = [sum(map(mul, e, weights)) for e in _monomial_exponents(d, top - delta + 1)]
    columns = math.comb(top + d - 1, d - 1)
    packed = [_pack(gen) for gen in gens]
    if (
        _rank_mod_p((g << (_SLOT * o) for g in packed for o in offsets), columns) < columns
        and _rank({col + o: c for col, c in g.items()} for g in gens for o in offsets) < columns
    ):
        raise NotIsolated(
            "the truncated Jacobian quotient does not vanish past its "
            "expected top degree; the singular locus is positive "
            "dimensional"
        )
    return (delta - 1) ** d


# The prime of the modular rank, the largest below 2^20.  A packed row holds
# one 64-bit slot per column; each pivot a row meets adds less than p^2 to a
# slot, so slots stay below 2^64 while the matrix has fewer than 2^24 columns.
_PRIME = 1048573
_SLOT = 64
_SLOT_MASK = (1 << _SLOT) - 1


def _pack(row: Mapping[int, int]) -> int:
    """The integer row {column: entry} reduced modulo _PRIME, column j in the
    j-th 64-bit slot of one int."""
    words = [0] * (max(row) + 1)
    for col, c in row.items():
        words[col] = c % _PRIME
    return int.from_bytes(struct.pack(f"<{len(words)}Q", *words), "little")


def _rank_mod_p(rows: Iterable[int], target: int) -> int:
    """Rank modulo _PRIME of the packed rows, counted no further than `target`.

    A pivot is stored normalized, lead 1 dropped and the rest reduced, as the
    tail after its lead column.  A row is eliminated from its lowest column
    up, with the columns below the current one shifted out, so each step is
    `row >> 64` plus (p - a) times a pivot tail: every added entry is below
    p^2, and a slot is reduced only when it is the lowest one or a new pivot
    is stored.
    """
    if target <= 0:
        return 0
    p = _PRIME
    pivots: dict[int, int] = {}
    for vec in rows:
        col = 0
        while vec:
            entry = vec & _SLOT_MASK
            if not entry:
                low = ((vec & -vec).bit_length() - 1) // _SLOT
                vec >>= low * _SLOT
                col += low
                entry = vec & _SLOT_MASK
            a = entry % p
            vec >>= _SLOT
            if a:
                tail = pivots.get(col)
                if tail is None:
                    pivots[col] = _normalized(vec, pow(a, -1, p))
                    if len(pivots) == target:
                        return target
                    break
                vec += (p - a) * tail
            col += 1
    return len(pivots)


def _normalized(vec: int, scale: int) -> int:
    """The packed slots of vec times `scale`, each reduced modulo _PRIME."""
    size = (vec.bit_length() + _SLOT - 1) // _SLOT
    layout = f"<{size}Q"
    words = struct.unpack(layout, vec.to_bytes(8 * size, "little"))
    p = _PRIME
    return int.from_bytes(struct.pack(layout, *[w * scale % p for w in words]), "little")


def _monomial_exponents(d: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographically; none
    for a negative degree."""
    if degree < 0:
        return []
    if d == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        out.extend((first,) + rest for rest in _monomial_exponents(d - 1, degree - first))
    return out


def _rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Rank of an exact rational matrix given as sparse rows {column: entry}.

    Each row is scaled by the lcm of its denominators to an integer row, then
    eliminated fraction-free against the pivot rows: cross-multiplied so that
    its first column cancels, and divided by the gcd of its entries.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        scale = math.lcm(*(c.denominator for c in row.values()))
        vec = {col: c.numerator * (scale // c.denominator) for col, c in row.items() if c}
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = vec
                break
            a, b = vec[col], pivot[col]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            vec = {k: b * v for k, v in vec.items()}
            for k, v in pivot.items():
                x = vec.get(k, 0) - a * v
                if x:
                    vec[k] = x
                else:
                    vec.pop(k, None)
            content = math.gcd(*vec.values())
            if content > 1:
                vec = {k: v // content for k, v in vec.items()}
    return len(pivots)

