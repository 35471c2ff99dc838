"""The fraction-free polynomial kernels against the ``Fraction`` loops they replaced.

The reference functions below are the coefficient loops ``polyfield`` and
``hyperstress`` used before their kernels moved to integer numerators over
one common denominator, and the power products and per-slot derivatives
``compose_affine`` and ``taylor`` used before they became one affine
substitution kernel; ``ref_from_map`` is the ``Fraction`` dictionary
``Polynomial.from_map`` summed colliding keys in.  ``ref_add``,
``ref_scale`` and ``ref_evaluate`` are the ``Fraction`` loops of ``+``,
scalar ``*`` and ``-``, and evaluation at a point, before sums became
products with constants and evaluation a separable sum.  Results must be
equal term for term, in the same order, with every coefficient a
``Fraction``.

``ref_class_sums`` and ``ref_pair`` are the ``Fraction`` loops of the
symmetric tensor layer, the class sums of a dense tensor and the invariant
pairing, before both added int numerators over one common denominator.
``ref_pair_jet`` is the slot-by-slot ``Fraction`` loop of ``pair_jet``
before it became a sum of tensor pairings, and ``ref_cauchy_traction`` the
``Fraction`` sum of weighted components ``cauchy_traction`` took per slot
before it added int numerators.

``old_powers``, ``old_face_pair``, ``old_antiderivatives`` and
``old_midpoint_sums`` are the integer axis tables of ``_separable_sum``
before each computed only the exponents the terms use: they compute every
exponent from 0 to the top one.

``tuple_split``, ``tuple_product``, ``tuple_derive``, ``tuple_pullback`` and
``tuple_separable_sum`` are the integer kernels as they were before a
monomial became one packed int key: every monomial a count tuple, every
product of monomials a sum of tuples.  The packed kernels must equal them.

The draws of ``drawer`` give every kernel inputs whose denominators are small
and shared, distinct huge and pairwise coprime, or a mix of both: the inputs
on which one common denominator per kernel call grows as long as all of them
together.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import partial
from operator import add, ge, sub

import pytest

from jetstress import fileio, polyfield
from jetstress._linalg import _common_numerators, identity
from jetstress.cli import main
from jetstress.altforms import TopForm, Vector, contract, restrict
from jetstress.hyperstress import BoxRegion, HyperTraction, TractionHyperStress, TractionStressField
from jetstress.hyperstress import VariationalStressField, cauchy_traction, total_power
from jetstress.jet import JetCovector, JetElement, pair_jet
from jetstress.multiindex import CardinalityIndex, MultiIndex, enumerate_nondecreasing, mi_factorial
from jetstress.multiindex import _colex_key, dense_classes, sym_dim
from jetstress.polyfield import Point, PolyField, Polynomial, _as_counts, box_integral
from jetstress.polyfield import _antiderivatives, _face_pair, _midpoint_sums, _powers, _separable_sum
from jetstress.polyfield import midpoint_integral
from jetstress.symtensor import DenseTensor, SymTensor, _class_sums, compress, convert_convention
from jetstress.symtensor import cosymmetrize_project, include, pair, symmetrize_dense

from conftest import rand_fraction

# Pairwise coprime, so common denominators grow as products.
BIG_DENOMINATORS = (1_000_003, 999_983, 2**31 - 1, 2**61 - 1)
# Powers of the 24 odd primes below 100, so pairwise coprime with no prime search; they have 30
# to 100 digits.
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
HUGE_DENOMINATORS = tuple(p ** math.ceil((29 + 3 * i) / math.log10(p)) for i, p in enumerate(ODD_PRIMES))
DENOMINATOR_KINDS = ("small-shared", "huge-coprime", "mixed")


def ref_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    acc: dict[CardinalityIndex, Fraction] = {}
    for card_a, coeff_a in p.terms:
        for card_b, coeff_b in q.terms:
            key = card_a + card_b
            acc[key] = acc.get(key, Fraction(0)) + coeff_a * coeff_b
    return Polynomial(p.n, tuple(acc.items()))


def ref_derive(p: Polynomial, card_j: CardinalityIndex) -> Polynomial:
    acc: dict[CardinalityIndex, Fraction] = {}
    for card_i, coeff in p.terms:
        if not card_j <= card_i:
            continue
        factor = 1
        for i_count, j_count in zip(card_i.counts, card_j.counts):
            for step in range(j_count):
                factor *= i_count - step
        key = card_i - card_j
        acc[key] = acc.get(key, Fraction(0)) + coeff * factor
    return Polynomial(p.n, tuple(acc.items()))


def ref_substitute(p: Polynomial, axis: int, value: Fraction) -> Polynomial:
    acc: dict[CardinalityIndex, Fraction] = {}
    for card, coeff in p.terms:
        count = card.counts[axis - 1]
        new_counts = tuple(0 if r == axis - 1 else c for r, c in enumerate(card.counts))
        key = CardinalityIndex(new_counts)
        acc[key] = acc.get(key, Fraction(0)) + coeff * value**count
    return Polynomial(p.n, tuple(acc.items()))


def ref_add(p: Polynomial, q: Polynomial) -> Polynomial:
    acc = dict(p.terms)
    for card, coeff in q.terms:
        acc[card] = acc.get(card, Fraction(0)) + coeff
    return Polynomial(p.n, tuple(acc.items()))


def ref_scale(p: Polynomial, factor) -> Polynomial:
    factor = Fraction(factor)
    return Polynomial(p.n, tuple((card, factor * c) for card, c in p.terms))


def ref_evaluate(p: Polynomial, coords) -> Fraction:
    total = Fraction(0)
    for card, coeff in p.terms:
        value = coeff
        for coord, count in zip(coords, card.counts):
            if count:
                value *= Fraction(coord) ** count
        total += value
    return total


def ref_compose_affine(p: Polynomial, matrix, offset) -> Polynomial:
    n = p.n
    replacements = []
    for j in range(n):
        poly = Polynomial.constant(n, offset[j])
        for i in range(n):
            if matrix[j][i] != 0:
                poly = poly + Polynomial.monomial(CardinalityIndex.unit(n, i + 1), matrix[j][i])
        replacements.append(poly)
    result = Polynomial.zero(n)
    for card, coeff in p.terms:
        term = Polynomial.constant(n, coeff)
        for j, count in enumerate(card.counts):
            if count:
                term = term * replacements[j].power(count)
        result = result + term
    return result


def ref_taylor(p: Polynomial, center: Point, order: int) -> Polynomial:
    acc: dict[CardinalityIndex, Fraction] = {}
    for l in range(order + 1):
        for card in enumerate_nondecreasing(p.n, l):
            value = p.derive(card)(center) / mi_factorial(card)
            if value != 0:
                acc[card] = value
    return Polynomial(p.n, tuple(acc.items()))


def ref_from_map(n: int, coeffs) -> Polynomial:
    acc: dict[CardinalityIndex, Fraction] = {}
    for key, value in coeffs.items():
        card = CardinalityIndex(_as_counts(key, n))
        acc[card] = acc.get(card, Fraction(0)) + Fraction(value)
    return Polynomial(n, tuple(acc.items()))


def ref_separable_sum(poly, lower, upper, skip, axis_sum) -> Fraction:
    total = Fraction(0)
    for card, coeff in poly.terms:
        value = coeff
        for axis, count in enumerate(card.counts, start=1):
            if axis not in skip:
                value *= axis_sum(Fraction(lower[axis - 1]), Fraction(upper[axis - 1]), count)
        total += value
    return total


def ref_box(poly, lower, upper, skip=()) -> Fraction:
    def antiderivative(lo, hi, count):
        e = count + 1
        return (hi**e - lo**e) / e

    return ref_separable_sum(poly, lower, upper, skip, antiderivative)


def ref_midpoint(poly, lower, upper, cells, skip=()) -> Fraction:
    def midpoint_sum(lo, hi, count):
        width = (hi - lo) / cells
        return width * sum((lo + width * (2 * c + 1) / 2) ** count for c in range(cells))

    return ref_separable_sum(poly, lower, upper, skip, midpoint_sum)


def ref_density(stress, field: PolyField) -> Polynomial:
    acc: dict[CardinalityIndex, Fraction] = {}
    for l in range(stress.k + 1):
        cards = enumerate_nondecreasing(stress.n, l)
        for a in range(stress.m):
            w = field.component(a + 1)
            for card, poly in zip(cards, stress.blocks[l][a]):
                for term, coeff in ref_mul(poly, ref_derive(w, card)).terms:
                    acc[term] = acc.get(term, Fraction(0)) + coeff
    return Polynomial(stress.n, tuple(acc.items()))


def coeff(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(rng.randint(-10**12, 10**12), rng.choice(BIG_DENOMINATORS))
    return rand_fraction(rng)


def poly(rng: random.Random, n: int, max_degree: int, density: float = 0.6) -> Polynomial:
    """A random polynomial; one in eight is the zero polynomial."""
    if rng.random() < 0.125:
        return Polynomial.zero(n)
    terms = {}
    for l in range(max_degree + 1):
        for card in enumerate_nondecreasing(n, l):
            if rng.random() < density:
                terms[card] = coeff(rng)
    return Polynomial.from_map(n, terms)


def bounds(rng: random.Random, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """Box bounds, often negative, some over large coprime denominators."""
    lower, upper = [], []
    for _ in range(n):
        lo = coeff(rng) / 10**11 if rng.random() < 0.3 else rand_fraction(rng, span=4, den=5)
        lower.append(lo)
        upper.append(lo + Fraction(rng.randint(1, 9), rng.choice((1, 3, 7) + BIG_DENOMINATORS)))
    return lower, upper


def slot_polys(rng: random.Random, n: int, l: int) -> tuple[Polynomial, ...]:
    return tuple(poly(rng, n, 2) for _ in range(sym_dim(n, l)))


def assert_exact(result: Polynomial, expected: Polynomial) -> None:
    assert result == expected
    for card, value in result.terms:
        assert type(card) is CardinalityIndex and type(value) is Fraction
        assert len(card.counts) == result.n and all(type(c) is int for c in card.counts)


def test_mul_derive_substitute_match_the_fraction_loops():
    rng = random.Random(301)
    for trial in range(60):
        n = 1 + trial % 4
        degree = 4 if n < 3 else 2
        p, q = poly(rng, n, degree), poly(rng, n, degree)
        assert_exact(p * q, ref_mul(p, q))
        for _ in range(3):
            order = CardinalityIndex(tuple(rng.randint(0, 2) for _ in range(n)))
            assert_exact(p.derive(order), ref_derive(p, order))
        axis = rng.randint(1, n)
        for value in (coeff(rng), Fraction(0), Fraction(-rng.randint(1, 5), rng.randint(1, 4))):
            assert_exact(p.substitute(axis, value), ref_substitute(p, axis, value))


def test_products_that_cancel():
    rng = random.Random(302)
    for n in range(1, 5):
        x = Polynomial.variable(n, 1)
        c = Polynomial.constant(n, coeff(rng))
        # (x + c)(x - c): the two mixed terms cancel inside the accumulator.
        assert_exact((x + c) * (x - c), ref_mul(x + c, x - c))
        assert (x + c) * (x - c) == x * x - c * c
        p, q = poly(rng, n, 2), poly(rng, n, 2)
        assert_exact((p + q) * (p - q), ref_mul(p + q, p - q))
        assert (p + q) * (p - q) == p * p - q * q
        assert_exact(p * Polynomial.zero(n), Polynomial.zero(n))
        assert_exact(Polynomial.constant(n, 5).derive(CardinalityIndex.unit(n, 1)), Polynomial.zero(n))


def test_sums_scalar_multiples_and_values_match_the_fraction_loops():
    rng = random.Random(309)
    for trial in range(60):
        n = 1 + trial % 4
        degree = 4 if n < 3 else 2
        p, q = poly(rng, n, degree), poly(rng, n, degree)
        assert_exact(p + q, ref_add(p, q))
        assert_exact(p - q, ref_add(p, ref_scale(q, -1)))
        assert_exact(-p, ref_scale(p, -1))
        for factor in (coeff(rng), 0, "3/2", -1):
            assert_exact(p * factor, ref_scale(p, factor))
            assert_exact(factor * p, ref_scale(p, factor))
        for _ in range(3):
            coords = [coeff(rng) if rng.random() < 0.5 else rand_fraction(rng) for _ in range(n)]
            coords[rng.randrange(n)] = rng.choice((Fraction(0), coords[0]))
            value = p(coords)
            assert value == ref_evaluate(p, coords) and type(value) is Fraction
            assert p(Point(tuple(coords))) == value


def test_sums_and_multiples_that_cancel_are_zero():
    rng = random.Random(310)
    for n in range(1, 5):
        p = poly(rng, n, 3, density=1.0)
        zero = Polynomial.zero(n)
        assert_exact(p - p, zero)
        assert_exact(p + -p, zero)
        assert_exact(ref_add(p, ref_scale(p, -1)), zero)
        assert_exact(p * 0, zero)
        assert_exact(p * "3/2" - p * Fraction(3, 2), zero)
        assert_exact(zero + zero, zero)
        assert zero([1] * n) == 0 and type(zero([1] * n)) is Fraction


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return f"error: {exc}"


def test_from_map_matches_the_fraction_dict():
    rng = random.Random(308)
    for trial in range(80):
        n = trial % 4
        coeffs: dict = {}
        for _ in range(rng.randint(0, 8)):
            counts = tuple(rng.randint(0, 2) for _ in range(max(n, 1)))
            value = coeff(rng)
            # The same monomial under three key types; the keys collide and their values add up.
            keys = [counts, CardinalityIndex(counts)]
            keys.append(MultiIndex(CardinalityIndex(counts).canonical().entries, len(counts)))
            for key in rng.sample(keys, rng.randint(1, 3)):
                coeffs[key] = rng.choice([value, str(value), value.numerator])
            if rng.random() < 0.3:
                coeffs[rng.choice(keys)] = -value
        expected = outcome(lambda: ref_from_map(n, coeffs))
        result = outcome(lambda: Polynomial.from_map(n, coeffs))
        if isinstance(expected, str):
            assert result == expected
        else:
            assert_exact(result, expected)


def test_from_map_sums_that_cancel_are_zero():
    for n in range(1, 4):
        one = (1,) + (0,) * (n - 1)
        coeffs = {one: "3/7", CardinalityIndex(one): Fraction(-3, 7), (0,) * n: 0}
        assert_exact(Polynomial.from_map(n, coeffs), Polynomial.zero(n))
        assert_exact(ref_from_map(n, coeffs), Polynomial.zero(n))
    assert outcome(lambda: Polynomial.from_map(0, {})) == "error: dimension must be positive, got 0"


def test_polynomial_reader_matches_from_map():
    # Keys in several spellings of one monomial, some values zero, now and then a negative
    # count; the second spelling of a monomial in the file's order is an error naming both.
    rng = random.Random(309)
    for trial in range(80):
        n = 1 + trial % 3
        obj, last, spelled = {}, {}, {}
        for _ in range(rng.randint(0, 8)):
            counts = tuple(rng.randint(-1 if rng.random() < 0.05 else 0, 2) for _ in range(n))
            key = ",".join(map(str, counts))
            padded = ",".join(f"{c:03}" for c in counts)
            spellings = [key, f" {key} ", key.replace(",", " ,"), padded]
            if not any(counts):
                spellings.append("")
            for spelling in rng.sample(spellings, rng.randint(1, 3)):
                value = rng.choice([Fraction(0), coeff(rng)])
                obj.pop(spelling, None)
                obj[spelling] = rng.choice([str(value), f"{value.numerator}/{value.denominator}"])
                last[counts] = value
                spelled[spelling] = counts
        first: dict = {}
        twice = [(first[spelled[k]], k) for k in obj if first.setdefault(spelled[k], k) != k]
        if twice:
            expected = "error: {!r} and {!r} name one monomial".format(*twice[0])
        else:
            expected = outcome(lambda: Polynomial.from_map(n, last))
        result = outcome(lambda: fileio.polynomial_from_obj(obj, n))
        if isinstance(expected, str):
            assert result == expected
        else:
            assert_exact(result, expected)
    read = fileio.polynomial_from_obj
    assert outcome(lambda: read({}, 0)) == "error: dimension must be positive, got 0"
    assert outcome(lambda: read({"": "1"}, 0)) == "error: cardinality index needs at least one axis"


def test_box_and_midpoint_sums_match_the_fraction_loops():
    rng = random.Random(303)
    for trial in range(60):
        n = 1 + trial % 4
        p = poly(rng, n, 4 if n < 3 else 3)
        lower, upper = bounds(rng, n)
        cells = rng.randint(1, 5)
        for result, expected in (
            (box_integral(p, lower, upper), ref_box(p, lower, upper)),
            (midpoint_integral(p, lower, upper, cells), ref_midpoint(p, lower, upper, cells)),
        ):
            assert result == expected and type(result) is Fraction
        axis = rng.randint(1, n)
        face = p.substitute(axis, upper[axis - 1])
        skip = (axis,)
        assert box_integral(face, lower, upper, skip) == ref_box(face, lower, upper, skip)
        got = midpoint_integral(face, lower, upper, cells, skip)
        assert got == ref_midpoint(face, lower, upper, cells, skip) and type(got) is Fraction


def old_powers(lo, hi, q, top):
    return [hi**e * q ** (top - e) for e in range(top + 1)], q**top


def old_face_pair(lo, hi, q, top):
    return [(hi**e - lo**e) * q ** (top - e) for e in range(top + 1)], q**top


def old_antiderivatives(lo, hi, q, top):
    scale = math.lcm(*range(1, top + 2))
    nums = [
        (hi ** (e + 1) - lo ** (e + 1)) * q ** (top - e) * (scale // (e + 1))
        for e in range(top + 1)
    ]
    return nums, scale * q ** (top + 1)


def old_midpoint_sums(cells, lo, hi, q, top):
    step = 2 * cells * q
    mids = [2 * cells * lo + (hi - lo) * (2 * c + 1) for c in range(cells)]
    nums = [(hi - lo) * sum(m**e for m in mids) * step ** (top - e) for e in range(top + 1)]
    return nums, q * cells * step**top


def every_exponent(table):
    """An old table in the new signature; its list is indexed by exponent as the dict is."""
    return lambda lo, hi, q, top, exps: table(lo, hi, q, top)


def sparse_poly(rng: random.Random, n: int) -> Polynomial:
    """A few terms of total degree up to 100, the budget, so that most exponents go unused."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        degree = rng.randint(0, 100)
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        terms[tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))] = coeff(rng)
    return Polynomial.from_map(n, terms)


def test_axis_tables_of_used_exponents_match_the_tables_of_every_exponent(monkeypatch):
    rng = random.Random(320)
    for trial in range(40):
        n = 1 + trial % 3
        p = sparse_poly(rng, n)
        lower, upper = bounds(rng, n)
        cells = rng.randint(1, 4)
        midpoints = partial(_midpoint_sums, cells)
        new = [
            box_integral(p, lower, upper),
            midpoint_integral(p, lower, upper, cells),
            p(upper),
        ]
        new += [_separable_sum(p, lower, upper, (), _antiderivatives, a) for a in range(1, n + 1)]
        new += [_separable_sum(p, lower, upper, (), midpoints, a) for a in range(1, n + 1)]
        monkeypatch.setattr(polyfield, "_face_pair", every_exponent(old_face_pair))
        antiderivatives = every_exponent(old_antiderivatives)
        midpoints = every_exponent(partial(old_midpoint_sums, cells))
        old = [
            _separable_sum(p, lower, upper, (), antiderivatives),
            _separable_sum(p, lower, upper, (), midpoints),
            _separable_sum(p, upper, upper, (), every_exponent(old_powers)),
        ]
        old += [_separable_sum(p, lower, upper, (), antiderivatives, a) for a in range(1, n + 1)]
        old += [_separable_sum(p, lower, upper, (), midpoints, a) for a in range(1, n + 1)]
        monkeypatch.undo()
        assert new == old and all(type(value) is Fraction for value in new)


def test_density_matches_the_slot_product_loop():
    rng = random.Random(304)
    for n in range(1, 5):
        m, k = rng.randint(1, 2), 2 if n < 4 else 1
        blocks = tuple(tuple(slot_polys(rng, n, l) for _ in range(m)) for l in range(k + 1))
        stress = VariationalStressField(n, m, k, blocks)
        field = PolyField(n, m, tuple(poly(rng, n, 3) for _ in range(m)))
        assert_exact(stress.density(field), ref_density(stress, field))


def test_density_that_cancels_is_zero():
    # sigma_0 = 1 and sigma_1 = -x against w = x: x - x * 1 = 0.
    x = Polynomial.variable(1, 1)
    stress = VariationalStressField(1, 1, 1, (((Polynomial.constant(1, 1),),), ((-x,),)))
    field = PolyField(1, 1, (x,))
    assert_exact(stress.density(field), Polynomial.zero(1))
    assert_exact(ref_density(stress, field), Polynomial.zero(1))
    # Terms that cancel count toward no budget: at degree 100 the midpoint rule of 100,000 cells
    # would pass its 1,000,000 powers, but x**99 * x - x**100 * 1 leaves no term of any degree.
    stress = VariationalStressField(1, 1, 1, (((x.power(99),),), ((-x.power(100),),)))
    assert total_power(stress, field, BoxRegion((0,), (1,), 100_000), method="midpoint") == 0


def test_density_coeffs_match_per_axis_density():
    rng = random.Random(305)
    for n in range(1, 5):
        m = rng.randint(1, 2)
        blocks = tuple(
            tuple(tuple(slot_polys(rng, n, l) for _ in range(n)) for _ in range(m))
            for l in range(2)
        )
        stress = TractionStressField(n, m, 2, blocks)
        field = PolyField(n, m, tuple(poly(rng, n, 3) for _ in range(m)))
        coeffs = stress.density_coeffs(field)
        assert len(coeffs) == n
        for got, axis in zip(coeffs, stress.axes):
            assert_exact(got, axis.density(field))
            assert_exact(got, ref_density(axis, field))


def affine_data(rng: random.Random, n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """A matrix with some zero entries, one in four singular, and a signed fractional offset."""
    matrix = [[coeff(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        # Row 1 repeated (or zeroed when n is 1) makes the matrix singular.
        matrix[-1] = list(matrix[0]) if n > 1 else [Fraction(0)]
    offset = [-coeff(rng) if rng.random() < 0.5 else rand_fraction(rng) for _ in range(n)]
    return matrix, offset


def test_compose_affine_matches_the_power_product_loop():
    rng = random.Random(306)
    for trial in range(60):
        n = 1 + trial % 4
        p = poly(rng, n, 4 if n < 3 else 3)
        matrix, offset = affine_data(rng, n)
        assert_exact(p.compose_affine(matrix, offset), ref_compose_affine(p, matrix, offset))
    for n in range(1, 5):
        zero = [[Fraction(0)] * n for _ in range(n)]
        p = poly(rng, n, 3, density=1.0)
        # An all-zero map sends p to its value at the offset.
        offset = [rand_fraction(rng) for _ in range(n)]
        assert_exact(p.compose_affine(zero, offset), ref_compose_affine(p, zero, offset))
        assert_exact(p.compose_affine(zero, offset), Polynomial.constant(n, p(offset)))
        assert_exact(Polynomial.zero(n).compose_affine(*affine_data(rng, n)), Polynomial.zero(n))


def test_taylor_matches_the_per_slot_derivatives():
    rng = random.Random(307)
    for trial in range(48):
        n = 1 + trial % 4
        p = poly(rng, n, 4 if n < 3 else 3)
        center = Point(tuple(-coeff(rng) if rng.random() < 0.5 else rand_fraction(rng) for _ in range(n)))
        # Orders below, at and above the degree.
        for order in sorted({0, max(p.degree - 1, 0), p.degree, p.degree + 1}):
            assert_exact(p.taylor(center, order), ref_taylor(p, center, order))


def ref_class_sums(tensor: DenseTensor) -> SymTensor:
    classes, firsts = dense_classes(tensor.n, tensor.degree)
    sums = [Fraction(0)] * len(firsts)
    for r, value in zip(classes, tensor.components):
        sums[r] += value
    return SymTensor(tensor.n, tensor.degree, tensor.variance, "arrow", tuple(sums))


def ref_pair(cotensor: SymTensor, tensor: SymTensor) -> Fraction:
    co_arrow = convert_convention(cotensor, "arrow").components
    contra_plain = convert_convention(tensor, "plain").components
    return sum((a * b for a, b in zip(co_arrow, contra_plain)), Fraction(0))


def assert_fractions(tensor) -> None:
    assert all(type(c) is Fraction for c in tensor.components)


def check_class_sums(dense: DenseTensor) -> None:
    """The class sums, class averages and symmetrization of ``dense`` against the reference loop."""
    sums = ref_class_sums(dense)
    results = [_class_sums(dense)]
    if dense.variance == "co":
        results.append(cosymmetrize_project(dense))
    for result in results:
        assert result == sums
        assert_fractions(result)
    averages = _class_sums(dense, "plain")
    assert averages == convert_convention(sums, "plain")
    assert_fractions(averages)
    symmetrized = symmetrize_dense(dense)
    assert symmetrized == include(convert_convention(sums, "plain"))
    assert compress(symmetrized) == averages
    assert_fractions(symmetrized)


def check_pairings(co: SymTensor, contra: SymTensor) -> None:
    """``pair`` against the reference loop for all four convention pairings; one value for all."""
    values = set()
    for co_convention in ("plain", "arrow"):
        for contra_convention in ("plain", "arrow"):
            left = convert_convention(co, co_convention)
            right = convert_convention(contra, contra_convention)
            value = pair(left, right)
            assert value == ref_pair(left, right) and type(value) is Fraction
            values.add(value)
    assert len(values) == 1


def tensor_values(rng: random.Random, count: int, zero_share: float) -> tuple[Fraction, ...]:
    return tuple(Fraction(0) if rng.random() < zero_share else coeff(rng) for _ in range(count))


def test_class_sums_and_pair_match_the_fraction_loops():
    rng = random.Random(311)
    for trial in range(70):
        n = 1 + trial % 4
        degree = trial % 7 if n < 4 else trial % 5
        variance = ("co", "contra")[trial % 2]
        zero_share = (0.0, 0.5, 1.0)[trial % 3]
        dense = DenseTensor(n, degree, variance, tensor_values(rng, n**degree, zero_share))
        check_class_sums(dense)
        size = sym_dim(n, degree)
        co = SymTensor(n, degree, "co", "plain", tensor_values(rng, size, zero_share))
        contra = SymTensor(n, degree, "contra", "arrow", tensor_values(rng, size, zero_share))
        check_pairings(co, contra)


def test_class_sums_and_pair_match_on_hypothesis_tensors():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # Zero, small fractions and big coprime denominators, spread over a tensor by a seeded draw.
    values = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(BIG_DENOMINATORS)),
    )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(1, 4), st.integers(0, 6), st.lists(values, min_size=1, max_size=6), st.randoms()
    )
    def check(n, degree, pool, rng):
        dense = DenseTensor(n, degree, "co", tuple(rng.choice(pool) for _ in range(n**degree)))
        check_class_sums(dense)
        size = sym_dim(n, degree)
        co = SymTensor(n, degree, "co", "arrow", tuple(rng.choice(pool) for _ in range(size)))
        contra = SymTensor(n, degree, "contra", "plain", tuple(rng.choice(pool) for _ in range(size)))
        check_pairings(co, contra)

    check()


def test_symmetrize_writes_the_symmetrized_tensor(tmp_path):
    rng = random.Random(312)
    for n, degree in ((1, 3), (2, 0), (2, 5), (3, 4), (4, 3)):
        dense = DenseTensor(n, degree, ("co", "contra")[n % 2], tensor_values(rng, n**degree, 0.2))
        source, out = tmp_path / "dense.json", tmp_path / "out.json"
        fileio.save(fileio.tensor_to_obj(dense), str(source))
        assert main(["symmetrize", str(source), "--out", str(out)]) == 0
        expected = fileio.dumps(fileio.tensor_to_obj(compress(symmetrize_dense(dense))))
        assert out.read_bytes() == expected.encode()


def ref_pair_jet(covector: JetCovector, jet: JetElement) -> Fraction:
    total = Fraction(0)
    for l in range(jet.k + 1):
        for alpha in range(jet.m):
            phi = covector.blocks[l][alpha].components
            a = jet.blocks[l][alpha].components
            total += sum((p * v for p, v in zip(phi, a)), Fraction(0))
    return total


def check_pair_jet(n: int, m: int, k: int, draw) -> None:
    """``pair_jet`` against the slot loop on a jet and a covector of values from ``draw``."""
    def blocks(variance: str, convention: str) -> tuple:
        return tuple(
            tuple(SymTensor(n, l, variance, convention, draw(sym_dim(n, l))) for _ in range(m))
            for l in range(k + 1)
        )

    jet = JetElement(n, m, k, Point((Fraction(1, 3),) * n), blocks("co", "plain"))
    covector = JetCovector(n, m, k, blocks("contra", "arrow"))
    value = pair_jet(covector, jet)
    assert value == ref_pair_jet(covector, jet) and type(value) is Fraction


def test_pair_jet_matches_the_slot_loop():
    rng = random.Random(313)
    for trial in range(60):
        n, m = 1 + trial % 4, 1 + trial % 2
        k = trial % 7 if n < 4 else trial % 5
        # No zeros, half zeros, or every block zero; big coprime denominators from ``coeff``.
        zero_share = (0.0, 0.5, 1.0)[trial % 3]
        check_pair_jet(n, m, k, lambda count: tensor_values(rng, count, zero_share))


def test_pair_jet_matches_on_hypothesis_jets():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(BIG_DENOMINATORS)),
    )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 6),
        st.lists(values, min_size=1, max_size=6),
        st.floats(0, 1),
        st.randoms(),
    )
    def check(n, m, k, pool, zero_share, rng):
        def draw(count: int) -> tuple[Fraction, ...]:
            return tuple(
                Fraction(0) if rng.random() < zero_share else rng.choice(pool) for _ in range(count)
            )

        check_pair_jet(n, m, k, draw)

    check()


def drawer(rng: random.Random, kind: str):
    """A draw of nonzero values over denominators of one of ``DENOMINATOR_KINDS``.

    Small denominators are at most 7, so their lcm stays small.  Each huge one
    comes from ``HUGE_DENOMINATORS`` at most once per drawer; a trial that
    needs more than 24 of them fails on the empty pool.
    """
    pool = rng.sample(HUGE_DENOMINATORS, len(HUGE_DENOMINATORS))

    def draw() -> Fraction:
        sign = rng.choice((-1, 1))
        if kind == "huge-coprime" or (kind == "mixed" and rng.random() < 0.5):
            den = pool.pop()
            return Fraction(sign * rng.randrange(1, den), den)
        return Fraction(sign * rng.randint(1, 9), rng.randint(1, 7))

    return draw


def few_terms(rng: random.Random, n: int, draw, count: int = 3) -> Polynomial:
    """One to ``count`` terms with drawn coefficients, each exponent at most 2."""
    terms = {tuple(rng.randint(0, 2) for _ in range(n)): draw() for _ in range(rng.randint(1, count))}
    return Polynomial.from_map(n, terms)


def test_common_numerators_put_values_over_their_lcm():
    rng = random.Random(330)
    for kind in DENOMINATOR_KINDS:
        for size in range(8):
            draw = drawer(rng, kind)
            values = [draw() for _ in range(size)]
            nums, den = _common_numerators(values)
            assert [Fraction(num, den) for num in nums] == values
            assert den == math.lcm(*(v.denominator for v in values))
            assert all(type(v) is int for v in (*nums, den))
    assert _common_numerators([]) == ([], 1)


@pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
def test_polynomial_kernels_match_the_fraction_loops_on_each_kind_of_denominator(kind):
    rng = random.Random(331 + DENOMINATOR_KINDS.index(kind))
    for trial in range(10):
        n = 1 + trial % 2
        draw = drawer(rng, kind)
        p, q = few_terms(rng, n, draw), few_terms(rng, n, draw)
        assert_exact(p * q, ref_mul(p, q))
        assert_exact(p + q, ref_add(p, q))
        assert_exact(p - q, ref_add(p, ref_scale(q, -1)))
        factor = draw()
        assert_exact(p * factor, ref_scale(p, factor))
        order = CardinalityIndex(tuple(rng.randint(0, 1) for _ in range(n)))
        assert_exact(p.derive(order), ref_derive(p, order))
        matrix, offset = [[draw() for _ in range(n)] for _ in range(n)], [draw() for _ in range(n)]
        assert_exact(p.compose_affine(matrix, offset), ref_compose_affine(p, matrix, offset))
        center = Point(tuple(draw() for _ in range(n)))
        for order in (0, 1, p.degree):
            assert_exact(p.taylor(center, order), ref_taylor(p, center, order))
        coords = [draw() for _ in range(n)]
        value = p(coords)
        assert value == ref_evaluate(p, coords) and type(value) is Fraction
        draw = drawer(rng, kind)
        lower = [draw() for _ in range(n)]
        upper = [lo + abs(draw()) for lo in lower]
        cells = rng.randint(1, 3)
        for result, expected in (
            (box_integral(p, lower, upper), ref_box(p, lower, upper)),
            (midpoint_integral(p, lower, upper, cells), ref_midpoint(p, lower, upper, cells)),
        ):
            assert result == expected and type(result) is Fraction


@pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
def test_densities_match_the_slot_product_loop_on_each_kind_of_denominator(kind):
    rng = random.Random(334 + DENOMINATOR_KINDS.index(kind))
    for trial in range(4):
        n = 1 + trial % 2
        draw = drawer(rng, kind)
        blocks = tuple((tuple(few_terms(rng, n, draw, 2) for _ in range(sym_dim(n, l))),) for l in range(2))
        stress = VariationalStressField(n, 1, 1, blocks)
        field = PolyField(n, 1, (few_terms(rng, n, draw),))
        expected = ref_density(stress, field)
        assert_exact(stress.density(field), expected)
        draw = drawer(rng, kind)
        lower = tuple(draw() for _ in range(n))
        upper = tuple(lo + abs(draw()) for lo in lower)
        assert total_power(stress, field, BoxRegion(lower, upper)) == ref_box(expected, lower, upper)
        draw = drawer(rng, kind)
        blocks = tuple(
            (tuple(tuple(few_terms(rng, n, draw, 2) for _ in range(sym_dim(n, l))) for _ in range(n)),)
            for l in range(2)
        )
        traction = TractionStressField(n, 1, 2, blocks)
        field = PolyField(n, 1, (few_terms(rng, n, draw),))
        coeffs = traction.density_coeffs(field)
        assert len(coeffs) == n
        for got, axis in zip(coeffs, traction.axes):
            assert_exact(got, ref_density(axis, field))


@pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
def test_class_sums_and_pair_match_the_fraction_loops_on_each_kind_of_denominator(kind):
    rng = random.Random(337 + DENOMINATOR_KINDS.index(kind))
    for n, degree in ((1, 3), (2, 2), (2, 4), (3, 2)):
        draw = drawer(rng, kind)
        check_class_sums(DenseTensor(n, degree, "co", tuple(draw() for _ in range(n**degree))))
        draw = drawer(rng, kind)
        size = sym_dim(n, degree)
        co = SymTensor(n, degree, "co", "plain", tuple(draw() for _ in range(size)))
        contra = SymTensor(n, degree, "contra", "arrow", tuple(draw() for _ in range(size)))
        check_pairings(co, contra)


def draws(draw, count: int) -> tuple[Fraction, ...]:
    return tuple(draw() for _ in range(count))


def ref_cauchy_traction(stress: TractionHyperStress, frame) -> HyperTraction:
    n = stress.n
    weights = [
        restrict(contract(Vector.basis(n, j), TopForm.volume(n)), frame) for j in range(1, n + 1)
    ]
    blocks = tuple(
        tuple(
            SymTensor(n, l, "contra", "arrow", tuple(
                sum(w * c for w, c in zip(weights, s)) for s in zip(*(t.components for t in row))
            ))
            for row in block
        )
        for l, block in enumerate(stress.blocks)
    )
    return HyperTraction(stress.k, JetCovector(n, stress.m, stress.k - 1, blocks))


@pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
def test_cauchy_traction_matches_the_fraction_sum_on_each_kind_of_denominator(kind):
    rng = random.Random(340 + DENOMINATOR_KINDS.index(kind))
    for n in (2, 3):
        for _ in range(3):
            draw = drawer(rng, kind)
            # Covectors of order 1 on n axes: (1 + n) * n components, at most 12 of the 24.
            legs = [[draws(draw, sym_dim(n, l)) for _ in range(n)] for l in range(2)]
            blocks = tuple(
                (tuple(SymTensor(n, l, "contra", "arrow", leg) for leg in row),)
                for l, row in enumerate(legs)
            )
            stress = TractionHyperStress(n, 1, 2, blocks)
            draw = drawer(rng, kind)
            frame = [Vector(n, draws(draw, n)) for _ in range(n - 1)]
            traction = cauchy_traction(stress, frame)
            assert traction == ref_cauchy_traction(stress, frame)
            for block in traction.covector.blocks:
                for tensor in block:
                    assert all(type(c) is Fraction for c in tensor.components)


# The count-tuple kernels that packed keys replaced, kept as the oracle of the packed ones: the
# same splits, products, derivatives, pullbacks and separable sums, every monomial a count tuple.


def tuple_split(polys):
    nums, den = _common_numerators([c for p in polys for _, c in p.terms])
    rest = iter(nums)
    return [list(zip([card.counts for card, _ in p.terms], rest)) for p in polys], den


def tuple_add_product(acc, left, right):
    for counts_a, a in left:
        for counts_b, b in right:
            key = tuple(map(add, counts_a, counts_b))
            acc[key] = acc.get(key, 0) + a * b
    return acc


def tuple_polynomial(n, acc, den) -> Polynomial:
    terms = tuple((CardinalityIndex(c), Fraction(v, den)) for c, v in acc.items() if v)
    return Polynomial(n, terms)


def tuple_product(p: Polynomial, q: Polynomial) -> Polynomial:
    (left,), den_l = tuple_split([p])
    (right,), den_r = tuple_split([q])
    return tuple_polynomial(p.n, tuple_add_product({}, left, right), den_l * den_r)


def tuple_derive(p: Polynomial, order) -> Polynomial:
    (terms,), den = tuple_split([p])
    derived = {
        tuple(map(sub, counts, order)): value * math.prod(map(math.perm, counts, order))
        for counts, value in terms
        if all(map(ge, counts, order))
    }
    return tuple_polynomial(p.n, derived, den)


def tuple_pullback(p: Polynomial, matrix, offset, cap=None) -> Polynomial:
    n = p.n

    def kept(acc):
        return acc if cap is None else {key: v for key, v in acc.items() if sum(key) <= cap}

    data, q = _common_numerators([Fraction(v) for row, b in zip(matrix, offset) for v in (*row, b)])
    zero = (0,) * n
    monomials = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)] + [zero]
    (terms,), den = tuple_split([p])
    powers = []
    for j in range(n):
        row = data[j * (n + 1) : (j + 1) * (n + 1)]
        replacement = [(key, v) for key, v in zip(monomials, row) if v]
        table = [{zero: 1}]
        for _ in range(max((counts[j] for counts, _ in terms), default=0)):
            table.append(kept(tuple_add_product({}, table[-1].items(), replacement)))
        powers.append(table)
    top = max((sum(counts) for counts, _ in terms), default=0)
    acc: dict = {}
    for counts, num in terms:
        product = {zero: num * q ** (top - sum(counts))}
        for j, c in enumerate(counts):
            if c:
                product = kept(tuple_add_product({}, product.items(), powers[j][c].items()))
        for key, value in product.items():
            acc[key] = acc.get(key, 0) + value
    return tuple_polynomial(n, acc, den * q**top)


def tuple_separable_sum(p: Polynomial, lower, upper, skip, axis_table, face_axis=0) -> Fraction:
    (terms,), den = tuple_split([p])
    tables = []
    for r in range(p.n):
        if r + 1 not in skip:
            exps = {counts[r] for counts, _ in terms}
            ends, q = _common_numerators((Fraction(lower[r]), Fraction(upper[r])))
            table = _face_pair if r + 1 == face_axis else axis_table
            nums, axis_den = table(*ends, q, max(exps, default=0), exps)
            tables.append((r, nums))
            den *= axis_den
    total = 0
    for counts, num in terms:
        for r, nums in tables:
            num *= nums[counts[r]]
        total += num
    return Fraction(total, den)


def check_packed_kernels(rng: random.Random, p: Polynomial, q: Polynomial) -> None:
    """Every packed kernel on p (and q) against the count-tuple kernels."""
    n = p.n
    assert_exact(p * q, tuple_product(p, q))
    order = tuple(rng.randint(0, 2) for _ in range(n))
    assert_exact(p.derive(order), tuple_derive(p, order))
    center = [-coeff(rng) if rng.random() < 0.5 else rand_fraction(rng) for _ in range(n)]
    for cap in sorted({0, max(p.degree - 1, 0), p.degree, p.degree + 1}):
        assert_exact(p.taylor(Point(tuple(center)), cap), tuple_pullback(p, identity(n), center, cap))
    matrix, offset = affine_data(rng, n)
    assert_exact(p.compose_affine(matrix, offset), tuple_pullback(p, matrix, offset))
    lower, upper = bounds(rng, n)
    axis = rng.randint(1, n)
    tables = (_antiderivatives, partial(_midpoint_sums, rng.randint(1, 4)), _powers)
    for table, face_axis in itertools.product(tables, (0, axis)):
        got = _separable_sum(p, lower, upper, (), table, face_axis)
        assert got == tuple_separable_sum(p, lower, upper, (), table, face_axis)
        assert type(got) is Fraction
    face = p.substitute(axis, upper[axis - 1])
    got = _separable_sum(face, lower, upper, (axis,), _antiderivatives)
    assert got == tuple_separable_sum(face, lower, upper, (axis,), _antiderivatives)


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_kernels_match_the_count_tuple_kernels(n):
    rng = random.Random(350 + n)
    degree = (6, 5, 4, 3, 2, 2)[n - 1]
    for _ in range(10):
        check_packed_kernels(rng, poly(rng, n, degree, 0.4), poly(rng, n, degree, 0.4))


def test_packed_kernels_match_on_hypothesis_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = st.fractions(min_value=-9, max_value=9, max_denominator=7)

    @st.composite
    def pairs(draw):
        n = draw(st.integers(1, 6))
        counts = st.lists(st.integers(0, 9 // n + 1), min_size=n, max_size=n).map(tuple)
        p, q = (Polynomial.from_map(n, draw(st.dictionaries(counts, values, max_size=6))) for _ in "pq")
        return p, q, draw(st.integers(0, 2**32))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(pairs())
    def check(drawn):
        p, q, seed = drawn
        check_packed_kernels(random.Random(seed), p, q)
        # The law of the product's derivative, on keys whose sums must not carry.
        for axis in range(1, p.n + 1):
            unit = CardinalityIndex.unit(p.n, axis)
            assert (p * q).derive(unit) == p.derive(unit) * q + p * q.derive(unit)

    check()


def test_degrees_past_the_file_budget_carry_no_digit():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    product = x1.power(150) * x2.power(150)
    assert product.terms == ((CardinalityIndex((150, 150)), Fraction(1)),)
    wide = (x1 + x2).power(120) * (x1 - x2).power(90)
    assert_exact(wide, tuple_product((x1 + x2).power(120), (x1 - x2).power(90)))
    assert wide.degree == 210 and len(wide.terms) == 211
    assert_exact(product.derive((150, 149)), tuple_derive(product, (150, 149)))
    assert product.derive((150, 149)) == Polynomial.monomial(
        CardinalityIndex((0, 1)), math.factorial(150) * math.factorial(150)
    )
    assert product.derive((151, 0)) == Polynomial.zero(2)
    center = Point((Fraction(1, 3), Fraction(-2)))
    for cap in (0, 1, 150, 300):
        assert_exact(product.taylor(center, cap), tuple_pullback(product, identity(2), center.coords, cap))
    lower, upper = [Fraction(-1, 2), Fraction(1, 3)], [Fraction(1), Fraction(2)]
    got = box_integral(product, lower, upper)
    assert got == tuple_separable_sum(product, lower, upper, (), _antiderivatives)
    assert got == ref_box(product, lower, upper)


@pytest.mark.parametrize("top", [1, 255, 256, 65_535, 65_536, 2**64, 2**70])
def test_keys_hold_every_degree_up_to_their_top(top):
    # A digit is a whole number of bytes: one up to 255, two from 256, nine past 2**64 - 1.
    keys = polyfield._Keys(3, top)
    a, b = top // 2, top - top // 2
    spread = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (top, 0, 0), (0, top - 1, 1), (0, 0, top), (a, 0, b)]
    for counts in spread:
        assert keys.counts(keys.pack(counts)) == counts
    assert sorted(spread, key=keys.pack) == sorted(spread, key=_colex_key)
    x1, x3 = Polynomial.from_map(3, {(a, 0, 0): 1}), Polynomial.from_map(3, {(0, 0, b): 2})
    product = x1 * x3 + x1
    assert product.terms == (
        (CardinalityIndex((a, 0, 0)), Fraction(1)), (CardinalityIndex((a, 0, b)), Fraction(2))
    )
    assert product.derive((0, 0, 1)) == tuple_derive(product, (0, 0, 1))
