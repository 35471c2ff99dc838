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
"""
from __future__ import annotations

import random
from fractions import Fraction

from jetstress.hyperstress import TractionStressField, VariationalStressField
from jetstress.multiindex import CardinalityIndex, MultiIndex, enumerate_nondecreasing, mi_factorial
from jetstress.multiindex import sym_dim
from jetstress.polyfield import Point, PolyField, Polynomial, _as_counts, box_integral
from jetstress.polyfield import midpoint_integral

from conftest import rand_fraction

# Pairwise coprime, so common denominators grow as products.
BIG_DENOMINATORS = (1_000_003, 999_983, 2**31 - 1, 2**61 - 1)


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
