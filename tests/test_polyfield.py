from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from jetstress.multiindex import CardinalityIndex, enumerate_nondecreasing, rank
from jetstress.polyfield import Point, PolyField, Polynomial, box_integral, midpoint_integral

from conftest import rand_fraction, rand_point, rand_poly


def x(n, axis):
    return Polynomial.variable(n, axis)


def test_construction_normalizes_terms():
    p = Polynomial.from_map(2, {(1, 0): 1, (0, 0): 0})
    assert p == Polynomial.variable(2, 1)
    q = Polynomial(2, ((CardinalityIndex((1, 1)), Fraction(2)),))
    assert q.coeff((1, 1)) == 2
    assert q.coeff((2, 0)) == 0
    assert Polynomial.from_map(2, {}) == Polynomial.zero(2)
    with pytest.raises(ValueError):
        Polynomial(2, ((CardinalityIndex((1, 0, 0)), Fraction(1)),))


def test_coeff_accepts_axis_tuples():
    p = Polynomial.monomial(CardinalityIndex((2, 1)), 5)
    assert p.coeff(CardinalityIndex((2, 1))) == 5
    assert p.degree == 3


def test_evaluation():
    p = x(2, 1) * x(2, 2) + Polynomial.constant(2, 3)
    assert p(Point((Fraction(2), Fraction(5)))) == 13
    assert p((0, 0)) == 3
    with pytest.raises(ValueError):
        p((1, 2, 3))


def test_ring_identities_pointwise():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3)
        q = rand_poly(rng, n, 3)
        pt = rand_point(rng, n)
        assert (p + q)(pt) == p(pt) + q(pt)
        assert (p * q)(pt) == p(pt) * q(pt)
        assert (p - q)(pt) == p(pt) - q(pt)
        assert (-p)(pt) == -p(pt)
        assert (p * Fraction(3, 2))(pt) == Fraction(3, 2) * p(pt)
        assert p.power(3)(pt) == p(pt) ** 3


def test_derive_carries_falling_factorials():
    p = Polynomial.monomial(CardinalityIndex((2, 1)), 1)
    d = p.derive((1, 1))
    assert d == Polynomial.from_map(2, {(1, 0): 2})
    assert p.derive((2, 1)) == Polynomial.constant(2, 2)
    assert p.derive((3, 0)) == Polynomial.zero(2)


def test_derive_skips_non_dominated_terms():
    p = x(2, 1) * x(2, 2)
    assert p.derive((0, 2)) == Polynomial.zero(2)
    assert p.derive((0, 0)) == p


def test_derivatives_compose():
    rng = random.Random(52)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 4)
        j1 = CardinalityIndex(tuple(rng.randint(0, 2) for _ in range(n)))
        j2 = CardinalityIndex(tuple(rng.randint(0, 2) for _ in range(n)))
        assert p.derive(j1 + j2) == p.derive(j1).derive(j2)
        assert p.derive(j1).derive(j2) == p.derive(j2).derive(j1)


def test_first_order_leibniz():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3)
        q = rand_poly(rng, n, 3)
        axis = rng.randint(1, n)
        unit = CardinalityIndex.unit(n, axis)
        assert (p * q).derive(unit) == p.derive(unit) * q + p * q.derive(unit)


def test_taylor_of_product_example():
    p = x(2, 1) * x(2, 2)
    center = Point((Fraction(1), Fraction(2)))
    t = p.taylor(center, 2)
    assert t.coeff((0, 0)) == 2
    assert t.coeff((1, 0)) == 2
    assert t.coeff((0, 1)) == 1
    assert t.coeff((1, 1)) == 1
    assert t.coeff((2, 0)) == 0


def test_taylor_reexpands_exactly():
    rng = random.Random(54)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3)
        center = rand_point(rng, n)
        t = p.taylor(center, max(p.degree, 3))
        offset = rand_point(rng, n)
        shifted = tuple(c + h for c, h in zip(center.coords, offset.coords))
        assert t(offset) == p(shifted)


def test_taylor_truncates_high_degrees():
    p = x(2, 1).power(3) + x(2, 2)
    t = p.taylor(Point.origin(2), 2)
    assert t == x(2, 2)
    full = p.taylor(Point.origin(2), 3)
    assert full == p


def test_substitute_freezes_an_axis():
    p = x(3, 1) * x(3, 2).power(2) + x(3, 3)
    frozen = p.substitute(2, Fraction(3))
    assert frozen == x(3, 1) * Fraction(9) + x(3, 3)
    assert frozen.coeff((0, 1, 0)) == 0
    with pytest.raises(ValueError):
        p.substitute(4, 1)


def test_compose_affine_matches_pointwise_substitution():
    rng = random.Random(55)
    for _ in range(15):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3)
        matrix = [[rand_fraction(rng, span=2, den=2) for _ in range(n)] for _ in range(n)]
        offset = [rand_fraction(rng, span=2, den=2) for _ in range(n)]
        composed = p.compose_affine(matrix, offset)
        pt = rand_point(rng, n)
        image = tuple(
            sum((matrix[j][i] * pt.coords[i] for i in range(n)), offset[j]) for j in range(n)
        )
        assert composed(pt) == p(image)


def test_box_integral_values():
    p = x(2, 1) * x(2, 2)
    assert box_integral(p, (0, 0), (1, 1)) == Fraction(1, 4)
    q = x(1, 1)
    assert box_integral(q, (-1,), (1,)) == 0
    assert box_integral(q * q, (-1,), (1,)) == Fraction(2, 3)
    assert box_integral(Polynomial.constant(2, 1), (0, 0), (2, 3)) == 6


def test_box_integral_skip_axes():
    p = x(2, 1).power(2)
    assert box_integral(p, (0, 0), (1, 5), skip_axes=(2,)) == Fraction(1, 3)
    with pytest.raises(ValueError, match="depends on skipped axis"):
        box_integral(x(2, 2), (0, 0), (1, 1), skip_axes=(2,))
    frozen = (x(2, 1) * x(2, 2)).substitute(2, Fraction(1, 2))
    assert box_integral(frozen, (0, 0), (1, 1), skip_axes=(2,)) == Fraction(1, 4)


def test_box_integral_is_additive_over_splits():
    rng = random.Random(56)
    for _ in range(10):
        p = rand_poly(rng, 2, 4)
        mid = rand_fraction(rng, span=1, den=3)
        whole = box_integral(p, (-1, 0), (1, 1))
        left = box_integral(p, (-1, 0), (mid, 1))
        right = box_integral(p, (mid, 0), (1, 1))
        assert left + right == whole


def brute_midpoint(p, lower, upper, cells, skip_axes=()):
    """Sum of the polynomial over all cell centers times the cell volume."""
    grids = []
    volume = Fraction(1)
    for axis in range(1, p.n + 1):
        lo, hi = Fraction(lower[axis - 1]), Fraction(upper[axis - 1])
        if axis in skip_axes:
            grids.append([lo])
            continue
        width = (hi - lo) / cells
        grids.append([lo + width * (2 * c + 1) / 2 for c in range(cells)])
        volume *= width
    return sum((p(Point(coords)) for coords in itertools.product(*grids)), Fraction(0)) * volume


def test_midpoint_integral_matches_brute_force():
    rng = random.Random(57)
    for n in range(1, 4):
        for cells in range(1, 6):
            p = rand_poly(rng, n, 4)
            lower = [rand_fraction(rng, span=2, den=3) for _ in range(n)]
            upper = [lo + rng.randint(1, 3) for lo in lower]
            assert midpoint_integral(p, lower, upper, cells) == brute_midpoint(
                p, lower, upper, cells
            )
            axis = rng.randint(1, n)
            face = p.substitute(axis, upper[axis - 1])
            assert midpoint_integral(
                face, lower, upper, cells, skip_axes=(axis,)
            ) == brute_midpoint(face, lower, upper, cells, skip_axes=(axis,))


def test_midpoint_integral_validation():
    with pytest.raises(ValueError, match="depends on skipped axis"):
        midpoint_integral(x(2, 2), (0, 0), (1, 1), 2, skip_axes=(2,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        midpoint_integral(x(2, 1), (0,), (1,), 2)
    with pytest.raises(ValueError, match="out of range"):
        midpoint_integral(x(2, 1), (0, 0), (1, 1), 2, skip_axes=(3,))
    for cells in (0, -1):
        with pytest.raises(ValueError, match="cells must be positive"):
            midpoint_integral(x(2, 1), (0, 0), (1, 1), cells)


def random_counts(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    """n counts summing to ``degree``, from n - 1 random cuts of 0..degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, degree)))


def test_terms_are_in_graded_rank_order():
    # Both checked constructors sort by the kernels' packed keys; the reference here is the
    # (degree, rank) order of the index classes.  The tops 255 and 256 sit on both sides of a
    # key's digits growing from one byte to two.
    rng = random.Random(58)
    for n in range(1, 7):
        for _ in range(5):
            p = rand_poly(rng, n, 5 if n <= 4 else 2)
            keys = [(card.degree, rank(card)) for card, _ in p.terms]
            assert keys == sorted(set(keys))
        for top in (5, 254, 255, 256, 257, 300):
            degrees = [0, 1, 2, top - 1, top, *(rng.randint(0, top) for _ in range(8))]
            cards = dict.fromkeys(CardinalityIndex(random_counts(rng, n, d)) for d in degrees)
            terms = [(card, Fraction(i + 1, 7)) for i, card in enumerate(cards)]
            rng.shuffle(terms)
            expected = tuple(sorted(terms, key=lambda term: (term[0].degree, rank(term[0]))))
            assert Polynomial(n, tuple(terms)).terms == expected
            assert Polynomial.from_map(n, dict(terms)).terms == expected


def test_polyfield_components_and_call():
    field = PolyField(2, 2, (x(2, 1) * x(2, 2), Polynomial.constant(2, 4)))
    assert field.component(1)(Point((2, 3))) == 6
    assert field((2, 3)) == (Fraction(6), Fraction(4))
    with pytest.raises(ValueError):
        field.component(3)
    with pytest.raises(ValueError):
        PolyField(2, 2, (x(2, 1),))
