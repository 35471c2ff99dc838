"""sympy as a second, independent oracle for the polynomial layer and ``_linalg``."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from jetstress._linalg import det, inverse, mat_mul, rank
from jetstress.jet import jet_of
from jetstress.multiindex import CardinalityIndex, enumerate_nondecreasing
from jetstress.polyfield import Point, PolyField, Polynomial, box_integral

from conftest import rand_fraction, rand_point, rand_poly

sympy = pytest.importorskip("sympy")


def rational(value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


def to_sympy(p: Polynomial, xs) -> "sympy.Expr":
    return sympy.Add(
        *(rational(c) * math.prod(x**e for x, e in zip(xs, card.counts)) for card, c in p.terms)
    )


def from_sympy(expr, xs) -> Polynomial:
    terms = sympy.Poly(expr, *xs).terms()
    return Polynomial.from_map(len(xs), {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def derivative_at(expr, xs, card: CardinalityIndex, point: Point) -> Fraction:
    """sympy's partial derivative with the given counts, evaluated at the point."""
    for x, c in zip(xs, card.counts):
        expr = sympy.diff(expr, x, c)
    value = expr.subs({x: rational(v) for x, v in zip(xs, point.coords)})
    return Fraction(int(value.p), int(value.q))


def cases(seed: int):
    rng = random.Random(seed)
    for trial in range(12):
        n = 1 + trial % 3
        xs = sympy.symbols(f"x1:{n + 1}")
        yield rng, n, xs, rand_poly(rng, n, 3)


def test_derive_matches_sympy():
    for rng, n, xs, p in cases(401):
        order = CardinalityIndex(tuple(rng.randint(0, 2) for _ in range(n)))
        expected = to_sympy(p, xs)
        for x, c in zip(xs, order.counts):
            expected = sympy.diff(expected, x, c)
        assert p.derive(order) == from_sympy(expected, xs)


def test_substitute_matches_sympy():
    for rng, n, xs, p in cases(402):
        axis, value = rng.randint(1, n), rand_fraction(rng)
        expected = to_sympy(p, xs).subs(xs[axis - 1], rational(value))
        assert p.substitute(axis, value) == from_sympy(expected, xs)


def test_box_integral_matches_sympy():
    for rng, n, xs, p in cases(403):
        lower = [rand_fraction(rng, span=3) for _ in range(n)]
        upper = [lo + Fraction(rng.randint(1, 5), rng.randint(1, 4)) for lo in lower]
        limits = [(x, rational(lo), rational(hi)) for x, lo, hi in zip(xs, lower, upper)]
        expected = sympy.integrate(to_sympy(p, xs), *limits)
        assert box_integral(p, lower, upper) == Fraction(int(expected.p), int(expected.q))


def test_compose_affine_matches_sympy():
    for rng, n, xs, p in cases(404):
        matrix = [[rand_fraction(rng, span=2, den=2) for _ in range(n)] for _ in range(n)]
        offset = [rand_fraction(rng, span=2, den=3) for _ in range(n)]
        images = {
            xs[j]: sum(rational(a) * x for a, x in zip(matrix[j], xs)) + rational(offset[j])
            for j in range(n)
        }
        expected = sympy.expand(to_sympy(p, xs).xreplace(images))
        assert p.compose_affine(matrix, offset) == from_sympy(expected, xs)


def test_taylor_matches_sympy():
    for rng, n, xs, p in cases(405):
        center, order = rand_point(rng, n), rng.randint(0, 4)
        expr = to_sympy(p, xs)
        expected = {
            card: derivative_at(expr, xs, card, center) / math.prod(map(math.factorial, card.counts))
            for l in range(order + 1)
            for card in enumerate_nondecreasing(n, l)
        }
        assert p.taylor(center, order) == Polynomial.from_map(n, expected)


def test_jet_of_matches_sympy():
    for rng, n, xs, p in cases(406):
        field = PolyField(n, 2, (p, rand_poly(rng, n, 3)))
        x, k = rand_point(rng, n), rng.randint(0, 3)
        jet = jet_of(field, x, k)
        for alpha, poly in enumerate(field.components, start=1):
            expr = to_sympy(poly, xs)
            for l in range(k + 1):
                for card in enumerate_nondecreasing(n, l):
                    assert jet.component(alpha, card) == derivative_at(expr, xs, card, x)


def to_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def matrices(seed: int, count: int = 60):
    """Seeded rational matrices of shapes up to 4 x 4.

    Half are sparse, so the pivot search has to swap rows; the others are a
    product of a rows x bound and a bound x cols factor, so their rank is at
    most bound.
    """
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 4)
        cols = rows if rng.random() < 0.5 else rng.randint(1, 4)
        if rng.random() < 0.5:
            matrix = [
                [rand_fraction(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(cols)]
                for _ in range(rows)
            ]
        else:
            bound = rng.randint(1, min(rows, cols))
            left = [[rand_fraction(rng) for _ in range(bound)] for _ in range(rows)]
            right = [[rand_fraction(rng) for _ in range(cols)] for _ in range(bound)]
            matrix = mat_mul(left, right)
        yield matrix, sympy.Matrix([[rational(x) for x in row] for row in matrix])


def test_rank_matches_sympy():
    ranks = set()
    for matrix, expected in matrices(407):
        assert rank(matrix) == expected.rank()
        ranks.add((len(matrix) == len(matrix[0]), expected.rank() < min(expected.shape)))
    assert ranks == {(True, True), (True, False), (False, True), (False, False)}


def test_det_matches_sympy():
    for matrix, expected in matrices(408):
        if expected.is_square:
            assert det(matrix) == to_fraction(expected.det())


def test_inverse_matches_sympy():
    singular = invertible = 0
    for matrix, expected in matrices(409):
        if not expected.is_square:
            continue
        if expected.det() == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                inverse(matrix)
        else:
            invertible += 1
            inv = expected.inv()
            assert inverse(matrix) == [[to_fraction(x) for x in row] for row in inv.tolist()]
    assert singular and invertible
