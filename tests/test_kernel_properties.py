"""Laws of the polynomial kernels on small random polynomials.

``compose_affine`` is pullback along an affine map, so the identity map
leaves a polynomial alone, two pullbacks are one pullback along the composed
map, and shifting a full Taylor expansion back to the original variables
gives the polynomial again.  A pullback truncated at an order as it is built
is the full pullback with the terms above that order dropped.  Polynomials
form a commutative ring, evaluation at a point is a ring homomorphism,
freezing a variable and then evaluating is evaluating at the point with that
coordinate replaced, and ``derive`` obeys the Leibniz rule.
"""
from __future__ import annotations

import itertools
import math

import pytest

from jetstress._linalg import identity, mat_mul, mat_vec
from jetstress.multiindex import enumerate_nondecreasing
from jetstress.polyfield import Point, Polynomial, _affine

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Derandomized and without an example database, so every run draws the same cases.
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polynomials(draw, n: int, degree: int = 3) -> Polynomial:
    cards = [card for l in range(degree + 1) for card in enumerate_nondecreasing(n, l)]
    coeffs = draw(st.dictionaries(st.sampled_from(cards), fractions, max_size=8))
    return Polynomial.from_map(n, coeffs)


def vectors(n: int):
    return st.lists(fractions, min_size=n, max_size=n)


def matrices(n: int):
    return st.lists(vectors(n), min_size=n, max_size=n)


dimensions = st.integers(1, 3)


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_identity_map_leaves_the_polynomial(data, n):
    p = data.draw(polynomials(n))
    assert p.compose_affine(identity(n), [0] * n) == p


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_two_pullbacks_are_one_pullback_along_the_composed_map(data, n):
    p = data.draw(polynomials(n))
    a, b, c, d = (data.draw(s) for s in (matrices(n), vectors(n), matrices(n), vectors(n)))
    composed = mat_mul(a, c)
    shift = [v + w for v, w in zip(mat_vec(a, d), b)]
    assert p.compose_affine(a, b).compose_affine(c, d) == p.compose_affine(composed, shift)


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_full_taylor_expansion_shifts_back_to_the_polynomial(data, n):
    p, center = data.draw(polynomials(n)), data.draw(vectors(n))
    expansion = p.taylor(Point(tuple(center)), p.degree)
    assert expansion.compose_affine(identity(n), [-v for v in center]) == p


@SETTINGS
@hypothesis.given(st.data(), st.integers(1, 4), st.integers(0, 7), st.integers(0, 5))
def test_truncated_pullback_is_the_full_pullback_cut_at_the_order(data, n, degree, order):
    p = data.draw(polynomials(n, degree))
    a, b = data.draw(matrices(n)), data.draw(vectors(n))
    full = p.compose_affine(a, b)
    cut = Polynomial(n, tuple(term for term in full.terms if term[0].degree <= order))
    assert p._pullback(_affine(n, a, b), order) == cut
    if order >= degree:
        assert p._pullback(_affine(n, a, b), order) == full


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_polynomials_form_a_commutative_ring(data, n):
    p, q, r = (data.draw(polynomials(n)) for _ in range(3))
    zero, one = Polynomial.zero(n), Polynomial.constant(n, 1)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p + -p == zero and p - q == p + -q
    c = data.draw(fractions)
    assert c * p == Polynomial.constant(n, c) * p == p * c


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_evaluation_is_a_ring_homomorphism(data, n):
    p, q, x = data.draw(polynomials(n)), data.draw(polynomials(n)), data.draw(vectors(n))
    c = data.draw(fractions)
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (c * p)(x) == c * p(x)
    assert Polynomial.constant(n, c)(x) == c


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_substitute_then_evaluate_is_evaluation_at_the_replaced_point(data, n):
    p, x = data.draw(polynomials(n)), data.draw(vectors(n))
    axis, value = data.draw(st.integers(1, n)), data.draw(fractions)
    frozen = p.substitute(axis, value)
    replaced = x[: axis - 1] + [value] + x[axis:]
    assert frozen(x) == p(replaced)
    assert all(card.counts[axis - 1] == 0 for card, _ in frozen.terms)


@SETTINGS
@hypothesis.given(st.data(), dimensions)
def test_derive_obeys_the_leibniz_rule(data, n):
    p, q = data.draw(polynomials(n)), data.draw(polynomials(n))
    order = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    expected = Polynomial.zero(n)
    for part in itertools.product(*(range(c + 1) for c in order)):
        rest = tuple(c - j for c, j in zip(order, part))
        weight = math.prod(math.comb(c, j) for c, j in zip(order, part))
        expected = expected + weight * p.derive(part) * q.derive(rest)
    assert (p * q).derive(order) == expected
