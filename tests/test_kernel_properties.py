"""Laws of the affine substitution kernel on small random polynomials.

``compose_affine`` is pullback along an affine map, so the identity map
leaves a polynomial alone, two pullbacks are one pullback along the composed
map, and shifting a full Taylor expansion back to the original variables
gives the polynomial again.
"""
from __future__ import annotations

import pytest

from jetstress._linalg import identity, mat_mul, mat_vec
from jetstress.multiindex import enumerate_nondecreasing
from jetstress.polyfield import Point, Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Derandomized and without an example database, so every run draws the same cases.
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polynomials(draw, n: int) -> Polynomial:
    cards = [card for l in range(4) for card in enumerate_nondecreasing(n, l)]
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
