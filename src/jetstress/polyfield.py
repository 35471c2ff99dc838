"""Polynomial maps with exact rational coefficients.

A polynomial in n variables is a finite sum of monomials labeled by
cardinality indices: the index with counts ``(I_1, ..., I_n)`` labels
``(x^1)**I_1 * ... * (x^n)**I_n``.  Coefficients are exact rationals, so
evaluation, differentiation, Taylor expansion, and integration over boxes
are all exact.

A ``PolyField`` is a tuple of m such polynomials, a polynomial map from the
n-dimensional space to an m-dimensional value space.

Sums, products, values, substitution and box sums run on three fraction-free
kernels.  Each splits the coefficients into integer numerators over one
common denominator, works on plain ints keyed by count tuples, and divides
once at the end, so the results are the same reduced ``Fraction``s.  Every
split, of coefficients (``_split``), affine data or box bounds, is made by
``_linalg._common_numerators``.
``_sum_of_products`` sums products; a sum, a negation or a scalar multiple
is a sum of products with constants.  ``compose_affine`` is the pullback
along an affine map, with the replacement powers memoized per variable and
exponent; ``substitute`` sends one variable to a constant and ``taylor`` is
the shift ``p(center + y)`` truncated at the order as it is built.
``_separable_terms`` is a functional on such int terms that factors over the
axes, one table of factors per axis: the powers of a coordinate give the
value at a point, and the antiderivatives, midpoint sums and face pairs the
box integrals, midpoint rules and fluxes.  ``_separable_sum`` applies it to a
polynomial; a stress density reaches it straight from its accumulator.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from operator import add, ge, sub

from . import _linalg
from ._linalg import _common_numerators
from .multiindex import CardinalityIndex, IndexLike, MultiIndex, _Record, cardinality
from .multiindex import _check_budget, _checked_counts, _colex_key

Scalar = Fraction | int | str
Counts = tuple[int, ...]
Terms = Collection[tuple[Counts, int]]

def _as_counts(index: IndexLike, n: int) -> Counts:
    """The checked exponent counts of a monomial label; a raw sequence is counts, not axes."""
    if isinstance(index, MultiIndex):
        index = cardinality(index)
    counts = index.counts if isinstance(index, CardinalityIndex) else _checked_counts(index)
    if len(counts) != n:
        raise ValueError("dimension mismatch")
    return counts


class Point(_Record):
    """Position in the n-dimensional source space, exact coordinates."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]) -> None:
        coords = tuple(Fraction(c) for c in coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        self._store(coords)

    @classmethod
    def origin(cls, n: int) -> "Point":
        return cls((Fraction(0),) * n)

    @property
    def n(self) -> int:
        return len(self.coords)


def _split(polys: Sequence["Polynomial"]) -> tuple[list[list[tuple[Counts, int]]], int]:
    """Each polynomial's terms as (counts, int numerator) pairs, all over one common denominator."""
    nums, den = _common_numerators([c for poly in polys for _, c in poly.terms])
    # zip stops at the end of a polynomial's terms before it takes a numerator past them.
    rest = iter(nums)
    return [list(zip([card.counts for card, _ in poly.terms], rest)) for poly in polys], den


def _sum_of_products(n: int, pairs: Sequence[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
    """``sum(left * right for left, right in pairs)``, adding ints over one common denominator."""
    lefts, den_l = _split([left for left, _ in pairs])
    rights, den_r = _split([right for _, right in pairs])
    acc: dict[Counts, int] = {}
    for left, right in zip(lefts, rights):
        _add_product(acc, left, right)
    return _from_numerators(n, acc, den_l * den_r)


def _add_product(acc: dict[Counts, int], left: Terms, right: Terms) -> dict[Counts, int]:
    """Add the product of two (counts, int numerator) term lists into ``acc``; return it."""
    for counts_a, a in left:
        for counts_b, b in right:
            key = tuple(map(add, counts_a, counts_b))
            acc[key] = acc.get(key, 0) + a * b
    return acc


def _derived(terms: Terms, order: Counts) -> list[tuple[Counts, int]]:
    """The ``order`` derivative of (counts, int numerator) terms, over the same denominator."""
    # math.perm(c, j) is the falling factorial c (c-1) ... (c-j+1).
    return [
        (tuple(map(sub, counts, order)), value * math.prod(map(math.perm, counts, order)))
        for counts, value in terms
        if all(map(ge, counts, order))
    ]


def _scaled_sum(n: int, *scaled: tuple["Polynomial", Scalar]) -> "Polynomial":
    """``sum(factor * poly for poly, factor in scaled)``, as products with constants."""
    if any(poly.n != n for poly, _ in scaled):
        raise ValueError("dimension mismatch")
    return _sum_of_products(n, [(poly, Polynomial.constant(n, f)) for poly, f in scaled])


def _from_terms(
    n: int, acc: Mapping[Counts, object], coeff: Callable[[Counts], Fraction]
) -> "Polynomial":
    """The polynomial with a term ``coeff(counts)`` for each nonzero ``acc[counts]``.

    The keys are valid count vectors of length n, so neither they nor the
    terms are validated again; each term is built once, in canonical order.
    """
    keys = sorted((counts for counts, value in acc.items() if value), key=_colex_key)
    trusted = CardinalityIndex._trusted
    return Polynomial._trusted(n, tuple([(trusted(c), coeff(c)) for c in keys]))


def _from_numerators(n: int, acc: Mapping[Counts, int], den: int) -> "Polynomial":
    """The polynomial with coefficients ``acc[counts] / den``.

    The keys are sums and differences of valid count vectors of length n.
    """
    return _from_terms(n, acc, lambda counts: Fraction(acc[counts], den))


class Polynomial(_Record):
    """Exact polynomial in n variables, stored as canonically sorted terms.

    Terms with zero coefficient are dropped at construction, so equality of
    two polynomials is equality of their coefficient maps.
    """

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n: int, terms: tuple[tuple[CardinalityIndex, Fraction], ...]) -> None:
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        cleaned: dict[CardinalityIndex, Fraction] = {}
        for card, coeff in terms:
            if card.n != n:
                raise ValueError("term dimension mismatch")
            value = Fraction(coeff)
            if value != 0:
                if card in cleaned:
                    raise ValueError(f"duplicate term {card}")
                cleaned[card] = value
        self._store(n, tuple(sorted(cleaned.items(), key=lambda term: _colex_key(term[0].counts))))

    @classmethod
    def from_map(cls, n: int, coeffs: Mapping[IndexLike, Scalar]) -> "Polynomial":
        """Build from a coefficient map keyed by exponent count vectors; colliding keys add up."""
        acc: dict[Counts, Fraction] = {}
        for key, value in coeffs.items():
            counts = _as_counts(key, n)
            # A parsed value is kept as it is, not built again.
            value = value if type(value) is Fraction else Fraction(value)
            acc[counts] = acc[counts] + value if counts in acc else value
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        return _from_terms(n, acc, acc.__getitem__)

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, ())

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        return cls(n, ((CardinalityIndex.zero(n), Fraction(value)),))

    @classmethod
    def variable(cls, n: int, axis: int) -> "Polynomial":
        return cls(n, ((CardinalityIndex.unit(n, axis), Fraction(1)),))

    @classmethod
    def monomial(cls, card: CardinalityIndex, coeff: Scalar = 1) -> "Polynomial":
        return cls(card.n, ((card, Fraction(coeff)),))

    def coeff(self, index: IndexLike) -> Fraction:
        """Coefficient of the monomial with the given exponent counts."""
        counts = _as_counts(index, self.n)
        for card, value in self.terms:
            if card.counts == counts:
                return value
        return Fraction(0)

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((card.degree for card, _ in self.terms), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _scaled_sum(self.n, (self, 1), (other, 1))

    def __neg__(self) -> "Polynomial":
        return _scaled_sum(self.n, (self, -1))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _scaled_sum(self.n, (self, 1), (other, -1))

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return _scaled_sum(self.n, (self, other))
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return _sum_of_products(self.n, [(self, other)])

    __rmul__ = __mul__

    def power(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}")
        result = Polynomial.constant(self.n, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, point: Point | Sequence[Scalar]) -> Fraction:
        coords = point.coords if isinstance(point, Point) else tuple(point)
        if len(coords) != self.n:
            raise ValueError("point dimension mismatch")
        return _separable_sum(self, coords, coords, (), _powers)

    def derive(self, order: IndexLike) -> "Polynomial":
        """Iterated partial derivative, one differentiation per count.

        A monomial contributes only when its exponents dominate the
        requested order; the surviving coefficient picks up the falling
        factorial of each exponent.  The order is an exponent count vector.
        """
        order = _as_counts(order, self.n)
        (terms,), den = _split([self])
        return _from_numerators(self.n, dict(_derived(terms, order)), den)

    def taylor(self, center: Point, order: int) -> "Polynomial":
        """Taylor coefficients around a point, as a polynomial in the offset.

        The coefficient of the offset monomial with counts J is the J-th
        derivative at the center divided by counts!.  These are the terms of
        degree at most ``order`` of the shift ``p(center + y)``, so for a
        polynomial of degree at most the order this is an exact re-centering.
        The shift drops higher terms from every partial product as it is built.
        """
        if center.n != self.n:
            raise ValueError("point dimension mismatch")
        if order < 0:
            raise ValueError(f"negative order {order}")
        return self._pullback(_linalg.identity(self.n), center.coords, order)

    def substitute(self, axis: int, value: Scalar) -> "Polynomial":
        """Freeze one variable at an exact value; the axis count drops to zero.

        This is the pullback along the affine map that keeps the other
        variables and sends this one to the constant ``value``.
        """
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis {axis} out of range 1..{self.n}")
        matrix = _linalg.identity(self.n)
        matrix[axis - 1][axis - 1] = 0
        offset = [0] * self.n
        offset[axis - 1] = value
        return self.compose_affine(matrix, offset)

    def compose_affine(
        self, matrix: Sequence[Sequence[Scalar]], offset: Sequence[Scalar]
    ) -> "Polynomial":
        """Substitute each variable by an affine expression of fresh variables.

        Variable j is replaced by ``sum_i matrix[j][i] * x^i + offset[j]``;
        the result is the pullback of the polynomial along the affine map.
        """
        return self._pullback(matrix, offset)

    def _pullback(self, matrix: Sequence, offset: Sequence, cap: int | None = None) -> "Polynomial":
        """``compose_affine``, keeping only the terms of total degree at most ``cap``."""
        n = self.n
        rows = [[Fraction(v) for v in row] for row in matrix]
        shift = [Fraction(v) for v in offset]
        if len(rows) != n or len(shift) != n or any(len(row) != n for row in rows):
            raise ValueError("affine data dimension mismatch")
        # Degrees only add, so every partial product can drop its terms above the cap.
        def kept(acc: dict[Counts, int]) -> dict[Counts, int]:
            return acc if cap is None else {key: v for key, v in acc.items() if sum(key) <= cap}

        # Replacement j is (sum_i a_ji x^i + b_j) / q over ints, zero entries skipped.
        data, q = _common_numerators([v for row, b in zip(rows, shift) for v in (*row, b)])
        zero = (0,) * n
        monomials = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)] + [zero]
        (terms,), den = _split([self])
        powers = []
        for j in range(n):
            row = data[j * (n + 1) : (j + 1) * (n + 1)]
            replacement = [(key, v) for key, v in zip(monomials, row) if v]
            table = [{zero: 1}]
            for _ in range(max((counts[j] for counts, _ in terms), default=0)):
                table.append(kept(_add_product({}, table[-1].items(), replacement)))
            powers.append(table)
        # A degree-d term is over q**d; scaling it by q**(top - d) puts every term over q**top.
        top = max((sum(counts) for counts, _ in terms), default=0)
        acc: dict[Counts, int] = {}
        for counts, num in terms:
            product = {zero: num * q ** (top - sum(counts))}
            for j, c in enumerate(counts):
                if c:
                    product = kept(_add_product({}, product.items(), powers[j][c].items()))
            for key, value in product.items():
                acc[key] = acc.get(key, 0) + value
        return _from_numerators(n, acc, den * q**top)


def _separable_sum(
    poly: Polynomial,
    lower: Sequence[Scalar],
    upper: Sequence[Scalar],
    skip_axes: Iterable[int],
    axis_table: Callable[[int, int, int, int, Collection[int]], tuple[dict[int, int], int]],
    face_axis: int = 0,
) -> Fraction:
    """``_separable_terms`` on the terms of a polynomial."""
    (terms,), den = _split([poly])
    return _separable_terms(poly.n, terms, den, lower, upper, skip_axes, axis_table, face_axis)


def _separable_terms(
    n: int,
    terms: Terms,
    den: int,
    lower: Sequence[Scalar],
    upper: Sequence[Scalar],
    skip_axes: Iterable[int],
    axis_table: Callable[[int, int, int, int, Collection[int]], tuple[dict[int, int], int]],
    face_axis: int = 0,
) -> Fraction:
    """Sum over terms of the coefficient times one factor per integrated axis.

    The terms are nonzero (counts, int numerator) pairs over ``den``, in n
    variables.

    ``axis_table(lo, hi, q, top, exps)`` gets an axis's bounds as ``lo/q``
    and ``hi/q`` and returns the factors for the exponents ``exps`` that the
    terms use on that axis, keyed by exponent, as integer numerators over one
    denominator; ``top`` is the highest exponent, 0 if there is none.
    Skipped axes contribute no factor; the polynomial must not depend on
    them.  Axis ``face_axis`` takes the factors of ``_face_pair`` instead of
    ``axis_table``'s.
    """
    lo = [Fraction(v) for v in lower]
    hi = [Fraction(v) for v in upper]
    if len(lo) != n or len(hi) != n:
        raise ValueError("box dimension mismatch")
    skip = sorted(set(skip_axes))
    for axis in skip:
        if not 1 <= axis <= n:
            raise ValueError(f"axis {axis} out of range 1..{n}")
    depends = [axis for counts, _ in terms for axis in skip if counts[axis - 1]]
    if depends:
        raise ValueError(f"polynomial still depends on skipped axis {depends[0]}")
    tables = []
    for r in range(n):
        if r + 1 not in skip:
            exps = {counts[r] for counts, _ in terms}
            ends, q = _common_numerators((lo[r], hi[r]))
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


# Each axis table computes only the exponents the terms use: with long bounds, one power of a
# high exponent is already a big number, and a sparse density uses few of 0..top.
def _powers(
    lo: int, hi: int, q: int, top: int, exps: Collection[int]
) -> tuple[dict[int, int], int]:
    """The powers of the upper bound ``hi/q``, over ``q**top``: evaluation at a point."""
    return {e: hi**e * q ** (top - e) for e in exps}, q**top


def _face_pair(
    lo: int, hi: int, q: int, top: int, exps: Collection[int]
) -> tuple[dict[int, int], int]:
    """``(hi/q)**e - (lo/q)**e`` over ``q**top``: the upper face minus the lower face."""
    return {e: (hi**e - lo**e) * q ** (top - e) for e in exps}, q**top


def _antiderivatives(
    lo: int, hi: int, q: int, top: int, exps: Collection[int]
) -> tuple[dict[int, int], int]:
    """``(hi**(e+1) - lo**(e+1)) / ((e+1) q**(e+1))``, over ``lcm(1..top+1) q**(top+1)``."""
    scale = math.lcm(*range(1, top + 2))
    nums = {
        e: (hi ** (e + 1) - lo ** (e + 1)) * q ** (top - e) * (scale // (e + 1)) for e in exps
    }
    return nums, scale * q ** (top + 1)


def _midpoint_sums(
    cells: int, lo: int, hi: int, q: int, top: int, exps: Collection[int]
) -> tuple[dict[int, int], int]:
    # The cell width times the sums of the powers of the midpoints, over one denominator.
    # Midpoint c is (2 cells lo + (hi - lo)(2c + 1)) / step; width is (hi - lo) / (q cells).
    request = f"midpoint rule of {cells} cells at degree {top}"
    _check_budget((cells * (top + 1),), "midpoint powers", request)
    step = 2 * cells * q
    # The midpoints run linearly in c, so the first or the last has the longest numerator.
    bits = max(v.bit_length() for v in (2 * cells * lo + hi - lo, 2 * cells * hi - hi + lo, step))
    _check_budget((cells * (top + 1) * bits,), "midpoint bits", request)
    mids = [2 * cells * lo + (hi - lo) * (2 * c + 1) for c in range(cells)]
    nums = {e: (hi - lo) * sum(m**e for m in mids) * step ** (top - e) for e in exps}
    return nums, q * cells * step**top


def box_integral(
    poly: Polynomial,
    lower: Sequence[Scalar],
    upper: Sequence[Scalar],
    skip_axes: Iterable[int] = (),
) -> Fraction:
    """Exact integral of a polynomial over an axis-aligned box.

    Monomials integrate axis by axis in closed form.  Axes listed in
    ``skip_axes`` are not integrated; the polynomial must not depend on them
    (freeze them with ``substitute`` first).
    """
    return _separable_sum(poly, lower, upper, skip_axes, _antiderivatives)


def midpoint_integral(
    poly: Polynomial,
    lower: Sequence[Scalar],
    upper: Sequence[Scalar],
    cells: int,
    skip_axes: Iterable[int] = (),
) -> Fraction:
    """Midpoint-rule integral of a polynomial over an axis-aligned box.

    Each integrated axis is cut into ``cells`` equal cells; the result is
    the sum of the polynomial at the cell centers times the cell volume,
    exactly.  On a tensor grid that sum factors for each monomial into one
    per axis, the cell width times the sum of the powers of the axis
    midpoints, so the cost grows linearly in ``cells``, not as ``cells**n``.
    ``skip_axes`` works as in ``box_integral``.
    """
    if cells < 1:
        raise ValueError(f"cells must be positive, got {cells}")
    return _separable_sum(poly, lower, upper, skip_axes, partial(_midpoint_sums, cells))


class PolyField(_Record):
    """Polynomial map with m components on an n-dimensional source."""

    __slots__ = _fields = ("n", "m", "components")

    def __init__(self, n: int, m: int, components: tuple[Polynomial, ...]) -> None:
        comps = tuple(components)
        if m < 1:
            raise ValueError(f"value dimension must be positive, got {m}")
        if len(comps) != m:
            raise ValueError(f"expected {m} components, got {len(comps)}")
        for poly in comps:
            if poly.n != n:
                raise ValueError("component dimension mismatch")
        self._store(n, m, comps)

    def component(self, alpha: int) -> Polynomial:
        if not 1 <= alpha <= self.m:
            raise ValueError(f"component {alpha} out of range 1..{self.m}")
        return self.components[alpha - 1]

    def __call__(self, point: Point | Sequence[Scalar]) -> tuple[Fraction, ...]:
        return tuple(poly(point) for poly in self.components)
