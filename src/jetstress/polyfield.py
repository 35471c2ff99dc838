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
common denominator, works on plain ints, and divides once at the end, so the
results are the same reduced ``Fraction``s.  Every split, of coefficients
(``_split``), affine data or box bounds, is made by
``_linalg._common_numerators``.  Inside the kernels a monomial is one int,
its packed key (``_Keys``): the counts c_1..c_n and the degree d are its
digits in a base B above every total degree the call can produce, so the
key is ``d*B**n + sum(c_r * B**(r-1))``.  No digit carries, so a product of
monomials is the sum of their keys, and int order is the graded colex order
of the terms; ``Polynomial(n, terms)`` and ``from_map`` sort by the keys too.
Count tuples are the format of ``Polynomial.terms`` only.  ``_sum_of_products``
sums products; a sum, a negation or a scalar multiple is a sum of products
with constants.  ``_pullback`` pulls back along an affine map given per
variable as its nonzero linear coefficients and its constant; a variable not
given is kept, and only the variables the terms use are split, their powers
memoized per exponent.  ``taylor`` gives each x_j as ``y_j + c_j`` and drops
the terms above the order as it builds; ``substitute`` gives one variable as
a constant; ``compose_affine`` and ``transform_1jet`` read a dense map
through ``_affine``.
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
from operator import mul

from ._linalg import _common_numerators
from .multiindex import CardinalityIndex, IndexLike, MultiIndex, _Record, cardinality
from .multiindex import _check_budget, _checked_counts

Scalar = Fraction | int | str
Counts = tuple[int, ...]
# Kernel terms: (packed key, int numerator) pairs.
Terms = Collection[tuple[int, int]]

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


class _Keys:
    """The packed keys of the monomials in n variables of total degree at most ``top``.

    Each count and the degree is one digit of ``size`` bytes, the fewest that
    hold ``top``: counts c_1..c_n of degree d pack to the int
    ``d << bits*n | sum(c_r << bits*(r-1))``, ``bits = 8*size``.  A key is
    made and read through its bytes, so either costs time linear in n.
    """

    __slots__ = ("n", "size", "bits", "mask", "degree_unit")

    def __init__(self, n: int, top: int) -> None:
        self.n, self.size = n, max(1, -(-top.bit_length() // 8))
        self.bits = 8 * self.size
        self.mask = (1 << self.bits) - 1
        # The key of degree 1 and no count: the digit that orders the keys by degree first.
        self.degree_unit = 1 << self.bits * n

    def unit(self, axis: int) -> int:
        """The key of the variable along ``axis``, 0-based: that count and the degree are 1."""
        return (1 << self.bits * axis) + self.degree_unit

    def pack(self, counts: Counts) -> int:
        if self.size == 1:
            return int.from_bytes(bytes(counts), "little") + sum(counts) * self.degree_unit
        raw = b"".join([c.to_bytes(self.size, "little") for c in counts])
        return int.from_bytes(raw, "little") + sum(counts) * self.degree_unit

    def counts(self, key: int) -> Counts:
        size, n = self.size, self.n
        raw = key.to_bytes(size * (n + 1), "little")
        if size == 1:
            return tuple(raw[:n])
        return tuple([int.from_bytes(raw[i : i + size], "little") for i in range(0, size * n, size)])


def _split(
    term_lists: Sequence[Sequence[tuple[CardinalityIndex, Fraction]]], keys: _Keys
) -> tuple[list[list[tuple[int, int]]], int]:
    """Each list of polynomial terms as (packed key, int numerator) pairs, over one denominator."""
    nums, den = _common_numerators([c for terms in term_lists for _, c in terms])
    # zip stops at the end of a list's terms before it takes a numerator past them.
    rest = iter(nums)
    pack = keys.pack
    return [list(zip([pack(card.counts) for card, _ in terms], rest)) for terms in term_lists], den


def _top(polys: Iterable["Polynomial"]) -> int:
    """The highest total degree of the polynomials, 0 if they have no term."""
    return max((poly.degree for poly in polys), default=0)


def _sum_of_products(n: int, pairs: Sequence[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
    """``sum(left * right for left, right in pairs)``, adding ints over one common denominator."""
    keys = _Keys(n, _top(left for left, _ in pairs) + _top(right for _, right in pairs))
    lefts, den_l = _split([left.terms for left, _ in pairs], keys)
    rights, den_r = _split([right.terms for _, right in pairs], keys)
    acc: dict[int, int] = {}
    for left, right in zip(lefts, rights):
        _add_product(acc, left, right)
    return _from_numerators(acc, den_l * den_r, keys)


def _add_product(acc: dict[int, int], left: Terms, right: Terms) -> dict[int, int]:
    """Add the product of two (packed key, int numerator) term lists into ``acc``; return it."""
    get = acc.get
    for key_a, a in left:
        for key_b, b in right:
            key = key_a + key_b
            acc[key] = get(key, 0) + a * b
    return acc


def _derived(terms: Terms, axis: int, keys: _Keys) -> list[tuple[int, int]]:
    """The derivative along ``axis``, 0-based, of (packed key, int numerator) terms.

    A term's exponent of the axis is its key's digit there, which is also the factor it picks up.
    """
    shift, mask, step = keys.bits * axis, keys.mask, keys.unit(axis)
    return [(key - step, value * c) for key, value in terms if (c := key >> shift & mask)]


def _scaled_sum(n: int, *scaled: tuple["Polynomial", Scalar]) -> "Polynomial":
    """``sum(factor * poly for poly, factor in scaled)``, as products with constants."""
    if any(poly.n != n for poly, _ in scaled):
        raise ValueError("dimension mismatch")
    return _sum_of_products(n, [(poly, Polynomial.constant(n, f)) for poly, f in scaled])


def _from_numerators(acc: Mapping[int, int], den: int, keys: _Keys) -> "Polynomial":
    """The polynomial with coefficients ``acc[key] / den``.

    The keys are sums and differences of the packed keys of valid count
    vectors, so neither they nor the terms are validated again; int order is
    the canonical order, and each term is built once.
    """
    trusted, counts = CardinalityIndex._trusted, keys.counts
    terms = [(trusted(counts(key)), Fraction(acc[key], den)) for key in sorted(acc) if acc[key]]
    return Polynomial._trusted(keys.n, tuple(terms))


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
        pack = _Keys(n, max((card.degree for card in cleaned), default=0)).pack
        self._store(n, tuple(sorted(cleaned.items(), key=lambda term: pack(term[0].counts))))

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
        # The keys are valid count vectors of length n, so no term is checked again.
        pack, trusted = _Keys(n, max(map(sum, acc), default=0)).pack, CardinalityIndex._trusted
        terms = [(trusted(c), v) for c in sorted(acc, key=pack) if (v := acc[c])]
        return cls._trusted(n, tuple(terms))

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
        """Total degree; the zero polynomial reports 0.  The terms are in graded order."""
        return self.terms[-1][0].degree if self.terms else 0

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
        keys = _Keys(self.n, self.degree)
        (terms,), den = _split([self.terms], keys)
        # One differentiation at a time; after the degree's worth none is left.
        for axis, count in enumerate(order):
            for _ in range(min(count, self.degree + 1)):
                terms = _derived(terms, axis, keys)
        return _from_numerators(dict(terms), den, keys)

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
        return self._pullback({j: ({j: 1}, c) for j, c in enumerate(center.coords)}, order)

    def substitute(self, axis: int, value: Scalar) -> "Polynomial":
        """Freeze one variable at an exact value; the axis count drops to zero.

        This is the pullback along the affine map that keeps the other
        variables and sends this one to the constant ``value``.
        """
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis {axis} out of range 1..{self.n}")
        return self._pullback({axis - 1: ({}, Fraction(value))})

    def compose_affine(
        self, matrix: Sequence[Sequence[Scalar]], offset: Sequence[Scalar]
    ) -> "Polynomial":
        """Substitute each variable by an affine expression of fresh variables.

        Variable j is replaced by ``sum_i matrix[j][i] * x^i + offset[j]``;
        the result is the pullback of the polynomial along the affine map.
        """
        return self._pullback(_affine(self.n, matrix, offset))

    def _pullback(self, maps: Mapping[int, tuple], cap: int | None = None) -> "Polynomial":
        """The pullback that replaces variable j, 0-based, by ``maps[j]``, terms above ``cap`` cut.

        ``maps[j]`` is its nonzero linear coefficients keyed by 0-based axis,
        and its constant.  A variable not in ``maps`` is kept.
        """
        n, top = self.n, self.degree
        keys = _Keys(n, top)
        # Degrees only add, so every partial product can drop its terms above the cap: those are
        # the keys from degree cap + 1 on.
        limit = None if cap is None else (cap + 1) * keys.degree_unit

        def kept(acc: dict[int, int]) -> dict[int, int]:
            return acc if limit is None else {key: v for key, v in acc.items() if key < limit}

        highest = [max(column) for column in zip(*[card.counts for card, _ in self.terms])]
        used = [j for j, power in enumerate(highest) if power]
        replaced = [maps.get(j, ({j: 1}, 0)) for j in used]
        # Replacement j is (sum_i a_ji x^i + b_j) / q over ints, zero entries skipped.
        data, q = _common_numerators([v for linear, b in replaced for v in (*linear.values(), b)])
        rest = iter(data)
        powers = {}
        for j, (linear, _) in zip(used, replaced):
            # zip stops at the end of the keys before it takes a numerator past them.
            replacement = [(key, v) for key, v in zip([*map(keys.unit, linear), 0], rest) if v]
            table = [{0: 1}]
            for _ in range(highest[j]):
                table.append(kept(_add_product({}, table[-1].items(), replacement)))
            powers[j] = table
        nums, den = _common_numerators([c for _, c in self.terms])
        # A degree-d term is over q**d; scaling it by q**(top - d) puts every term over q**top.
        acc: dict[int, int] = {}
        for (card, _), num in zip(self.terms, nums):
            product = {0: num * q ** (top - card.degree)}
            for j, c in enumerate(card.counts):
                if c:
                    product = kept(_add_product({}, product.items(), powers[j][c].items()))
            for key, value in product.items():
                acc[key] = acc.get(key, 0) + value
        return _from_numerators(acc, den * q**top, keys)


def _affine(n: int, matrix: Sequence[Sequence[Scalar]], offset: Sequence[Scalar]) -> dict:
    """The replacements of the n variables under ``x -> matrix . x + offset``, for ``_pullback``."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    shift = [Fraction(v) for v in offset]
    if len(rows) != n or len(shift) != n or any(len(row) != n for row in rows):
        raise ValueError("affine data dimension mismatch")
    return {j: ({i: v for i, v in enumerate(rows[j]) if v}, shift[j]) for j in range(n)}


def _separable_sum(
    poly: Polynomial,
    lower: Sequence[Scalar],
    upper: Sequence[Scalar],
    skip_axes: Iterable[int],
    axis_table: Callable[[int, int, int, int, Collection[int]], tuple[dict[int, int], int]],
    face_axis: int = 0,
) -> Fraction:
    """``_separable_terms`` on the terms of a polynomial."""
    keys = _Keys(poly.n, poly.degree)
    (terms,), den = _split([poly.terms], keys)
    return _separable_terms(terms, den, keys, lower, upper, skip_axes, axis_table, face_axis)


def _separable_terms(
    terms: Terms,
    den: int,
    keys: _Keys,
    lower: Sequence[Scalar],
    upper: Sequence[Scalar],
    skip_axes: Iterable[int],
    axis_table: Callable[[int, int, int, int, Collection[int]], tuple[dict[int, int], int]],
    face_axis: int = 0,
) -> Fraction:
    """Sum over terms of the coefficient times one factor per integrated axis.

    The terms are nonzero (packed key, int numerator) pairs over ``den``, in
    the n variables of ``keys``.

    ``axis_table(lo, hi, q, top, exps)`` gets an axis's bounds as ``lo/q``
    and ``hi/q`` and returns the factors for the exponents ``exps`` that the
    terms use on that axis, keyed by exponent, as integer numerators over one
    denominator; ``top`` is the highest exponent, 0 if there is none.
    Skipped axes contribute no factor; the polynomial must not depend on
    them.  Axis ``face_axis`` takes the factors of ``_face_pair`` instead of
    ``axis_table``'s.
    """
    n = keys.n
    lo = [Fraction(v) for v in lower]
    hi = [Fraction(v) for v in upper]
    if len(lo) != n or len(hi) != n:
        raise ValueError("box dimension mismatch")
    skip = sorted(set(skip_axes))
    for axis in skip:
        if not 1 <= axis <= n:
            raise ValueError(f"axis {axis} out of range 1..{n}")
    # Each key is read once: reading one digit of a key costs time linear in n.
    counts = [keys.counts(key) for key, _ in terms]
    depends = [axis for c in counts for axis in skip if c[axis - 1]]
    if depends:
        raise ValueError(f"polynomial still depends on skipped axis {depends[0]}")
    values = [num for _, num in terms]
    for r in range(n):
        if r + 1 not in skip:
            exps = [c[r] for c in counts]
            ends, q = _common_numerators((lo[r], hi[r]))
            table = _face_pair if r + 1 == face_axis else axis_table
            nums, axis_den = table(*ends, q, max(exps, default=0), set(exps))
            values = list(map(mul, values, map(nums.__getitem__, exps)))
            den *= axis_den
    return Fraction(sum(values), den)


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
    # One running power per midpoint, raised from each used exponent to the next.
    nums, powers, last = {}, [1] * cells, 0
    for e in sorted(exps):
        powers = [p * m ** (e - last) for p, m in zip(powers, mids)]
        nums[e], last = (hi - lo) * sum(powers) * step ** (top - e), e
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
