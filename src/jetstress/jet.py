"""Jets of vector-valued fields and their dual objects.

The k-jet of an m-component field at a point collects, for every order
``l <= k`` and every component ``alpha``, the symmetric tensor of order-l
partial derivatives.  Blocks are stored as covariant compressed symmetric
tensors in plain convention, so the stored numbers are literally the
derivative values at the point, one per non-decreasing differentiation
multi-index.

A jet covector is the dual object: one coefficient per jet slot against the
basis dual to the multiplicity-scaled differential monomials, stored as
contravariant compressed tensors in arrow convention.  With these two
conventions the pairing of a covector with a jet is the plain sum of
products of stored components, slot by slot.

Chart maps here are affine coordinate changes together with a polynomial
frame change of the value components; the first-order transformation rule
mixes the value block into the derivative block through the frame's
derivative and is functorial under composition.

A jet and the Taylor polynomials of its field in the offset from the base
point carry the same numbers: slot J of component alpha is ``J!`` times the
coefficient of ``y^J``.  Taking a jet, realizing it and transforming it are
therefore all pullbacks of polynomials along affine maps, done by
``Polynomial.compose_affine``.

Jets, jet covectors, hyper-stresses and stress fields all use the same slot
table: slot (alpha, J) with ``|J| <= k`` sits in row ``blocks[l][alpha-1]``,
``l = |J|``, at the colex rank of J.  ``_slot`` is the one place that
addresses a slot and range-checks it, ``_slot_rows`` fills the rows from a
slot map, and ``_tensor_blocks`` turns rows into symmetric tensor blocks.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import _linalg
from .multiindex import IndexLike, as_cardinality, enumerate_nondecreasing, mi_factorial, rank
from .multiindex import _Record, sym_dim
from .polyfield import Point, PolyField, Polynomial, Scalar, _sum_of_products
from .symtensor import SymTensor


def _check_jet_shape(n: int, m: int, k: int) -> None:
    """Header check shared by every object with jet-shaped blocks."""
    for name, value, least in (("n", n, 1), ("m", m, 1), ("k", k, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_jet_blocks(n: int, m: int, k: int, blocks: Sequence[Sequence]) -> None:
    """Header and block counts shared by every object with jet-shaped blocks."""
    _check_jet_shape(n, m, k)
    if len(blocks) != k + 1:
        raise ValueError(f"expected {k + 1} blocks, got {len(blocks)}")
    for l, block in enumerate(blocks):
        if len(block) != m:
            raise ValueError(f"block {l} must have {m} rows, got {len(block)}")


def _check_tensor_blocks(
    n: int, m: int, k: int, blocks: tuple[tuple[SymTensor, ...], ...], variance: str, convention: str
) -> None:
    _check_jet_blocks(n, m, k, blocks)
    for l, block in enumerate(blocks):
        for tensor in block:
            if tensor.n != n or tensor.degree != l:
                raise ValueError(f"block {l} tensor has wrong shape")
            if tensor.variance != variance or tensor.convention != convention:
                raise ValueError(
                    f"block {l} tensor must be {variance}/{convention}, "
                    f"got {tensor.variance}/{tensor.convention}"
                )


def _slot(n: int, m: int, k: int, alpha: int, index: IndexLike) -> tuple[int, int, int]:
    """Block order, row and colex rank of the jet slot (alpha, index)."""
    if not 1 <= alpha <= m:
        raise ValueError(f"component {alpha} out of range 1..{m}")
    card = as_cardinality(index, n)
    if card.degree > k:
        raise ValueError(f"order {card.degree} exceeds jet order {k}")
    return card.degree, alpha - 1, rank(card)


def _slot_rows(
    n: int, m: int, k: int, entries: Mapping[tuple[int, IndexLike], object], zero: object
) -> list[list[list]]:
    """Rows ``[l][alpha-1]`` in rank order holding ``entries`` by slot, ``zero`` elsewhere."""
    _check_jet_shape(n, m, k)
    rows = [[[zero] * sym_dim(n, l) for _ in range(m)] for l in range(k + 1)]
    for (alpha, index), value in entries.items():
        l, a, r = _slot(n, m, k, alpha, index)
        rows[l][a][r] = value
    return rows


def _tensor_blocks(
    n: int, rows: Sequence[Sequence[Sequence]], variance: str, convention: str
) -> tuple[tuple[SymTensor, ...], ...]:
    """Blocks of symmetric tensors from rows ``[l][alpha-1]`` of components in rank order."""
    return tuple(
        tuple(SymTensor(n, l, variance, convention, row) for row in block)
        for l, block in enumerate(rows)
    )


class JetElement(_Record):
    """Derivative data of a field at a point, through order k."""

    __slots__ = _fields = ("n", "m", "k", "x", "blocks")

    def __init__(
        self, n: int, m: int, k: int, x: Point, blocks: tuple[tuple[SymTensor, ...], ...]
    ) -> None:
        blocks = tuple(tuple(b) for b in blocks)
        _check_tensor_blocks(n, m, k, blocks, "co", "plain")
        if x.n != n:
            raise ValueError("base point dimension mismatch")
        self._store(n, m, k, x, blocks)

    @classmethod
    def zero(cls, n: int, m: int, k: int, x: Point | None = None) -> "JetElement":
        base = x if x is not None else Point.origin(n)
        return cls(n, m, k, base, _tensor_blocks(n, _slot_rows(n, m, k, {}, 0), "co", "plain"))

    def component(self, alpha: int, index: IndexLike) -> Fraction:
        """Derivative value for component alpha at a differentiation index."""
        l, a, r = _slot(self.n, self.m, self.k, alpha, index)
        return self.blocks[l][a].components[r]


class JetCovector(_Record):
    """Linear functional on order-k jets, one coefficient per jet slot."""

    __slots__ = _fields = ("n", "m", "k", "blocks")

    def __init__(self, n: int, m: int, k: int, blocks: tuple[tuple[SymTensor, ...], ...]) -> None:
        blocks = tuple(tuple(b) for b in blocks)
        _check_tensor_blocks(n, m, k, blocks, "contra", "arrow")
        self._store(n, m, k, blocks)

    @classmethod
    def zero(cls, n: int, m: int, k: int) -> "JetCovector":
        return cls.from_map(n, m, k, {})

    @classmethod
    def from_map(
        cls, n: int, m: int, k: int, entries: dict[tuple[int, IndexLike], Scalar]
    ) -> "JetCovector":
        return cls(n, m, k, _tensor_blocks(n, _slot_rows(n, m, k, entries, 0), "contra", "arrow"))

    def component(self, alpha: int, index: IndexLike) -> Fraction:
        l, a, r = _slot(self.n, self.m, self.k, alpha, index)
        return self.blocks[l][a].components[r]


def _jet_of_taylor(polys: Sequence[Polynomial], x: Point, k: int) -> JetElement:
    """The k-jet at x of the fields whose Taylor polynomials in the offset from x are ``polys``.

    Slot J of component alpha is ``J!`` times the coefficient of ``y^J``;
    terms above order k are ignored.
    """
    coeffs = [poly.coeff_map() for poly in polys]
    rows = []
    for l in range(k + 1):
        cards = enumerate_nondecreasing(x.n, l)
        rows.append([[c.get(card, 0) * mi_factorial(card) for card in cards] for c in coeffs])
    return JetElement(x.n, len(polys), k, x, _tensor_blocks(x.n, rows, "co", "plain"))


def _taylor_of_jet(jet: JetElement) -> list[Polynomial]:
    """Per component, ``sum_J value_J / J! * y^J`` in the offset y from the base point."""
    polys = []
    for alpha in range(jet.m):
        terms = []
        for l, block in enumerate(jet.blocks):
            cards = enumerate_nondecreasing(jet.n, l)
            terms += [(c, v / mi_factorial(c)) for c, v in zip(cards, block[alpha].components)]
        polys.append(Polynomial(jet.n, tuple(terms)))
    return polys


def jet_of(field: PolyField, x: Point, k: int) -> JetElement:
    """The k-jet of a polynomial field at a point, derivatives taken exactly."""
    return _jet_of_taylor([poly.taylor(x, k) for poly in field.components], x, k)


def source(jet: JetElement) -> Point:
    """Base point of the jet."""
    return jet.x


def truncate(jet: JetElement, order: int) -> JetElement:
    """Forget all derivative blocks above the given order."""
    if not 0 <= order <= jet.k:
        raise ValueError(f"order {order} out of range 0..{jet.k}")
    return JetElement(jet.n, jet.m, order, jet.x, jet.blocks[: order + 1])


def realize(jet: JetElement) -> PolyField:
    """The Taylor polynomial field whose k-jet at the base point is the jet.

    Component alpha is the sum over slots of the stored derivative divided
    by counts!, times the centered monomial of the slot.
    """
    identity, back = _linalg.identity(jet.n), [-c for c in jet.x.coords]
    polys = tuple(poly.compose_affine(identity, back) for poly in _taylor_of_jet(jet))
    return PolyField(jet.n, jet.m, polys)


def pair_jet(covector: JetCovector, jet: JetElement) -> Fraction:
    """Plain sum over jet slots of covector coefficient times derivative value."""
    if (covector.n, covector.m, covector.k) != (jet.n, jet.m, jet.k):
        raise ValueError("shape mismatch")
    total = Fraction(0)
    for l in range(jet.k + 1):
        for alpha in range(jet.m):
            phi = covector.blocks[l][alpha].components
            a = jet.blocks[l][alpha].components
            total += sum((p * v for p, v in zip(phi, a)), Fraction(0))
    return total


class ChartMap(_Record):
    """Affine change of source coordinates with a polynomial frame change.

    New coordinates are ``x' = matrix . x + offset`` with an invertible exact
    matrix.  The frame is an m-by-m matrix of polynomials in the old
    coordinates that re-expresses value components: new component alpha is
    ``sum_beta frame[alpha][beta](x) * old component beta``.
    """

    __slots__ = _fields = ("n", "m", "matrix", "offset", "frame")

    def __init__(self, n: int, m: int, matrix: tuple, offset: tuple, frame: tuple) -> None:
        matrix = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        offset = tuple(Fraction(v) for v in offset)
        frame = tuple(tuple(row) for row in frame)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix must be n by n")
        if len(offset) != n:
            raise ValueError("offset must have n entries")
        if len(frame) != m or any(len(row) != m for row in frame):
            raise ValueError("frame must be m by m")
        for row in frame:
            for poly in row:
                if poly.n != n:
                    raise ValueError("frame polynomial dimension mismatch")
        if _linalg.det(matrix) == 0:
            raise ValueError("singular coordinate matrix")
        self._store(n, m, matrix, offset, frame)

    @classmethod
    def identity(cls, n: int, m: int) -> "ChartMap":
        matrix = _linalg.identity(n)
        offset = (Fraction(0),) * n
        frame = tuple(
            tuple(Polynomial.constant(n, int(a == b)) for b in range(m)) for a in range(m)
        )
        return cls(n, m, matrix, offset, frame)

    def apply_point(self, x: Point) -> Point:
        if x.n != self.n:
            raise ValueError("point dimension mismatch")
        return Point(tuple(v + o for v, o in zip(_linalg.mat_vec(self.matrix, x.coords), self.offset)))


def compose_charts(outer: ChartMap, inner: ChartMap) -> ChartMap:
    """The chart doing ``inner`` first, then ``outer``.

    The outer frame depends on the intermediate coordinates, so it is pulled
    back along the inner affine map before the frame matrices multiply.
    """
    if (outer.n, outer.m) != (inner.n, inner.m):
        raise ValueError("shape mismatch")
    matrix = _linalg.mat_mul(outer.matrix, inner.matrix)
    offset = [v + o for v, o in zip(_linalg.mat_vec(outer.matrix, inner.offset), outer.offset)]
    pulled = [
        [poly.compose_affine(inner.matrix, inner.offset) for poly in row] for row in outer.frame
    ]
    frame = [
        [_sum_of_products(outer.n, list(zip(row, column))) for column in zip(*inner.frame)]
        for row in pulled
    ]
    return ChartMap(outer.n, outer.m, matrix, offset, frame)


def transform_1jet(jet: JetElement, chart: ChartMap) -> JetElement:
    """Push a 1-jet through a chart map.

    In the offset y from the new base point the old offset is ``inv . y``,
    so new component alpha is, near the base point,

        sum_beta frame[alpha][beta](x0 + inv . y) * T_beta(inv . y)

    with T_beta the Taylor polynomial of the jet's component beta.  The
    1-jet of a product depends only on the 1-jets of its factors, so the
    1-jet of that polynomial at y = 0 is the new jet exactly.

    Only order 1 is supported.
    """
    if jet.k != 1:
        raise ValueError(f"transform requires a 1-jet, got order {jet.k}")
    if (chart.n, chart.m) != (jet.n, jet.m):
        raise ValueError("shape mismatch")
    inv, x0 = _linalg.inverse(chart.matrix), jet.x.coords
    slots = [poly.compose_affine(inv, (0,) * jet.n) for poly in _taylor_of_jet(jet)]
    new = [
        _sum_of_products(jet.n, [(f.compose_affine(inv, x0), t) for f, t in zip(row, slots)])
        for row in chart.frame
    ]
    return _jet_of_taylor(new, chart.apply_point(jet.x), 1)
