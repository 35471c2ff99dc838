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
therefore all pullbacks of polynomials along affine maps: taking and
realizing one are ``Polynomial.taylor`` at the base point and at its
negative, and transforming one is ``Polynomial.compose_affine``.

Jets, jet covectors, hyper-stresses and stress fields all use the same slot
table: slot (alpha, J) with ``|J| <= k`` sits in row ``blocks[l][alpha-1]``,
``l = |J|``, at the colex rank of J.  ``_slot`` is the one place that
addresses a slot and range-checks it, ``_slot_rows`` fills the rows from a
slot map, ``_slot_items`` is the one reader that turns rows back into slots,
and ``_tensor_blocks`` builds each block of ``_jet_of_slots`` and
``_covector_of_rows`` once.  A jet pairing is the sum of its blocks' pairings.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction

from . import _linalg
from .multiindex import CardinalityIndex, IndexLike, as_cardinality, mi_factorial, rank
from .multiindex import _axes_counts, _class_axes, _Record, sym_dim
from .polyfield import Point, PolyField, Polynomial, Scalar, _affine, _sum_of_products
from .symtensor import _ZERO, SymTensor, pair


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


def _slot_items(n: int, rows: Iterable[Iterable[Sequence]], zero: object) -> Iterator[tuple]:
    """``(l, alpha, axes, value)`` for every value other than ``zero`` in rows ``[l][alpha-1]``.

    ``axes`` is the canonical axis list of the slot's index class.  The
    inverse of ``_slot_rows``, in block, row and rank order.  The index
    classes of an order are listed only when some row of it holds a value.
    """
    for l, block in enumerate(rows):
        held = [(a, r, v) for a, row in enumerate(block, 1) for r, v in enumerate(row) if v != zero]
        if held:
            classes = _class_axes(n, l)
            for alpha, r, value in held:
                yield l, alpha, classes[r], value


def _tensor_blocks(n: int, rows: Sequence[Sequence], variance: str, convention: str) -> tuple:
    """Blocks of symmetric tensors from rows ``[l][alpha-1]`` of ``Fraction``s in rank order."""
    return tuple(
        tuple(SymTensor._trusted(n, l, variance, convention, tuple(row)) for row in block)
        for l, block in enumerate(rows)
    )


def _jet_of_slots(n: int, m: int, k: int, x: Point, slots: Mapping) -> JetElement:
    """The jet at x holding the ``Fraction``s ``slots[alpha, index]``, zero elsewhere."""
    rows = _slot_rows(n, m, k, slots, _ZERO)
    return JetElement(n, m, k, x, _tensor_blocks(n, rows, "co", "plain"))


def _covector_of_rows(n: int, m: int, k: int, rows: Sequence[Sequence]) -> JetCovector:
    """The jet covector with rows ``[l][alpha-1]`` of ``Fraction``s in rank order."""
    return JetCovector(n, m, k, _tensor_blocks(n, rows, "contra", "arrow"))


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
        return _jet_of_slots(n, m, k, x if x is not None else Point.origin(n), {})

    def component(self, alpha: int, index: IndexLike) -> Fraction:
        """Stored value of the jet slot (alpha, index)."""
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
        slots = {slot: Fraction(value) for slot, value in entries.items()}
        return _covector_of_rows(n, m, k, _slot_rows(n, m, k, slots, _ZERO))

    component = JetElement.component


def _jet_of_taylor(polys: Sequence[Polynomial], x: Point, k: int) -> JetElement:
    """The k-jet at x of the fields whose Taylor polynomials in the offset from x are ``polys``.

    Slot J of component alpha is ``J!`` times the coefficient of ``y^J``;
    terms above order k are ignored, and only the nonzero terms are placed.
    """
    entries = {
        (alpha, card): c * mi_factorial(card)
        for alpha, poly in enumerate(polys, 1)
        for card, c in poly.terms
        if card.degree <= k
    }
    return _jet_of_slots(x.n, len(polys), k, x, entries)


def _taylor_of_jet(jet: JetElement) -> list[Polynomial]:
    """Per component, ``sum_J value_J / J! * y^J`` in the offset y from the base point."""
    terms: list[list] = [[] for _ in range(jet.m)]
    rows = ((t.components for t in block) for block in jet.blocks)
    # Slots come nonzero and in block and rank order, which is the polynomial's term order.
    for _, alpha, axes, value in _slot_items(jet.n, rows, 0):
        card = CardinalityIndex._trusted(_axes_counts(axes, jet.n))
        terms[alpha - 1].append((card, value / mi_factorial(card)))
    return [Polynomial._trusted(jet.n, tuple(t)) for t in terms]


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
    back = Point(tuple(-c for c in jet.x.coords))
    polys = tuple(poly.taylor(back, poly.degree) for poly in _taylor_of_jet(jet))
    return PolyField(jet.n, jet.m, polys)


def pair_jet(covector: JetCovector, jet: JetElement) -> Fraction:
    """The sum of the tensor pairings of the jet's blocks with the covector's."""
    if (covector.n, covector.m, covector.k) != (jet.n, jet.m, jet.k):
        raise ValueError("shape mismatch")
    return sum(pair(a, phi) for both in zip(jet.blocks, covector.blocks) for a, phi in zip(*both))


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
    frame_map = _affine(jet.n, inv, x0)
    new = [
        _sum_of_products(jet.n, [(f._pullback(frame_map, 1), t) for f, t in zip(row, slots)])
        for row in chart.frame
    ]
    return _jet_of_taylor(new, chart.apply_point(jet.x), 1)
