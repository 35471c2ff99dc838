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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .multiindex import (
    CardinalityIndex,
    IndexLike,
    as_cardinality,
    enumerate_nondecreasing,
    mi_factorial,
)
from .polyfield import Point, PolyField, Polynomial, Scalar
from .symtensor import SymTensor


def _check_jet_shape(n: int, m: int, k: int) -> None:
    """Header check shared by every object with jet-shaped blocks."""
    for name, value, least in (("n", n, 1), ("m", m, 1), ("k", k, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_jet_blocks(
    n: int, m: int, k: int, blocks: tuple[tuple[SymTensor, ...], ...], variance: str, convention: str
) -> None:
    _check_jet_shape(n, m, k)
    if len(blocks) != k + 1:
        raise ValueError(f"expected {k + 1} blocks, got {len(blocks)}")
    for l, block in enumerate(blocks):
        if len(block) != m:
            raise ValueError(f"block {l} must have {m} tensors, got {len(block)}")
        for tensor in block:
            if tensor.n != n or tensor.degree != l:
                raise ValueError(f"block {l} tensor has wrong shape")
            if tensor.variance != variance or tensor.convention != convention:
                raise ValueError(
                    f"block {l} tensor must be {variance}/{convention}, "
                    f"got {tensor.variance}/{tensor.convention}"
                )


@dataclass(frozen=True)
class JetElement:
    """Derivative data of a field at a point, through order k."""

    n: int
    m: int
    k: int
    x: Point
    blocks: tuple[tuple[SymTensor, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        _check_jet_blocks(self.n, self.m, self.k, self.blocks, "co", "plain")
        if self.x.n != self.n:
            raise ValueError("base point dimension mismatch")

    @classmethod
    def zero(cls, n: int, m: int, k: int, x: Point | None = None) -> "JetElement":
        base = x if x is not None else Point.origin(n)
        blocks = tuple(
            tuple(SymTensor.zeros(n, l, "co", "plain") for _ in range(m)) for l in range(k + 1)
        )
        return cls(n, m, k, base, blocks)

    def component(self, alpha: int, index: IndexLike) -> Fraction:
        """Derivative value for component alpha at a differentiation index."""
        if not 1 <= alpha <= self.m:
            raise ValueError(f"component {alpha} out of range 1..{self.m}")
        card = as_cardinality(index, self.n)
        if card.degree > self.k:
            raise ValueError(f"order {card.degree} exceeds jet order {self.k}")
        return self.blocks[card.degree][alpha - 1].component(card)


@dataclass(frozen=True)
class JetCovector:
    """Linear functional on order-k jets, one coefficient per jet slot."""

    n: int
    m: int
    k: int
    blocks: tuple[tuple[SymTensor, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        _check_jet_blocks(self.n, self.m, self.k, self.blocks, "contra", "arrow")

    @classmethod
    def zero(cls, n: int, m: int, k: int) -> "JetCovector":
        blocks = tuple(
            tuple(SymTensor.zeros(n, l, "contra", "arrow") for _ in range(m)) for l in range(k + 1)
        )
        return cls(n, m, k, blocks)

    @classmethod
    def from_map(
        cls, n: int, m: int, k: int, entries: dict[tuple[int, IndexLike], Scalar]
    ) -> "JetCovector":
        maps: list[list[dict]] = [[{} for _ in range(m)] for _ in range(k + 1)]
        for (alpha, index), value in entries.items():
            if not 1 <= alpha <= m:
                raise ValueError(f"component {alpha} out of range 1..{m}")
            card = as_cardinality(index, n)
            if card.degree > k:
                raise ValueError(f"order {card.degree} exceeds jet order {k}")
            maps[card.degree][alpha - 1][card] = value
        blocks = tuple(
            tuple(SymTensor.from_map(n, l, "contra", "arrow", maps[l][a]) for a in range(m))
            for l in range(k + 1)
        )
        return cls(n, m, k, blocks)

    def component(self, alpha: int, index: IndexLike) -> Fraction:
        if not 1 <= alpha <= self.m:
            raise ValueError(f"component {alpha} out of range 1..{self.m}")
        card = as_cardinality(index, self.n)
        if card.degree > self.k:
            raise ValueError(f"order {card.degree} exceeds jet order {self.k}")
        return self.blocks[card.degree][alpha - 1].component(card)


def jet_of(field: PolyField, x: Point, k: int) -> JetElement:
    """The k-jet of a polynomial field at a point, derivatives taken exactly."""
    if x.n != field.n:
        raise ValueError("point dimension mismatch")
    if k < 0:
        raise ValueError(f"negative order {k}")
    blocks = []
    for l in range(k + 1):
        cards = enumerate_nondecreasing(field.n, l)
        block = []
        for alpha in range(1, field.m + 1):
            poly = field.component(alpha)
            comps = tuple(poly.derive(card)(x) for card in cards)
            block.append(SymTensor(field.n, l, "co", "plain", comps))
        blocks.append(tuple(block))
    return JetElement(field.n, field.m, k, x, tuple(blocks))


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
    x0 = jet.x
    offsets = [
        Polynomial.variable(jet.n, axis) - Polynomial.constant(jet.n, x0.coords[axis - 1])
        for axis in range(1, jet.n + 1)
    ]
    components = []
    for alpha in range(1, jet.m + 1):
        poly = Polynomial.zero(jet.n)
        for l in range(jet.k + 1):
            for card in enumerate_nondecreasing(jet.n, l):
                value = jet.component(alpha, card)
                if value == 0:
                    continue
                term = Polynomial.constant(jet.n, value / mi_factorial(card))
                for axis, count in enumerate(card.counts, start=1):
                    if count:
                        term = term * offsets[axis - 1].power(count)
                poly = poly + term
        components.append(poly)
    return PolyField(jet.n, jet.m, tuple(components))


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


@dataclass(frozen=True)
class ChartMap:
    """Affine change of source coordinates with a polynomial frame change.

    New coordinates are ``x' = matrix . x + offset`` with an invertible exact
    matrix.  The frame is an m-by-m matrix of polynomials in the old
    coordinates that re-expresses value components: new component alpha is
    ``sum_beta frame[alpha][beta](x) * old component beta``.
    """

    n: int
    m: int
    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]
    frame: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self) -> None:
        matrix = tuple(tuple(Fraction(v) for v in row) for row in self.matrix)
        offset = tuple(Fraction(v) for v in self.offset)
        frame = tuple(tuple(row) for row in self.frame)
        if len(matrix) != self.n or any(len(row) != self.n for row in matrix):
            raise ValueError("matrix must be n by n")
        if len(offset) != self.n:
            raise ValueError("offset must have n entries")
        if len(frame) != self.m or any(len(row) != self.m for row in frame):
            raise ValueError("frame must be m by m")
        for row in frame:
            for poly in row:
                if poly.n != self.n:
                    raise ValueError("frame polynomial dimension mismatch")
        if _linalg.det(matrix) == 0:
            raise ValueError("singular coordinate matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "frame", frame)

    @classmethod
    def identity(cls, n: int, m: int) -> "ChartMap":
        matrix = tuple(tuple(Fraction(int(r == c)) for c in range(n)) for r in range(n))
        offset = (Fraction(0),) * n
        frame = tuple(
            tuple(Polynomial.constant(n, int(a == b)) for b in range(m)) for a in range(m)
        )
        return cls(n, m, matrix, offset, frame)

    def apply_point(self, x: Point) -> Point:
        if x.n != self.n:
            raise ValueError("point dimension mismatch")
        return Point(tuple(_linalg.mat_vec(self.matrix, x.coords)[r] + self.offset[r] for r in range(self.n)))


def compose_charts(outer: ChartMap, inner: ChartMap) -> ChartMap:
    """The chart doing ``inner`` first, then ``outer``.

    The outer frame depends on the intermediate coordinates, so it is pulled
    back along the inner affine map before the frame matrices multiply.
    """
    if (outer.n, outer.m) != (inner.n, inner.m):
        raise ValueError("shape mismatch")
    matrix = tuple(tuple(v for v in row) for row in _linalg.mat_mul(outer.matrix, inner.matrix))
    offset = tuple(
        v + o for v, o in zip(_linalg.mat_vec(outer.matrix, inner.offset), outer.offset)
    )
    pulled = [
        [poly.compose_affine(inner.matrix, inner.offset) for poly in row] for row in outer.frame
    ]
    frame = tuple(
        tuple(
            sum(
                (pulled[a][b] * inner.frame[b][c] for b in range(outer.m)),
                Polynomial.zero(outer.n),
            )
            for c in range(outer.m)
        )
        for a in range(outer.m)
    )
    return ChartMap(outer.n, outer.m, matrix, offset, frame)


def transform_1jet(jet: JetElement, chart: ChartMap) -> JetElement:
    """Push a 1-jet through a chart map.

    The value block transforms by the frame at the base point.  The new
    first derivatives chain through the inverse coordinate matrix and pick
    up the derivative of the frame acting on the value block:

        new_d[alpha', i'] = sum_j inv[j][i'] * (
            sum_alpha d_j frame[alpha'][alpha](x0) * value[alpha]
          + sum_alpha frame[alpha'][alpha](x0) * old_d[alpha, j])

    Only order 1 is supported; higher orders would need iterated chain rule
    terms that are out of scope here.
    """
    if jet.k != 1:
        raise ValueError(f"transform requires a 1-jet, got order {jet.k}")
    if (chart.n, chart.m) != (jet.n, jet.m):
        raise ValueError("shape mismatch")
    n, m = jet.n, jet.m
    x0 = jet.x
    inv = _linalg.inverse(chart.matrix)
    frame_at = [[chart.frame[a][b](x0) for b in range(m)] for a in range(m)]
    frame_grad = [
        [
            [chart.frame[a][b].derive(CardinalityIndex.unit(n, j))(x0) for b in range(m)]
            for a in range(m)
        ]
        for j in range(1, n + 1)
    ]
    values = [jet.component(alpha, ()) for alpha in range(1, m + 1)]
    derivs = [
        [jet.component(alpha, (j,)) for j in range(1, n + 1)] for alpha in range(1, m + 1)
    ]
    new_values = [
        sum((frame_at[a][b] * values[b] for b in range(m)), Fraction(0)) for a in range(m)
    ]
    new_derivs = []
    for a in range(m):
        row = []
        for i_prime in range(n):
            total = Fraction(0)
            for j in range(n):
                chained = sum(
                    (
                        frame_grad[j][a][b] * values[b] + frame_at[a][b] * derivs[b][j]
                        for b in range(m)
                    ),
                    Fraction(0),
                )
                total += inv[j][i_prime] * chained
            row.append(total)
        new_derivs.append(row)
    blocks = (
        tuple(SymTensor(n, 0, "co", "plain", (new_values[a],)) for a in range(m)),
        tuple(SymTensor(n, 1, "co", "plain", tuple(new_derivs[a])) for a in range(m)),
    )
    return JetElement(n, m, 1, chart.apply_point(x0), blocks)
