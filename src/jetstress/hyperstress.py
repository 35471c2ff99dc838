"""Higher-order stresses, their power densities, and boundary tractions.

A variational hyper-stress of order k is a covector on k-jets with a volume
form attached: paired with the k-jet of a virtual field it yields a power
density, a multiple of the coordinate volume form.

A traction hyper-stress of order k is n jet covectors of order k-1, one per
extra contraction axis: covector j, paired with a (k-1)-jet, gives
coefficient j of the flux density, a codimension-one form.  A traction
stress field is likewise n variational stress fields of order k-1, and one
private base, ``_PerAxis``, builds, checks and splits both traction classes
into their per-axis parts.  Restricting the flux form to a hyperplane frame
gives the traction the stress induces on any boundary with that tangent
plane.  Restriction is linear in the form's coefficients, so the traction on
a frame is the sum of the n covectors weighted by the restrictions of the n
basis forms to the frame; that is the generalized boundary-traction formula
implemented by ``cauchy_traction``.

Boundary orientation for boxes: on the face where axis i is at its upper
bound the outward-oriented frame is the coordinate frame with axis i
omitted, taken with sign ``(-1)**(i-1)`` so that the restriction of the
basis form contracted along axis i equals +1; on the lower face the sign is
negated.  With this convention the flux of a field through the boundary
matches the integral of its divergence over the box.

Symmetric-leg components are stored in arrow convention, mirroring jet
covectors, so every pairing in this module is a plain sum of stored
component products.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import cache, partial
from operator import mul

from ._linalg import _common_numerators
from .altforms import CoDimOneForm, TopForm, Vector, contract, evaluate, restrict
from .multiindex import IndexLike, _Record, sym_dim
from .polyfield import Point, PolyField, Polynomial, Scalar
from .polyfield import Counts, _add_product, _antiderivatives, _derived, _from_numerators
from .polyfield import _midpoint_sums, _separable_terms, _split
from .jet import JetCovector, JetElement, _check_jet_blocks, _check_jet_shape, _covector_of_rows
from .jet import _slot_items, _slot_rows, pair_jet


class BoxRegion(_Record):
    """Axis-aligned box with a midpoint-quadrature resolution."""

    __slots__ = _fields = ("lower", "upper", "subdivisions")

    def __init__(
        self, lower: tuple[Fraction, ...], upper: tuple[Fraction, ...], subdivisions: int = 1
    ) -> None:
        lower = tuple(Fraction(v) for v in lower)
        upper = tuple(Fraction(v) for v in upper)
        if len(lower) != len(upper) or not lower:
            raise ValueError("bounds must be nonempty and of equal length")
        for lo, hi in zip(lower, upper):
            if not lo < hi:
                raise ValueError(f"degenerate box: {lo} >= {hi}")
        if subdivisions < 1:
            raise ValueError(f"subdivisions must be positive, got {subdivisions}")
        self._store(lower, upper, subdivisions)

    @property
    def n(self) -> int:
        return len(self.lower)

    def with_subdivisions(self, subdivisions: int) -> "BoxRegion":
        return BoxRegion(self.lower, self.upper, subdivisions)


class VariationalHyperStress(_Record):
    """Order-k stress measured against k-jets; a jet covector with a volume factor."""

    __slots__ = _fields = ("covector",)

    def __init__(self, covector: JetCovector) -> None:
        self._store(covector)

    @property
    def n(self) -> int:
        return self.covector.n

    @property
    def m(self) -> int:
        return self.covector.m

    @property
    def k(self) -> int:
        return self.covector.k

    @classmethod
    def from_map(
        cls, n: int, m: int, k: int, entries: dict[tuple[int, IndexLike], Scalar]
    ) -> "VariationalHyperStress":
        return cls(JetCovector.from_map(n, m, k, entries))

    def component(self, alpha: int, index: IndexLike) -> Fraction:
        return self.covector.component(alpha, index)


def _join_axes(axes: Sequence) -> tuple:
    """Blocks indexed ``[l][alpha-1][j-1]`` from the n per-axis parts ``axes[j-1]``."""
    return tuple(tuple(zip(*rows)) for rows in zip(*(ax.blocks for ax in axes)))


def _check_order(k: int) -> None:
    if k < 1:
        raise ValueError(f"order must be at least 1, got {k}")


class _PerAxis(_Record):
    """Order-k traction object stored as n order-(k-1) parts, one per contraction axis.

    ``blocks[l][alpha-1][j-1]`` is ``blocks[l][alpha-1]`` of part j, which
    is ``axes[j-1]``, an instance of the class attribute ``_part``.  The
    part's own constructor validates everything but the order and the axis
    count.  ``_of_axes`` keeps parts that are already built as they are.
    """

    __slots__ = ("n", "m", "k", "blocks", "axes")
    _fields = __slots__[:4]

    def __init__(self, n: int, m: int, k: int, blocks: tuple) -> None:
        _check_order(k)
        _check_jet_shape(n, m, k)
        blocks = tuple(tuple(tuple(row) for row in block) for block in blocks)
        for l, block in enumerate(blocks):
            for row in block:
                if len(row) != n:
                    raise ValueError(f"block {l} rows must have {n} axis slots")
        parts = (tuple(tuple(row[j] for row in block) for block in blocks) for j in range(n))
        axes = tuple(self._part(n, m, k - 1, part) for part in parts)
        object.__setattr__(self, "axes", axes)
        self._store(n, m, k, _join_axes(axes))

    @classmethod
    def from_map(
        cls, n: int, m: int, k: int, entries: Mapping[tuple[int, IndexLike, int], object]
    ) -> _PerAxis:
        """Build from values keyed by (alpha, symmetric index, axis j)."""
        _check_order(k)
        groups: list[dict] = [{} for _ in range(n)]
        for (alpha, index, j), value in entries.items():
            if not 1 <= j <= n:
                raise ValueError(f"axis {j} out of range 1..{n}")
            groups[j - 1][alpha, index] = value
        _check_jet_shape(n, m, k)
        return cls._of_axes(n, m, k, [cls._part.from_map(n, m, k - 1, g) for g in groups])

    @classmethod
    def _of_axes(cls, n: int, m: int, k: int, axes: Sequence) -> _PerAxis:
        """The object whose part j is ``axes[j-1]``, n checked parts of order k-1."""
        self = cls._trusted(n, m, k, _join_axes(axes))
        object.__setattr__(self, "axes", tuple(axes))
        return self


class TractionHyperStress(_PerAxis):
    """Order-k stress acting on (k-1)-jets with a codimension-one form as value.

    ``blocks[l][alpha-1][j-1]`` is the degree-l symmetric leg for value
    component alpha and contraction axis j.  Components are symmetric in the
    degree-l leg only; the contraction axis is a free slot, which is all the
    symmetry such a stress can have.  ``axes[j-1]`` is the same data as the
    jet covector of order k-1 that feeds coefficient j of the flux form.
    ``from_map`` takes arrow components.
    """

    __slots__ = ()
    _part = JetCovector

    @classmethod
    def zero(cls, n: int, m: int, k: int) -> "TractionHyperStress":
        return cls.from_map(n, m, k, {})

    @classmethod
    def from_dense(
        cls, n: int, m: int, k: int, entries: Mapping[tuple[int, tuple[int, ...], int], Scalar]
    ) -> "TractionHyperStress":
        """Build from dense components keyed by (alpha, ordered axes, axis j).

        The dense data is symmetrized over the ordered leg only; the
        contraction axis is untouched.  In arrow convention the symmetrized
        component of an index class is the plain sum of the dense values over
        the class.  Feeding back the dense components of the result
        reproduces it, so the construction is idempotent.
        """
        sums: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
        for (alpha, axes, j), value in entries.items():
            key = (alpha, tuple(sorted(int(a) for a in axes)), j)
            sums[key] = sums.get(key, Fraction(0)) + Fraction(value)
        return cls.from_map(n, m, k, sums)

    def component(self, alpha: int, index: IndexLike, j: int) -> Fraction:
        if not 1 <= j <= self.n:
            raise ValueError(f"axis {j} out of range 1..{self.n}")
        return self.axes[j - 1].component(alpha, index)


class HyperTraction(_Record):
    """Boundary traction induced on a fixed hyperplane frame.

    Shaped like a covector on (k-1)-jets; each coefficient multiplies the
    volume element of the frame it was computed against.
    """

    __slots__ = _fields = ("k", "covector")

    def __init__(self, k: int, covector: JetCovector) -> None:
        if covector.k != k - 1:
            raise ValueError("traction covector must act on jets of order k-1")
        self._store(k, covector)

    @property
    def n(self) -> int:
        return self.covector.n

    @property
    def m(self) -> int:
        return self.covector.m

    def apply(self, jet: JetElement) -> Fraction:
        """Power per unit frame area against a (k-1)-jet."""
        return pair_jet(self.covector, jet)


def power_density(stress: VariationalHyperStress, jet: JetElement) -> Fraction:
    """Coefficient of the volume form in the stress power on a k-jet."""
    return pair_jet(stress.covector, jet)


def traction_density(stress: TractionHyperStress, jet: JetElement) -> CoDimOneForm:
    """Flux density of a traction stress acting on a (k-1)-jet.

    Coefficient j of the resulting codimension-one form is the pairing of
    the jet with the stress's jet covector for contraction axis j.
    """
    return CoDimOneForm(stress.n, tuple(pair_jet(ax, jet) for ax in stress.axes))


def cauchy_traction(stress: TractionHyperStress, frame: Sequence[Vector]) -> HyperTraction:
    """Traction induced by a traction stress on a hyperplane frame.

    Restriction to the frame is linear in the form's coefficients, so with
    ``w_j`` the restriction of basis form j the traction is the jet covector
    ``sum_j w_j * axes[j-1]``.  Applying the result to a (k-1)-jet equals
    restricting the full flux density of that jet, so the boundary traction
    depends on the boundary only through its tangent frame.
    """
    n = stress.n
    volume = TopForm.volume(n)
    forms = [contract(Vector.basis(n, j), volume) for j in range(1, n + 1)]
    # The first restriction checks the frame; the other forms are evaluated on the same frame.
    weights = [restrict(forms[0], frame), *(evaluate(form, frame) for form in forms[1:])]
    # The weights over one denominator, and each slot's n components over their own: one
    # Fraction per slot.
    scaled, den = _common_numerators(weights)

    def slot(components: tuple[Fraction, ...]) -> Fraction:
        nums, slot_den = _common_numerators(components)
        return Fraction(sum(map(mul, scaled, nums)), den * slot_den)

    rows = [
        [[slot(s) for s in zip(*(t.components for t in row))] for row in block]
        for block in stress.blocks
    ]
    return HyperTraction(stress.k, _covector_of_rows(n, stress.m, stress.k - 1, rows))


# A density's int numerators by counts, and their denominator.
_Density = tuple[dict[Counts, int], int]
# A field's derivative by (component, counts) as int terms, memoized, and their denominator.
_Derivatives = tuple[Callable[[int, Counts], list[tuple[Counts, int]]], int]


def _derivatives(field: PolyField) -> _Derivatives:
    """The field's derivatives, all over the one common denominator of its coefficients."""
    terms, den = _split(field.components)
    return cache(lambda alpha, counts: _derived(terms[alpha - 1], counts)), den


class VariationalStressField(_Record):
    """Variational hyper-stress with polynomial dependence on position.

    ``blocks[l][alpha-1]`` is a tuple of coefficient polynomials over the
    compressed degree-l slots, in rank order and arrow convention.
    """

    __slots__ = _fields = ("n", "m", "k", "blocks")

    def __init__(
        self, n: int, m: int, k: int, blocks: tuple[tuple[tuple[Polynomial, ...], ...], ...]
    ) -> None:
        blocks = tuple(tuple(tuple(row) for row in block) for block in blocks)
        _check_jet_blocks(n, m, k, blocks)
        for l, block in enumerate(blocks):
            for row in block:
                if len(row) != sym_dim(n, l):
                    raise ValueError(f"block {l} rows must have {sym_dim(n, l)} slots")
                for poly in row:
                    if poly.n != n:
                        raise ValueError("coefficient polynomial dimension mismatch")
        self._store(n, m, k, blocks)

    @classmethod
    def constant(cls, stress: VariationalHyperStress) -> "VariationalStressField":
        blocks = tuple(
            tuple(
                tuple(Polynomial.constant(stress.n, c) for c in tensor.components)
                for tensor in block
            )
            for block in stress.covector.blocks
        )
        return cls(stress.n, stress.m, stress.k, blocks)

    @classmethod
    def from_map(
        cls, n: int, m: int, k: int, entries: Mapping[tuple[int, IndexLike], Polynomial]
    ) -> "VariationalStressField":
        return cls(n, m, k, _slot_rows(n, m, k, entries, Polynomial.zero(n)))

    def at(self, x: Point) -> VariationalHyperStress:
        rows = [[[poly(x) for poly in row] for row in block] for block in self.blocks]
        return VariationalHyperStress(_covector_of_rows(self.n, self.m, self.k, rows))

    def density(self, field: PolyField) -> Polynomial:
        """Power density against the jet of a polynomial field, as a polynomial."""
        return _from_numerators(self.n, *self._density(field, _derivatives(field)))

    def _density(self, field: PolyField, derivatives: _Derivatives) -> _Density:
        """``density`` as int numerators by counts over one denominator.

        ``derivatives`` is ``_derivatives(field)``.  Every slot product is
        added into one accumulator, without a polynomial per slot.
        """
        if (field.n, field.m) != (self.n, self.m):
            raise ValueError("shape mismatch")
        derivative, field_den = derivatives
        slots = list(_slot_items(self.n, self.blocks, Polynomial.zero(self.n)))
        terms, den = _split([poly for *_, poly in slots])
        acc: dict[Counts, int] = {}
        for (_, alpha, counts, _), slot_terms in zip(slots, terms):
            _add_product(acc, slot_terms, derivative(alpha, counts))
        return acc, den * field_den


class TractionStressField(_PerAxis):
    """Traction hyper-stress with polynomial dependence on position.

    ``blocks[l][alpha-1][j-1]`` holds the coefficient polynomials of the
    degree-l slots for value component alpha and contraction axis j;
    ``axes[j-1]`` is the same data as a variational stress field of order
    k-1.
    """

    __slots__ = ()
    _part = VariationalStressField

    @classmethod
    def constant(cls, stress: TractionHyperStress) -> "TractionStressField":
        axes = [VariationalStressField.constant(VariationalHyperStress(ax)) for ax in stress.axes]
        return cls._of_axes(stress.n, stress.m, stress.k, axes)

    def at(self, x: Point) -> TractionHyperStress:
        axes = [ax.at(x).covector for ax in self.axes]
        return TractionHyperStress._of_axes(self.n, self.m, self.k, axes)

    def density_coeffs(self, field: PolyField) -> list[Polynomial]:
        """Flux density coefficients against the (k-1)-jet of a field.

        The n axes share one table of the field's derivatives.
        """
        derivatives = _derivatives(field)
        return [_from_numerators(self.n, *ax._density(field, derivatives)) for ax in self.axes]


def _integrate(density: _Density, region: BoxRegion, method: str, face_axis: int = 0) -> Fraction:
    """Integral of a density over the region's box, in closed form or by its midpoint rule.

    A face axis gives the upper face normal to it minus the lower face.  Terms
    that cancelled are dropped, so the axis tables see only the exponents in use."""
    tables = {"exact": _antiderivatives, "midpoint": partial(_midpoint_sums, region.subdivisions)}
    if method not in tables:
        raise ValueError(f"unknown method {method!r}")
    acc, den = density
    terms = [(counts, num) for counts, num in acc.items() if num]
    return _separable_terms(
        region.n, terms, den, region.lower, region.upper, (), tables[method], face_axis
    )


def total_power(
    stress: VariationalStressField,
    field: PolyField,
    region: BoxRegion,
    method: str = "exact",
) -> Fraction:
    """Power of a stress field over a box against the k-jet of a field.

    The density is a polynomial, so the exact method integrates it in
    closed form.  The midpoint method samples the density at cell centers
    with the region's subdivisions per axis; it is provided as an
    independent cross-check and converges at second order.  Both methods
    return exact rationals.
    """
    if region.n != stress.n:
        raise ValueError("region dimension mismatch")
    return _integrate(stress._density(field, _derivatives(field)), region, method)


def boundary_power_flux(
    stress: TractionStressField,
    field: PolyField,
    region: BoxRegion,
    k: int | None = None,
    method: str = "exact",
) -> Fraction:
    """Flux of the traction power through the oriented boundary of a box.

    Sums, over the 2n faces, the integral of the restricted flux density
    with the outward orientation convention of this module: the face where
    axis i is at its upper bound contributes the i-th density coefficient
    positively, the lower face negatively.  The midpoint method applies the
    region's subdivisions on each face.  The two faces normal to axis i make
    one separable sum, whose factor on axis i is ``upper**e - lower**e``.
    """
    if region.n != stress.n:
        raise ValueError("region dimension mismatch")
    if k is not None and k != stress.k:
        raise ValueError(f"stress has order {stress.k}, got k={k}")
    derivatives = _derivatives(field)
    return sum(
        _integrate(ax._density(field, derivatives), region, method, axis)
        for axis, ax in enumerate(stress.axes, start=1)
    )


def box_face_frame(n: int, axis: int, is_upper: bool) -> tuple[list[Vector], int]:
    """Outward-oriented tangent frame data for a box face.

    Returns the coordinate frame with the given axis omitted together with
    the orientation sign making the restriction of the axis-contracted
    volume form equal +1 on the upper face and -1 on the lower one.
    """
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    frame = [Vector.basis(n, r) for r in range(1, n + 1) if r != axis]
    sign = (-1) ** (axis - 1)
    if not is_upper:
        sign = -sign
    return frame, sign
