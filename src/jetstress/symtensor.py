"""Dense and compressed symmetric tensors over exact rationals.

Storage
-------
A ``DenseTensor`` of degree ``l`` in dimension ``n`` keeps all ``n**l``
components in row-major order with axis 1 slowest: the ordered multi-index
``(i_1, ..., i_l)`` sits at offset ``sum_j (i_j - 1) * n**(l - j)``.

A ``SymTensor`` keeps one component per non-decreasing multi-index, addressed
by colex rank, which needs only ``C(n + l - 1, l)`` slots.  Class membership
and multiplicities come from the one cached table in ``multiindex``, so every
class walk here is one pass over plain ints.

Component conventions
---------------------
A symmetric tensor has two natural coordinate systems and the ``convention``
flag says which one the stored numbers use:

* ``"plain"``: the value the full dense array takes at the canonical
  non-decreasing position.  Equivalently, the coefficient against the
  multiplicity-scaled symmetric basis.
* ``"arrow"``: the plain value times the multiplicity ``l!/(counts!)`` of the
  index class.  Equivalently, the coefficient against the plain symmetrized
  tensor products of basis vectors.

Converting between the two is an exact componentwise scaling and never loses
information.  The invariant pairing of a covariant with a contravariant
symmetric tensor multiplies a plain component with an arrow component slot by
slot, whichever way the inputs are stored; ``pair`` normalizes internally.

Kernels
-------
The class sums of a dense tensor and the pairing split the components once
into int numerators over a common denominator, one per class or one per
tensor, with ``_linalg._common_numerators``, the split every fraction-free
kernel uses, add plain ints, and build one ``Fraction`` per result; a class
average, a plain component of the symmetrized tensor, is its sum over the
denominator times the multiplicity.  Results computed from checked records are built by
``_Record._trusted``, without the constructor's checks.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from ._linalg import _common_numerators
from .multiindex import (
    CardinalityIndex,
    IndexLike,
    MultiIndex,
    _Record,
    _check_axes,
    _check_shape,
    _dense_offset,
    _multiindex,
    as_cardinality,
    class_multiplicities,
    dense_classes,
    enumerate_nondecreasing,
    rank,
    sym_dim,
)

Variance = str  # "co" or "contra"
Convention = str  # "plain" or "arrow"

_VARIANCES = ("co", "contra")
_CONVENTIONS = ("plain", "arrow")
_ZERO = Fraction(0)


def _check_choice(name: str, value: str, choices: tuple[str, str]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be {choices[0]!r} or {choices[1]!r}, got {value!r}")


def ordered_indices(n: int, l: int) -> Iterable[MultiIndex]:
    """All ordered multi-indices of degree l, in dense storage order."""
    # Below n = 1 the one index yielded, the empty one at l = 0, is left to be refused.
    build = _multiindex if n >= 1 else MultiIndex
    for entries in itertools.product(range(1, n + 1), repeat=l):
        yield build(entries, n)


class DenseTensor(_Record):
    """Full component array of a degree-l tensor, no symmetry assumed."""

    __slots__ = _fields = ("n", "degree", "variance", "components")

    def __init__(
        self, n: int, degree: int, variance: Variance, components: tuple[Fraction, ...]
    ) -> None:
        _check_choice("variance", variance, _VARIANCES)
        _check_shape(n, degree)
        expected = n**degree
        comps = tuple(Fraction(c) for c in components)
        if len(comps) != expected:
            raise ValueError(f"expected {expected} components, got {len(comps)}")
        self._store(n, degree, variance, comps)

    @classmethod
    def zeros(cls, n: int, degree: int, variance: Variance) -> "DenseTensor":
        return cls(n, degree, variance, (Fraction(0),) * n**degree)

    @classmethod
    def from_map(
        cls,
        n: int,
        degree: int,
        variance: Variance,
        entries: Mapping[tuple[int, ...], Fraction | int | str],
    ) -> "DenseTensor":
        _check_shape(n, degree)
        comps = [_ZERO] * n**degree
        for key, value in entries.items():
            axes = tuple(map(int, key))
            _check_axes(axes, n)
            if len(axes) != degree:
                raise ValueError(f"index {key} has degree {len(axes)}, expected {degree}")
            comps[_dense_offset(axes, n)] = Fraction(value)
        _check_choice("variance", variance, _VARIANCES)
        return cls._trusted(n, degree, variance, tuple(comps))

    @classmethod
    def from_function(
        cls,
        n: int,
        degree: int,
        variance: Variance,
        fn: Callable[[MultiIndex], Fraction],
    ) -> "DenseTensor":
        comps = tuple(Fraction(fn(index)) for index in ordered_indices(n, degree))
        _check_choice("variance", variance, _VARIANCES)
        _check_shape(n, degree)
        return cls._trusted(n, degree, variance, comps)

    def component(self, index: MultiIndex | tuple[int, ...]) -> Fraction:
        if not isinstance(index, MultiIndex):
            index = MultiIndex(tuple(index), self.n)
        if index.n != self.n or index.degree != self.degree:
            raise ValueError("index shape does not match tensor")
        return self.components[_dense_offset(index.entries, self.n)]

    def is_symmetric(self) -> bool:
        """Exact check that every index class is constant."""
        classes, firsts = dense_classes(self.n, self.degree)
        return all(v == self.components[firsts[r]] for r, v in zip(classes, self.components))


class SymTensor(_Record):
    """Compressed symmetric tensor: one stored value per index class."""

    __slots__ = _fields = ("n", "degree", "variance", "convention", "components")

    def __init__(
        self,
        n: int,
        degree: int,
        variance: Variance,
        convention: Convention,
        components: tuple[Fraction, ...],
    ) -> None:
        _check_choice("variance", variance, _VARIANCES)
        _check_choice("convention", convention, _CONVENTIONS)
        _check_shape(n, degree)
        expected = sym_dim(n, degree)
        comps = tuple(Fraction(c) for c in components)
        if len(comps) != expected:
            raise ValueError(f"expected {expected} components, got {len(comps)}")
        self._store(n, degree, variance, convention, comps)

    @classmethod
    def zeros(
        cls, n: int, degree: int, variance: Variance, convention: Convention = "plain"
    ) -> "SymTensor":
        return cls(n, degree, variance, convention, (Fraction(0),) * sym_dim(n, degree))

    @classmethod
    def from_map(
        cls,
        n: int,
        degree: int,
        variance: Variance,
        convention: Convention,
        entries: Mapping[IndexLike, Fraction | int | str],
    ) -> "SymTensor":
        comps = [_ZERO] * sym_dim(n, degree)
        for key, value in entries.items():
            card = as_cardinality(key, n)
            if card.degree != degree:
                raise ValueError(f"index {key} has degree {card.degree}, expected {degree}")
            comps[rank(card)] = Fraction(value)
        _check_choice("variance", variance, _VARIANCES)
        _check_choice("convention", convention, _CONVENTIONS)
        return cls._trusted(n, degree, variance, convention, tuple(comps))

    def component(self, index: IndexLike) -> Fraction:
        """Stored value at an index class, in this tensor's convention."""
        card = as_cardinality(index, self.n)
        if card.degree != self.degree:
            raise ValueError("index shape does not match tensor")
        return self.components[rank(card)]

    def with_convention(self, convention: Convention) -> "SymTensor":
        return convert_convention(self, convention)

    def slots(self) -> list[CardinalityIndex]:
        return enumerate_nondecreasing(self.n, self.degree)


def convert_convention(tensor: SymTensor, target: Convention) -> SymTensor:
    """Exact rescaling between plain and arrow component conventions.

    Arrow components are plain components times the class multiplicity, so
    either direction is a bijection and a round trip is the identity.
    """
    _check_choice("convention", target, _CONVENTIONS)
    if tensor.convention == target:
        return tensor
    mults = class_multiplicities(tensor.n, tensor.degree)
    if target == "arrow":
        comps = tuple(c * m for c, m in zip(tensor.components, mults))
    else:
        comps = tuple(c / m for c, m in zip(tensor.components, mults))
    return SymTensor._trusted(tensor.n, tensor.degree, tensor.variance, target, comps)


def _class_sums(tensor: DenseTensor, convention: Convention = "arrow") -> SymTensor:
    """The sums of the dense components over each index class, as arrow components.

    In plain convention the same sums are divided by the class
    multiplicities, which gives the class averages.
    """
    classes, firsts = dense_classes(tensor.n, tensor.degree)
    # One denominator per class: a shared one would carry every class's denominators.
    members: list[list[Fraction]] = [[] for _ in firsts]
    for r, value in zip(classes, tensor.components):
        members[r].append(value)
    mults = itertools.repeat(1)
    if convention == "plain":
        mults = class_multiplicities(tensor.n, tensor.degree)
    comps = []
    for values, m in zip(members, mults):
        nums, den = _common_numerators(values)
        comps.append(Fraction(sum(nums), den * m))
    return SymTensor._trusted(tensor.n, tensor.degree, tensor.variance, convention, tuple(comps))


def symmetrize_dense(tensor: DenseTensor) -> DenseTensor:
    """Average of the tensor over all slot permutations.

    Computed per index class: the symmetrized value on a class is the class
    sum scaled by counts!/degree!, which equals the permutation average and
    is what the class-indicator form of the projector gives.  Those averages
    are the plain components of the symmetrized tensor, so this is their
    inclusion.  Idempotent.
    """
    return include(_class_sums(tensor, "plain"))


def compress(tensor: DenseTensor) -> SymTensor:
    """Read a symmetric dense tensor into compressed plain storage.

    Requires exact symmetry; asymmetric input is an error, not silently
    symmetrized.
    """
    if not tensor.is_symmetric():
        raise ValueError("tensor is not symmetric")
    _, firsts = dense_classes(tensor.n, tensor.degree)
    comps = tuple(tensor.components[offset] for offset in firsts)
    return SymTensor._trusted(tensor.n, tensor.degree, tensor.variance, "plain", comps)


def include(tensor: SymTensor) -> DenseTensor:
    """Embed a compressed symmetric tensor as a full dense array.

    The dense value at any ordered multi-index is the plain component of its
    index class, so compress(include(S)) recovers S exactly.
    """
    plain = convert_convention(tensor, "plain").components
    classes, _ = dense_classes(tensor.n, tensor.degree)
    comps = tuple([plain[r] for r in classes])
    return DenseTensor._trusted(tensor.n, tensor.degree, tensor.variance, comps)


def pair(cotensor: SymTensor, tensor: SymTensor) -> Fraction:
    """Invariant pairing of a covariant with a contravariant symmetric tensor.

    Equals the full dense contraction of the two underlying arrays.  Slot by
    slot it multiplies the covariant arrow component with the contravariant
    plain component; stored conventions are normalized internally so any
    combination of conventions gives the same value.
    """
    if cotensor.variance != "co":
        raise ValueError("first argument must be covariant")
    if tensor.variance != "contra":
        raise ValueError("second argument must be contravariant")
    if cotensor.n != tensor.n or cotensor.degree != tensor.degree:
        raise ValueError("shape mismatch")
    co, co_den = _common_numerators(cotensor.components)
    contra, contra_den = _common_numerators(tensor.components)
    # Arrow is plain times the multiplicity m, so a slot's product of stored values is
    # weighted by m when both are plain, by 1/m (over the lcm of all m) when both are arrow.
    # Mixed conventions, as in a jet pairing, weigh 1 and leave the multiplicity cache alone.
    weights, scale = itertools.repeat(1), 1
    if cotensor.convention == tensor.convention:
        weights = mults = class_multiplicities(tensor.n, tensor.degree)
        if tensor.convention == "arrow":
            scale = math.lcm(*mults)
            weights = [scale // m for m in mults]
    total = sum([a * b * w for a, b, w in zip(co, contra, weights)])
    return Fraction(total, co_den * contra_den * scale)


def cosymmetrize_project(cotensor: DenseTensor) -> SymTensor:
    """Restrict a covariant dense tensor to symmetric arguments.

    The component on an index class is the plain sum of the dense values over
    the class, no averaging.  The result is stored in arrow convention, where
    that sum is the natural coefficient: pairing the result with a symmetric
    T equals pairing the original cotensor with the dense embedding of T.
    """
    if cotensor.variance != "co":
        raise ValueError("argument must be covariant")
    return _class_sums(cotensor)


def cosymmetrize_extend(cotensor: SymTensor) -> DenseTensor:
    """Spread a symmetric cotensor to a dense array by pulling back along
    symmetrization.

    The dense value at an ordered multi-index is the plain component of its
    class, i.e. the arrow component divided by the class multiplicity.
    Pairing the result with any dense T equals pairing the cotensor with the
    symmetrization of T.
    """
    if cotensor.variance != "co":
        raise ValueError("argument must be covariant")
    return include(cotensor)


def symmetrization_matrix(n: int, l: int) -> list[list[Fraction]]:
    """Matrix of the symmetrizing projector from dense to compressed storage.

    Rows are compressed slots in rank order, columns dense offsets; the
    compressed side is coordinatized by plain components, i.e. against the
    multiplicity-scaled symmetric basis.  Row for class counts has the value
    counts!/l! at every dense position whose class matches, zero elsewhere.
    """
    classes, _ = dense_classes(n, l)
    weights = [Fraction(1, m) for m in class_multiplicities(n, l)]
    rows = [[Fraction(0)] * len(classes) for _ in weights]
    for offset, r in enumerate(classes):
        rows[r][offset] = weights[r]
    return rows


def inclusion_matrix(n: int, l: int) -> list[list[Fraction]]:
    """Matrix of the dense embedding of compressed symmetric storage.

    Rows are dense offsets, columns compressed slots in rank order, acting on
    plain components; the entry is the class indicator.  Composing the
    symmetrization matrix after this one gives the identity on compressed
    storage.
    """
    classes, firsts = dense_classes(n, l)
    rows = [[Fraction(0)] * len(firsts) for _ in classes]
    for row, r in zip(rows, classes):
        row[r] = Fraction(1)
    return rows
