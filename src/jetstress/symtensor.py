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
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Literal, Mapping

from .multiindex import (
    PERMUTATION_CAP,
    CardinalityIndex,
    IndexLike,
    MultiIndex,
    _Record,
    _check_axes,
    _check_shape,
    _dense_offset,
    as_cardinality,
    class_multiplicities,
    dense_classes,
    enumerate_nondecreasing,
    rank,
    sym_dim,
)

Variance = Literal["co", "contra"]
Convention = Literal["plain", "arrow"]

_VARIANCES = ("co", "contra")
_CONVENTIONS = ("plain", "arrow")


def _check_variance(variance: str) -> None:
    if variance not in _VARIANCES:
        raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be 'plain' or 'arrow', got {convention!r}")


def _check_cap(degree: int, cap: int) -> None:
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds permutation cap {cap}")


def ordered_indices(n: int, l: int) -> Iterable[MultiIndex]:
    """All ordered multi-indices of degree l, in dense storage order."""
    for entries in itertools.product(range(1, n + 1), repeat=l):
        yield MultiIndex(entries, n)


class DenseTensor(_Record):
    """Full component array of a degree-l tensor, no symmetry assumed."""

    __slots__ = _fields = ("n", "degree", "variance", "components")

    def __init__(
        self, n: int, degree: int, variance: Variance, components: tuple[Fraction, ...]
    ) -> None:
        _check_variance(variance)
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
        comps = [Fraction(0)] * n**degree
        for key, value in entries.items():
            axes = tuple(map(int, key))
            _check_axes(axes, n)
            if len(axes) != degree:
                raise ValueError(f"index {key} has degree {len(axes)}, expected {degree}")
            comps[_dense_offset(axes, n)] = Fraction(value)
        return cls(n, degree, variance, tuple(comps))

    @classmethod
    def from_function(
        cls,
        n: int,
        degree: int,
        variance: Variance,
        fn: Callable[[MultiIndex], Fraction],
    ) -> "DenseTensor":
        comps = tuple(Fraction(fn(index)) for index in ordered_indices(n, degree))
        return cls(n, degree, variance, comps)

    def component(self, index: MultiIndex | tuple[int, ...]) -> Fraction:
        if not isinstance(index, MultiIndex):
            index = MultiIndex(tuple(index), self.n)
        if index.n != self.n or index.degree != self.degree:
            raise ValueError("index shape does not match tensor")
        return self.components[_dense_offset(index.entries, self.n)]

    def is_symmetric(self, cap: int = PERMUTATION_CAP) -> bool:
        """Exact check that every index class is constant.

        Refuses degrees above the permutation cap like every operation that
        walks index classes.
        """
        _check_cap(self.degree, cap)
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
        _check_variance(variance)
        _check_convention(convention)
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
        comps = [Fraction(0)] * sym_dim(n, degree)
        for key, value in entries.items():
            card = as_cardinality(key, n)
            if card.degree != degree:
                raise ValueError(f"index {key} has degree {card.degree}, expected {degree}")
            comps[rank(card)] = Fraction(value)
        return cls(n, degree, variance, convention, tuple(comps))

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
    _check_convention(target)
    if tensor.convention == target:
        return tensor
    mults = class_multiplicities(tensor.n, tensor.degree)
    if target == "arrow":
        comps = tuple(c * m for c, m in zip(tensor.components, mults))
    else:
        comps = tuple(c / m for c, m in zip(tensor.components, mults))
    return SymTensor(tensor.n, tensor.degree, tensor.variance, target, comps)


def _class_sums(tensor: DenseTensor) -> SymTensor:
    """The sums of the dense components over each index class, as arrow components."""
    classes, firsts = dense_classes(tensor.n, tensor.degree)
    sums = [Fraction(0)] * len(firsts)
    for r, value in zip(classes, tensor.components):
        sums[r] += value
    return SymTensor(tensor.n, tensor.degree, tensor.variance, "arrow", tuple(sums))


def symmetrize_dense(tensor: DenseTensor, cap: int = PERMUTATION_CAP) -> DenseTensor:
    """Average of the tensor over all slot permutations.

    Computed per index class: the symmetrized value on a class is the class
    sum scaled by counts!/degree!, which equals the permutation average and
    is what the class-indicator form of the projector gives.  The class sums
    are arrow components, so this is the inclusion of their tensor.
    Idempotent.
    """
    _check_cap(tensor.degree, cap)
    return include(_class_sums(tensor))


def compress(tensor: DenseTensor, cap: int = PERMUTATION_CAP) -> SymTensor:
    """Read a symmetric dense tensor into compressed plain storage.

    Requires exact symmetry; asymmetric input is an error, not silently
    symmetrized.
    """
    if not tensor.is_symmetric(cap=cap):
        raise ValueError("tensor is not symmetric")
    _, firsts = dense_classes(tensor.n, tensor.degree)
    comps = tuple(tensor.components[offset] for offset in firsts)
    return SymTensor(tensor.n, tensor.degree, tensor.variance, "plain", comps)


def include(tensor: SymTensor) -> DenseTensor:
    """Embed a compressed symmetric tensor as a full dense array.

    The dense value at any ordered multi-index is the plain component of its
    index class, so compress(include(S)) recovers S exactly.
    """
    plain = convert_convention(tensor, "plain").components
    classes, _ = dense_classes(tensor.n, tensor.degree)
    return DenseTensor(tensor.n, tensor.degree, tensor.variance, tuple(plain[r] for r in classes))


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
    co_arrow = convert_convention(cotensor, "arrow").components
    contra_plain = convert_convention(tensor, "plain").components
    return sum((a * b for a, b in zip(co_arrow, contra_plain)), Fraction(0))


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
