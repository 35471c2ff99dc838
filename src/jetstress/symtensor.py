"""Dense and compressed symmetric tensors over exact rationals.

Storage
-------
A ``DenseTensor`` of degree ``l`` in dimension ``n`` keeps all ``n**l``
components in row-major order with axis 1 slowest: the ordered multi-index
``(i_1, ..., i_l)`` sits at offset ``sum_j (i_j - 1) * n**(l - j)``.

A ``SymTensor`` keeps one component per non-decreasing multi-index, addressed
by colex rank, which needs only ``C(n + l - 1, l)`` slots.

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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Literal, Mapping

from .multiindex import (
    PERMUTATION_CAP,
    CardinalityIndex,
    IndexLike,
    MultiIndex,
    as_cardinality,
    cardinality,
    enumerate_nondecreasing,
    epsilon_abs,
    mi_factorial,
    multiplicity,
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


def _check_shape(n: int, degree: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if degree < 0:
        raise ValueError(f"negative degree {degree}")


def _dense_offset(entries: tuple[int, ...], n: int) -> int:
    offset = 0
    for e in entries:
        offset = offset * n + (e - 1)
    return offset


def ordered_indices(n: int, l: int) -> Iterable[MultiIndex]:
    """All ordered multi-indices of degree l, in dense storage order."""
    for entries in itertools.product(range(1, n + 1), repeat=l):
        yield MultiIndex(entries, n)


@dataclass(frozen=True)
class DenseTensor:
    """Full component array of a degree-l tensor, no symmetry assumed."""

    n: int
    degree: int
    variance: Variance
    components: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_variance(self.variance)
        _check_shape(self.n, self.degree)
        expected = self.n**self.degree
        comps = tuple(Fraction(c) for c in self.components)
        if len(comps) != expected:
            raise ValueError(f"expected {expected} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

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
            index = MultiIndex(tuple(key), n)
            if index.degree != degree:
                raise ValueError(f"index {key} has degree {index.degree}, expected {degree}")
            comps[_dense_offset(index.entries, n)] = Fraction(value)
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
        if self.degree > cap:
            raise ValueError(f"degree {self.degree} exceeds permutation cap {cap}")
        seen: dict[tuple[int, ...], Fraction] = {}
        for index in ordered_indices(self.n, self.degree):
            key = tuple(sorted(index.entries))
            value = self.component(index)
            if key in seen:
                if seen[key] != value:
                    return False
            else:
                seen[key] = value
        return True


@dataclass(frozen=True)
class SymTensor:
    """Compressed symmetric tensor: one stored value per index class."""

    n: int
    degree: int
    variance: Variance
    convention: Convention
    components: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_variance(self.variance)
        _check_convention(self.convention)
        _check_shape(self.n, self.degree)
        expected = sym_dim(self.n, self.degree)
        comps = tuple(Fraction(c) for c in self.components)
        if len(comps) != expected:
            raise ValueError(f"expected {expected} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

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
    cards = enumerate_nondecreasing(tensor.n, tensor.degree)
    if target == "arrow":
        comps = tuple(c * multiplicity(card) for c, card in zip(tensor.components, cards))
    else:
        comps = tuple(c / multiplicity(card) for c, card in zip(tensor.components, cards))
    return SymTensor(tensor.n, tensor.degree, tensor.variance, target, comps)


def _plain_components(tensor: SymTensor) -> tuple[Fraction, ...]:
    return convert_convention(tensor, "plain").components


def _arrow_components(tensor: SymTensor) -> tuple[Fraction, ...]:
    return convert_convention(tensor, "arrow").components


def symmetrize_dense(tensor: DenseTensor, cap: int = PERMUTATION_CAP) -> DenseTensor:
    """Average of the tensor over all slot permutations.

    Computed per index class: the symmetrized value on a class is the class
    sum scaled by counts!/degree!, which equals the permutation average and
    is what the class-indicator form of the projector gives.  Idempotent.
    """
    if tensor.degree > cap:
        raise ValueError(f"degree {tensor.degree} exceeds permutation cap {cap}")
    l = tensor.degree
    class_sums: dict[tuple[int, ...], Fraction] = {}
    for index in ordered_indices(tensor.n, l):
        key = tuple(sorted(index.entries))
        class_sums[key] = class_sums.get(key, Fraction(0)) + tensor.component(index)
    fact_l = math.factorial(l)
    class_values = {
        key: total * mi_factorial(cardinality(MultiIndex(key, tensor.n))) / fact_l
        for key, total in class_sums.items()
    }
    comps = tuple(
        class_values[tuple(sorted(index.entries))] for index in ordered_indices(tensor.n, l)
    )
    return DenseTensor(tensor.n, l, tensor.variance, comps)


def compress(tensor: DenseTensor, cap: int = PERMUTATION_CAP) -> SymTensor:
    """Read a symmetric dense tensor into compressed plain storage.

    Requires exact symmetry; asymmetric input is an error, not silently
    symmetrized.
    """
    if not tensor.is_symmetric(cap=cap):
        raise ValueError("tensor is not symmetric")
    cards = enumerate_nondecreasing(tensor.n, tensor.degree)
    comps = tuple(tensor.component(card.canonical()) for card in cards)
    return SymTensor(tensor.n, tensor.degree, tensor.variance, "plain", comps)


def include(tensor: SymTensor) -> DenseTensor:
    """Embed a compressed symmetric tensor as a full dense array.

    The dense value at any ordered multi-index is the plain component of its
    index class, so compress(include(S)) recovers S exactly.
    """
    plain = _plain_components(tensor)
    lookup = {rank(card): value for card, value in zip(tensor.slots(), plain)}
    comps = tuple(
        lookup[rank(cardinality(index.sorted()))]
        for index in ordered_indices(tensor.n, tensor.degree)
    )
    return DenseTensor(tensor.n, tensor.degree, tensor.variance, comps)


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
    cards = enumerate_nondecreasing(cotensor.n, cotensor.degree)
    co_plain = _plain_components(cotensor)
    contra_plain = _plain_components(tensor)
    return sum(
        (multiplicity(card) * a * b for card, a, b in zip(cards, co_plain, contra_plain)),
        Fraction(0),
    )


def cosymmetrize_project(cotensor: DenseTensor) -> SymTensor:
    """Restrict a covariant dense tensor to symmetric arguments.

    The component on an index class is the plain sum of the dense values over
    the class, no averaging.  The result is stored in arrow convention, where
    that sum is the natural coefficient: pairing the result with a symmetric
    T equals pairing the original cotensor with the dense embedding of T.
    """
    if cotensor.variance != "co":
        raise ValueError("argument must be covariant")
    sums: dict[int, Fraction] = {}
    for index in ordered_indices(cotensor.n, cotensor.degree):
        r = rank(cardinality(index.sorted()))
        sums[r] = sums.get(r, Fraction(0)) + cotensor.component(index)
    size = sym_dim(cotensor.n, cotensor.degree)
    comps = tuple(sums.get(r, Fraction(0)) for r in range(size))
    return SymTensor(cotensor.n, cotensor.degree, "co", "arrow", comps)


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
    fact_l = math.factorial(l)
    cards = enumerate_nondecreasing(n, l)
    dense = list(ordered_indices(n, l))
    return [
        [
            Fraction(mi_factorial(card), fact_l) * epsilon_abs(card.canonical(), index)
            for index in dense
        ]
        for card in cards
    ]


def inclusion_matrix(n: int, l: int) -> list[list[Fraction]]:
    """Matrix of the dense embedding of compressed symmetric storage.

    Rows are dense offsets, columns compressed slots in rank order, acting on
    plain components; the entry is the class indicator.  Composing the
    symmetrization matrix after this one gives the identity on compressed
    storage.
    """
    cards = enumerate_nondecreasing(n, l)
    return [
        [Fraction(epsilon_abs(index, card.canonical())) for card in cards]
        for index in ordered_indices(n, l)
    ]
