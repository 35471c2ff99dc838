"""Multi-index combinatorics for symmetric tensor algebra.

Two index pictures are used throughout the package and this module owns the
dictionary between them:

* an ordered multi-index ``I = (i_1, ..., i_l)`` lists axis numbers, 1-based,
  one per tensor slot, repetitions allowed in any order;
* a cardinality index records, for each axis ``r`` of the space, how many
  times ``r`` occurs in ``I``.  Cardinality indices label the slots of a
  compressed symmetric tensor and the monomials of a polynomial.

Non-decreasing multi-indices are ranked in graded colexicographic order via
the combinatorial number system, which gives dense array addressing for
compressed symmetric storage: the slot count for degree ``l`` in dimension
``n`` is ``C(n + l - 1, l)``; ``dense_classes`` and ``class_multiplicities``
cache each dense offset's class rank and each class multiplicity as plain ints.
``_class_axes`` lists the index classes as their canonical axis lists, in rank
order.  ``_check_budget`` refuses a request past its row of ``_BUDGETS``.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

#: Largest slot count for which permutation-group enumeration is allowed.
#: Operations that sum over all l! permutations refuse larger degrees.
PERMUTATION_CAP = 8


class _Record:
    """Immutable record in slots, compared, hashed, shown and pickled by its ``_fields``.

    A subclass sets ``__slots__ = _fields = (...)``; its ``__init__`` checks
    the arguments and ends with ``_store``, which sets the fields and then
    calls ``__post_init__``, a no-op looked up on the class each time.
    ``_trusted`` is the one unchecked build, for values the library has just
    checked or computed itself; it runs neither ``__init__`` nor
    ``__post_init__``.  ``_multiindex`` is the same build for ``MultiIndex``
    alone, for the loops that make one per permutation or dense offset.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, *values: object) -> "_Record":
        """The record of these field values, in ``_fields`` order, built without checks."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        return self

    def _store(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


def _check_axes(entries: Sequence[int], n: int) -> None:
    for e in entries:
        if not 1 <= e <= n:
            raise ValueError(f"axis {e} out of range 1..{n}")


class MultiIndex(_Record):
    """Ordered multi-index: a tuple of 1-based axis numbers in dimension n."""

    __slots__ = _fields = ("entries", "n")

    def __init__(self, entries: tuple[int, ...], n: int) -> None:
        entries = tuple(int(e) for e in entries)
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        _check_axes(entries, n)
        self._store(entries, n)

    @property
    def degree(self) -> int:
        return len(self.entries)

    def sorted(self) -> "MultiIndex":
        """The non-decreasing rearrangement, i.e. the canonical class member."""
        return MultiIndex(tuple(sorted(self.entries)), self.n)

    def is_nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))

    def concat(self, other: "MultiIndex") -> "MultiIndex":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return MultiIndex(self.entries + other.entries, self.n)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


class CardinalityIndex(_Record):
    """Occurrence counts per axis; the unordered shadow of a multi-index.

    ``counts[r-1]`` says how many slots carry axis ``r``.  The length of
    ``counts`` is the space dimension.
    """

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        self._store(_checked_counts(counts))

    @classmethod
    def zero(cls, n: int) -> "CardinalityIndex":
        return cls((0,) * n)

    @classmethod
    def unit(cls, n: int, axis: int) -> "CardinalityIndex":
        if not 1 <= axis <= n:
            raise ValueError(f"axis {axis} out of range 1..{n}")
        return cls(tuple(int(r == axis) for r in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def degree(self) -> int:
        return sum(self.counts)

    def canonical(self) -> MultiIndex:
        """The non-decreasing multi-index with these counts."""
        return MultiIndex(_canonical_axes(self.counts), self.n)

    def __add__(self, other: "CardinalityIndex") -> "CardinalityIndex":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return CardinalityIndex(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "CardinalityIndex") -> "CardinalityIndex":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        if not other <= self:
            raise ValueError(f"{other.counts} is not dominated by {self.counts}")
        return CardinalityIndex(tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __le__(self, other: "CardinalityIndex") -> bool:
        """Componentwise domination; a partial order, not a total one."""
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return all(a <= b for a, b in zip(self.counts, other.counts))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.counts)


class Permutation(_Record):
    """A bijection of slot positions 1..l, stored as the image tuple.

    ``mapping[r-1]`` is the image of position ``r``.  Acting on a multi-index
    rearranges slots: the entry at position ``r`` of ``p(I)`` is ``I[p(r)]``.
    """

    __slots__ = _fields = ("mapping",)

    def __init__(self, mapping: tuple[int, ...]) -> None:
        mapping = tuple(int(v) for v in mapping)
        if sorted(mapping) != list(range(1, len(mapping) + 1)):
            raise ValueError(f"{mapping} is not a permutation of 1..{len(mapping)}")
        self._store(mapping)

    @classmethod
    def identity(cls, l: int) -> "Permutation":
        return cls(tuple(range(1, l + 1)))

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def __call__(self, position: int) -> int:
        if not 1 <= position <= self.degree:
            raise ValueError(f"position {position} out of range 1..{self.degree}")
        return self.mapping[position - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition self after other: ``(self.compose(other))(r) = self(other(r))``."""
        if other.degree != self.degree:
            raise ValueError("length mismatch")
        return Permutation(tuple(self.mapping[v - 1] for v in other.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for r, v in enumerate(self.mapping, start=1):
            inv[v - 1] = r
        return Permutation(tuple(inv))


IndexLike = MultiIndex | CardinalityIndex | Sequence[int]

_set_entries, _set_n = MultiIndex.entries.__set__, MultiIndex.n.__set__


def _multiindex(entries: tuple[int, ...], n: int) -> MultiIndex:
    """``MultiIndex._trusted(entries, n)`` through the two slot descriptors, for hot loops."""
    index = object.__new__(MultiIndex)
    _set_entries(index, entries)
    _set_n(index, n)
    return index


def _checked_counts(counts: Sequence[int]) -> tuple[int, ...]:
    """``counts`` as a tuple of ints, checked to cover at least one axis with no negative count."""
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise ValueError("cardinality index needs at least one axis")
    for c in counts:
        if c < 0:
            raise ValueError(f"negative count {c}")
    return counts


def _canonical_axes(counts: Sequence[int]) -> tuple[int, ...]:
    """The non-decreasing axis list with these counts."""
    return tuple(axis for axis, count in enumerate(counts, start=1) for _ in range(count))


def cardinality(index: MultiIndex) -> CardinalityIndex:
    """Occurrence counts of the axes of an ordered multi-index."""
    return CardinalityIndex(tuple(map(index.entries.count, range(1, index.n + 1))))


def mi_factorial(card: CardinalityIndex) -> int:
    """Product of the factorials of the counts."""
    result = 1
    for c in card.counts:
        result *= math.factorial(c)
    return result


def multiplicity(card: CardinalityIndex) -> int:
    """Number of ordered multi-indices with these counts: degree! over counts!, by binomials."""
    return math.prod(map(math.comb, itertools.accumulate(card.counts), card.counts))


def apply_permutation(p: Permutation, index: MultiIndex) -> MultiIndex:
    """Slot rearrangement: entry ``r`` of the result is ``index[p(r)]``.

    Acting twice composes contravariantly: applying ``p1`` then ``p2``
    equals applying ``p1.compose(p2)`` once.
    """
    entries = index.entries
    if len(p.mapping) != len(entries):
        raise ValueError("length mismatch")
    return _multiindex(tuple([entries[v - 1] for v in p.mapping]), index.n)


def kron_delta(left: MultiIndex, right: MultiIndex) -> int:
    """1 if the two ordered multi-indices agree slot by slot, else 0."""
    if len(left.entries) != len(right.entries):
        raise ValueError("length mismatch")
    return int(left.entries == right.entries)


def epsilon_abs(left: MultiIndex, right: MultiIndex) -> int:
    """1 if ``right`` is a rearrangement of ``left``, else 0.

    Indices of different lengths never match.  This is the unsigned
    permutation indicator that drives symmetrization and inclusion.
    """
    if left.degree != right.degree:
        return 0
    return int(sorted(left.entries) == sorted(right.entries))


def permutations_of(l: int) -> Iterator[Permutation]:
    """All l! slot permutations, lazily; degrees above the cap are refused at the call."""
    if l < 0:
        raise ValueError(f"negative degree {l}")
    if l > PERMUTATION_CAP:
        raise ValueError(f"degree {l} exceeds permutation cap {PERMUTATION_CAP}")
    return map(Permutation._trusted, itertools.permutations(range(1, l + 1)))


def _check_shape(n: int, l: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if l < 0:
        raise ValueError(f"negative degree {l}")


def sym_dim(n: int, l: int) -> int:
    """Number of degree-l compressed slots in dimension n: C(n + l - 1, l)."""
    _check_shape(n, l)
    return math.comb(n + l - 1, l)


# Every request budget, keyed by the unit its error line names; nothing overrides a budget.
_BUDGETS = {
    # Basis pairs `verify duality` checks; each builds two tensors and pairs them.
    "basis pairs": 20_000,
    # Permutation applications `verify epsilon` makes: l! per case.
    "permutation applications": 1_000_000,
    # Index classes `dims` lists over all its degrees.
    "index classes": 10_000,
    # Cells per axis `--subdiv` cuts a box into.
    "cells per axis": 100_000,
    # Midpoint powers per axis, cells * (degree + 1); the bench's rules raise at most 1,200.
    # It ignores the midpoints' digits: a 200th power takes 1 us at 2 digits, 3-5 ms at 1,000 bits.
    "midpoint powers": 1_000_000,
    # Midpoint powers per axis times the bit length of the longest midpoint numerator or of their
    # denominator; at 1e-300:1 and degree 200, 1,000 cells ran 2.4-2.6 s. The bench's reach 6,480.
    "midpoint bits": 50_000_000,
    # Jet slots of a jet or stress file's header, `jet`, and `verify jets` or `cauchy`.
    "jet slots": 10_000,
    # Stored components a tensor file's header declares, and `verify epsilon`'s dense draws.
    "components": 100_000,
    # Total degree of a monomial in a field or stress file: the jet's Taylor shift and the
    # density products grow with it, and the bench fields reach degree 12.
    "in total degree": 100,
    # Bits of a `jet` field's monomial at --point, counts times coordinate bits; the Taylor shift's
    # cost grows about as their square, and x1^3 at 1e1500 (14,949) must still hit the print limit.
    "monomial bits": 20_000,
    # Exponent magnitude of a rational literal like "2.5e-3", as Fraction builds 10**exponent;
    # Python's int limit on the length of a digit string sets the scale.
    "in exponent": 4_300,
}


def _check_budget(sizes: Iterable[int], unit: str, request: str) -> None:
    """Refuse ``request`` once the running sum of ``sizes`` passes the budget of ``unit``.

    The sum stops at the first total past the budget, so ``sizes`` may be lazy and long.
    """
    budget = _BUDGETS[unit]
    if any(total > budget for total in itertools.accumulate(sizes)):
        raise ValueError(f"{request} exceeds its budget of {budget} {unit}")


def _slot_sizes(n: int, width: int, k: int) -> Iterator[int]:
    """``width * C(n + l - 1, l)`` for l = 0..k: the slots of ``width`` rows of each order."""
    return (width * math.comb(n + l - 1, l) for l in range(k + 1))


def _colex_key(counts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded colex order of the canonical axis lists: degree, then counts from the last axis."""
    return (sum(counts), counts[::-1])


def _class_axes(n: int, l: int) -> list[tuple[int, ...]]:
    """The canonical axis list of every degree-l index class in dimension n, in rank order.

    Colex order compares the last axes first.  The non-decreasing lists of l
    axes drawn from ``n, n - 1, ..., 1`` come in the lexicographic order of
    those draws; read backwards, and each list backwards, that is colex
    order.  The cost is l times the class count, made in C.
    """
    _check_shape(n, l)
    draws = list(itertools.combinations_with_replacement(range(n, 0, -1), l))
    return [axes[::-1] for axes in reversed(draws)]


def _axes_counts(axes: Iterable[int], n: int) -> tuple[int, ...]:
    """The n counts of an axis list."""
    counts = [0] * n
    for axis in axes:
        counts[axis - 1] += 1
    return tuple(counts)


def enumerate_nondecreasing(n: int, l: int) -> list[CardinalityIndex]:
    """All degree-l cardinality indices in dimension n, in graded colex order
    of their canonical non-decreasing multi-indices."""
    return [CardinalityIndex._trusted(_axes_counts(axes, n)) for axes in _class_axes(n, l)]


def rank(card: CardinalityIndex) -> int:
    """Colex rank of the canonical non-decreasing multi-index.

    With entries ``i_1 <= ... <= i_l`` the rank is the combinatorial number
    system value ``sum_j C(i_j + j - 2, j)``.
    """
    return _axes_rank(_canonical_axes(card.counts))


def _axes_rank(axes: Sequence[int]) -> int:
    """:func:`rank` of the class whose canonical axis list is ``axes``, non-decreasing."""
    return sum(math.comb(i + j - 2, j) for j, i in enumerate(axes, 1))


def unrank(n: int, l: int, r: int) -> CardinalityIndex:
    """Inverse of :func:`rank` at fixed dimension and degree."""
    total = sym_dim(n, l)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range 0..{total - 1}")
    remaining = r
    counts = [0] * n
    for j in range(l, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= remaining:
            c += 1
        remaining -= math.comb(c, j)
        counts[c - j + 1] += 1
    return CardinalityIndex(tuple(counts))


def _dense_offset(entries: Sequence[int], n: int) -> int:
    """Row-major offset of an ordered multi-index, axis 1 slowest."""
    offset = 0
    for e in entries:
        offset = offset * n + (e - 1)
    return offset


# A benchmark op reads at most one (n, l) shape per table; four bound what
# stays alive, as a dense table is as long as its tensors (13 MB at n=6, l=8).
@lru_cache(maxsize=4)
def dense_classes(n: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The index class of every dense offset of a degree-l tensor in dimension n.

    Returns ``(classes, firsts)``: ``classes[offset]`` is the rank of the
    class of the ordered multi-index stored at that row-major offset, and
    ``firsts[r]`` is the first offset of class ``r``.  That first offset
    holds the class's non-decreasing member, because the non-decreasing
    arrangement is the lexicographically smallest.
    """
    # A class and an offset are keyed by the sum of their axes' digit weights, which reads the
    # counts as the digits of a base-(l + 1) integer; an offset's key is built one slot at a time.
    classes = _class_axes(n, l)
    weights = [(l + 1) ** r for r in range(n)]
    ranks = {sum([weights[a - 1] for a in axes]): r for r, axes in enumerate(classes)}
    keys = [0]
    for _ in range(l - 1):
        keys = [key + w for key in keys for w in weights]
    if l:
        keys = (key + w for key in keys for w in weights)
    firsts = tuple(_dense_offset(axes, n) for axes in classes)
    return tuple(map(ranks.__getitem__, keys)), firsts


@lru_cache(maxsize=4)
def class_multiplicities(n: int, l: int) -> tuple[int, ...]:
    """The multiplicity l!/counts! of every degree-l index class in dimension n, by rank.

    The counts that are not zero are the lengths of the runs of equal axes in the class's list.
    """
    counts = ([len(list(run)) for _, run in itertools.groupby(axes)] for axes in _class_axes(n, l))
    return tuple(math.prod(map(math.comb, itertools.accumulate(c), c)) for c in counts)


def as_cardinality(index: IndexLike, n: int) -> CardinalityIndex:
    """Normalize a slot label to a cardinality index in dimension n.

    Accepts a CardinalityIndex, a MultiIndex, or a raw sequence of 1-based
    axis numbers.
    """
    if isinstance(index, CardinalityIndex):
        if index.n != n:
            raise ValueError("dimension mismatch")
        return index
    if isinstance(index, MultiIndex):
        if index.n != n:
            raise ValueError("dimension mismatch")
        return cardinality(index)
    return cardinality(MultiIndex(tuple(index), n))
