"""Top-degree and codimension-one alternating forms on an oriented space.

With a fixed volume element, the coordinate determinant form, a vector ``v``
determines the codimension-one form obtained by plugging ``v`` into the first
slot.  That contraction identifies vectors (times top forms) with
codimension-one forms; the basis form number ``i`` is the contraction of the
``i``-th coordinate vector with the volume element.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import _linalg
from .multiindex import _Record


class Vector(_Record):
    """Coordinate vector in dimension n."""

    __slots__ = _fields = ("n", "components")

    def __init__(self, n: int, components: tuple[Fraction, ...]) -> None:
        comps = tuple(Fraction(c) for c in components)
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if len(comps) != n:
            raise ValueError(f"expected {n} components, got {len(comps)}")
        self._store(n, comps)

    @classmethod
    def basis(cls, n: int, axis: int) -> "Vector":
        if not 1 <= axis <= n:
            raise ValueError(f"axis {axis} out of range 1..{n}")
        return cls(n, tuple(Fraction(int(r == axis)) for r in range(1, n + 1)))


class TopForm(_Record):
    """Multiple of the coordinate volume form."""

    __slots__ = _fields = ("n", "coeff")

    def __init__(self, n: int, coeff: Fraction) -> None:
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        self._store(n, Fraction(coeff))

    @classmethod
    def volume(cls, n: int) -> "TopForm":
        return cls(n, Fraction(1))


class CoDimOneForm(_Record):
    """Alternating form of degree n-1, expanded over the contracted basis.

    ``coeffs[i-1]`` multiplies the form obtained by plugging the ``i``-th
    coordinate vector into the volume form.
    """

    __slots__ = _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[Fraction, ...]) -> None:
        comps = tuple(Fraction(c) for c in coeffs)
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if len(comps) != n:
            raise ValueError(f"expected {n} coefficients, got {len(comps)}")
        self._store(n, comps)

    @classmethod
    def zero(cls, n: int) -> "CoDimOneForm":
        return cls(n, (Fraction(0),) * n)

    def __add__(self, other: "CoDimOneForm") -> "CoDimOneForm":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return CoDimOneForm(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor: Fraction | int) -> "CoDimOneForm":
        f = Fraction(factor)
        return CoDimOneForm(self.n, tuple(f * c for c in self.coeffs))


def contract(vector: Vector, top: TopForm) -> CoDimOneForm:
    """Plug a vector into the first slot of a top form.

    In coordinates the result has coefficients ``v^i * coeff``.  The induced
    map from vectors (at a fixed nonzero top form) to codimension-one forms
    is a linear isomorphism.
    """
    if vector.n != top.n:
        raise ValueError("dimension mismatch")
    return CoDimOneForm(vector.n, tuple(top.coeff * c for c in vector.components))


def evaluate(form: CoDimOneForm, vectors: Sequence[Vector]) -> Fraction:
    """Value of the form on n-1 ordered vector arguments.

    Basis form ``i`` on the arguments is the determinant whose columns are
    the ``i``-th coordinate vector followed by the arguments.  A determinant
    is linear in its first column, so the value is the one determinant whose
    first column is the coefficient vector.
    """
    if len(vectors) != form.n - 1:
        raise ValueError(f"expected {form.n - 1} vectors, got {len(vectors)}")
    for v in vectors:
        if v.n != form.n:
            raise ValueError("dimension mismatch")
    rows = [[c, *(v.components[r] for v in vectors)] for r, c in enumerate(form.coeffs)]
    return _linalg.det(rows)


def frame_rank(frame: Sequence[Vector]) -> int:
    """Rank of the span of a list of vectors."""
    return _linalg.rank([v.components for v in frame])


def restrict(form: CoDimOneForm, frame: Sequence[Vector]) -> Fraction:
    """Coefficient of the form restricted to the hyperplane spanned by a frame.

    The frame must consist of n-1 vectors spanning a codimension-one
    subspace; a degenerate frame is an error.  The restricted form is a
    multiple of the top form dual to the ordered frame and the returned value
    is that multiple, which is just the evaluation on the frame.  Swapping
    two frame vectors flips the sign.
    """
    if len(frame) != form.n - 1:
        raise ValueError(f"expected {form.n - 1} frame vectors, got {len(frame)}")
    if frame_rank(frame) != form.n - 1:
        raise ValueError("degenerate frame")
    return evaluate(form, frame)
