"""Small exact linear algebra helpers over fractions.Fraction.

Everything in this package that needs a determinant, a rank, or a matrix
inverse goes through these routines so that no floating point enters the
exact code paths.  Matrices are plain sequences of row sequences.

``_common_numerators`` is the one place where exact values become int
numerators over their least common denominator: every fraction-free kernel
of ``polyfield``, ``hyperstress`` and ``symtensor`` splits its inputs there.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

Row = Sequence[Fraction]


def _common_numerators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values as int numerators over their least common denominator, and that denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [num * (den // d) for num, d in ratios], den


def _to_rows(matrix: Sequence[Row]) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
    return rows


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def _eliminate(rows: list[list[Fraction]], jordan: bool = False) -> tuple[list[int], Fraction]:
    """Row-reduce ``rows`` in place by exact Gaussian elimination.

    Returns the pivot columns and the product of the pivots, negated once per
    row swap.  With ``jordan`` each pivot row is scaled to 1 and its column
    is cleared above the pivot too, which leaves reduced row echelon form.
    """
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    product = Fraction(1)
    for col in range(width):
        top = len(pivots)
        pivot_row = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            product = -product
        pivot = rows[top][col]
        product *= pivot
        if jordan:
            rows[top] = [x / pivot for x in rows[top]]
            pivot = Fraction(1)
        for r in range(0 if jordan else top + 1, len(rows)):
            if r != top and rows[r][col] != 0:
                factor = rows[r][col] / pivot
                for c in range(col, width):
                    rows[r][c] -= factor * rows[top][c]
        pivots.append(col)
    return pivots, product


def det(matrix: Sequence[Row]) -> Fraction:
    """Determinant by exact Gaussian elimination. Requires a square matrix."""
    rows = _to_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    pivots, product = _eliminate(rows)
    return product if len(pivots) == n else Fraction(0)


def rank(matrix: Sequence[Row]) -> int:
    return len(_eliminate(_to_rows(matrix))[0])


def inverse(matrix: Sequence[Row]) -> list[list[Fraction]]:
    """Exact inverse via Gauss-Jordan on ``[A | I]``. Raises ValueError on a singular input."""
    rows = _to_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse requires a square matrix")
    aug = [row + unit for row, unit in zip(rows, identity(n))]
    if _eliminate(aug, jordan=True)[0] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def mat_mul(a: Sequence[Row], b: Sequence[Row]) -> list[list[Fraction]]:
    rows_a = _to_rows(a)
    rows_b = _to_rows(b)
    if rows_a and rows_b and len(rows_a[0]) != len(rows_b):
        raise ValueError("inner dimensions do not match")
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*rows_b)]
        for row in rows_a
    ]


def mat_vec(a: Sequence[Row], v: Sequence[Fraction]) -> list[Fraction]:
    rows = _to_rows(a)
    if rows and len(rows[0]) != len(v):
        raise ValueError("dimensions do not match")
    return [sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in rows]
