"""Small exact linear algebra helpers over fractions.Fraction.

Everything in this package that needs a determinant, a rank, or a matrix
inverse goes through these routines so that no floating point enters the
exact code paths.  Matrices are plain sequences of row sequences.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = Sequence[Fraction]


def _to_rows(matrix: Sequence[Row]) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
    return rows


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def det(matrix: Sequence[Row]) -> Fraction:
    """Determinant by exact Gaussian elimination. Requires a square matrix."""
    rows = _to_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / pivot
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return sign * result


def rank(matrix: Sequence[Row]) -> int:
    rows = _to_rows(matrix)
    if not rows or not rows[0]:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rk = 0
    row = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(row, n_rows) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        pivot = rows[row][col]
        for r in range(row + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / pivot
                for c in range(col, n_cols):
                    rows[r][c] -= factor * rows[row][c]
        rk += 1
        row += 1
        if row == n_rows:
            break
    return rk


def inverse(matrix: Sequence[Row]) -> list[list[Fraction]]:
    """Exact inverse via Gauss-Jordan. Raises ValueError on a singular input."""
    rows = _to_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse requires a square matrix")
    aug = [row + unit for row, unit in zip(rows, identity(n))]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
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
