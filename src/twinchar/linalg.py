"""Small exact integer linear algebra helpers on tuple matrices.

Matrices are tuples of row tuples with integer entries.  Everything here
stays in the integers: there is no Fraction and no floating point, and
the one elimination routine is the fraction-free determinant.
"""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of an (m x k) and a (k x p) matrix."""
    if len(b) != len(a[0]):
        raise ValueError("matrix shapes do not compose")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v) -> tuple:
    if len(v) != len(a[0]):
        raise ValueError("matrix/vector size mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def determinant(a: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    After step k every entry of the trailing block is a (k+1) x (k+1) minor
    of the input, so the division by the previous pivot is exact (Sylvester's
    identity; Bareiss, Math. Comp. 22, 1968) and every value is an integer.
    """
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * pivot - m[r][k] * m[k][c]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def leading_principal_minors(a: Matrix) -> list[int]:
    return [determinant(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(len(a))]
