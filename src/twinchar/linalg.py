"""Small exact integer linear algebra helpers on tuple matrices.

Matrices are tuples of row tuples with integer entries.  Everything here
stays in the integers: there are no rationals and no floating point, and
the one elimination routine is the fraction-free determinant.
"""

from __future__ import annotations

from .errors import InexactDivision

Matrix = tuple[tuple[int, ...], ...]


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


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den where the theory makes the division exact; a remainder raises."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"{what}: {num} is not divisible by {den}")
    return quotient


def leading_principal_minors(a: Matrix) -> list[int]:
    return [determinant(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(len(a))]
