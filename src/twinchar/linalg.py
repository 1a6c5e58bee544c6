"""Small exact integer linear algebra helpers on tuple matrices.

Matrices are tuples of row tuples with integer entries.  Everything here
stays in the integers: there are no rationals and no floating point, and
the one elimination routine is the fraction-free row step ``eliminate``.
It serves the finite-type test here and the word model's solves.
"""

from __future__ import annotations

import math
from operator import sub

from .errors import InexactDivision

Matrix = tuple[tuple[int, ...], ...]


def eliminate(out: list[int], row: list[int], pivot: int) -> list[int]:
    """out minus the multiple of row that clears its pivot entry, divided by the gcd.

    When row[pivot] > 0, out is only scaled by positive factors, so every
    sign of the exact rational step survives.
    """
    g = math.gcd(row[pivot], out[pivot])
    a, b = row[pivot] // g, out[pivot] // g
    out = list(map(sub, map(a.__mul__, out), map(b.__mul__, row)))
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def leading_minors_positive(a: Matrix) -> bool:
    """True iff every leading principal minor of the square matrix is positive.

    Elimination without row swaps: while the pivots before it are positive,
    the pivot of row k is minor k + 1 over minor k (minor j of the leading
    j x j block) times a positive factor of ``eliminate``.  So every minor
    is positive exactly when every pivot is (Sylvester's criterion), and
    the first pivot that is not ends the test.
    """
    rows = []
    for k, entries in enumerate(a):
        out = list(entries)
        for pivot, row in enumerate(rows):
            if out[pivot]:
                out = eliminate(out, row, pivot)
        if out[k] <= 0:
            return False
        rows.append(out)
    return True


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den where the theory makes the division exact; a remainder raises."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"{what}: {num} is not divisible by {den}")
    return quotient
