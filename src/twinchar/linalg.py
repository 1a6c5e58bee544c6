"""Small exact integer linear algebra helpers on integer rows.

Everything here stays in the integers: there are no rationals and no
floating point, and the one elimination routine is the fraction-free row
step ``eliminate``, which serves the word model's solves.
"""

from __future__ import annotations

import math
from operator import sub

from .errors import InexactDivision


def eliminate(out: list[int], row: list[int], pivot: int) -> list[int]:
    """out minus the multiple of row that clears its pivot entry, divided by the gcd."""
    g = math.gcd(row[pivot], out[pivot])
    a, b = row[pivot] // g, out[pivot] // g
    out = list(map(sub, map(a.__mul__, out), map(b.__mul__, row)))
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den where the theory makes the division exact; a remainder raises."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"{what}: {num} is not divisible by {den}")
    return quotient
