"""Generalized Cartan matrices, integral weights and simple-root arithmetic.

Weights are plain tuples of integers in fundamental-weight coordinates
(entry ``i`` is the pairing with the ``i``-th simple coroot); root vectors
are tuples of integer coefficients over the simple roots.  Nodes are
numbered ``0 .. n-1`` throughout, following the Bourbaki ordering shifted
down by one for the catalog types.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import InvalidInput, NotDominant, NotFiniteType, NotGCM, NotSymmetrizable
from .linalg import determinant, leading_principal_minors

Weight = tuple[int, ...]
RootVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """A validated GCM together with its minimal positive symmetrizer."""

    entries: IntMatrix
    symmetrizer: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def simple_root(self, j: int) -> Weight:
        """Fundamental-weight coordinates of the j-th simple root (column j).

        >>> from twinchar.root_data import cartan_matrix
        >>> cartan_matrix("A2").simple_root(0)
        (2, -1)
        """
        return tuple(row[j] for row in self.entries)

    def reflect(self, lam: Weight, i: int) -> Weight:
        """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
        m = lam[i]
        alpha = self.simple_root(i)
        return tuple(c - m * a for c, a in zip(lam, alpha))

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    def rho(self) -> Weight:
        return (1,) * self.n

    def weight_of_root(self, beta: RootVector) -> Weight:
        """Weight coordinates of sum_j beta_j alpha_j."""
        return tuple(sum(row[j] * beta[j] for j in range(self.n)) for row in self.entries)

    def root_coords(self, lam: Weight) -> RootVector:
        """Inverse of weight_of_root by Cramer's rule; needs det != 0 and an integral result."""
        det = determinant(self.entries)
        if det == 0:
            raise NotFiniteType("Cartan matrix is singular; root coordinates undefined")
        coords = []
        for j in range(self.n):
            replaced = tuple(row[:j] + (c,) + row[j + 1:] for row, c in zip(self.entries, lam))
            quotient, remainder = divmod(determinant(replaced), det)
            if remainder:
                raise InvalidInput(f"weight {lam} is not in the root lattice")
            coords.append(quotient)
        return tuple(coords)


def validate_gcm(matrix) -> GeneralizedCartanMatrix:
    """Check the GCM axioms and compute the smallest positive symmetrizer.

    The symmetrizer is found by propagating the ratio d_j = d_i a_ij / a_ji
    along edges of the diagram graph; an inconsistent cycle means the
    matrix is not symmetrizable.
    """
    entries = []
    for row in matrix:
        out = []
        for x in row:
            if x != int(x):
                raise NotGCM(f"entry {x!r} is not an integer")
            out.append(int(x))
        entries.append(tuple(out))
    entries = tuple(entries)
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise NotGCM("matrix must be square and nonempty")
    for i in range(n):
        if entries[i][i] != 2:
            raise NotGCM(f"diagonal entry a[{i}][{i}] = {entries[i][i]}, expected 2")
        for j in range(n):
            if i == j:
                continue
            if entries[i][j] > 0:
                raise NotGCM(f"off-diagonal entry a[{i}][{j}] = {entries[i][j]} must be <= 0")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotGCM(f"zero pattern broken at ({i},{j}): "
                             f"a[{i}][{j}]={entries[i][j]} but a[{j}][{i}]={entries[j][i]}")
    return GeneralizedCartanMatrix(entries, _symmetrizer(entries))


def _symmetrizer(entries: IntMatrix) -> tuple[int, ...]:
    n = len(entries)
    d: list = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component = [start]
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j == i or entries[i][j] == 0:
                    continue
                want = d[i] * Fraction(entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = want
                    component.append(j)
                    queue.append(j)
                elif d[j] != want:
                    raise NotSymmetrizable(f"inconsistent symmetrizer cycle through nodes {i}, {j}")
        # smallest positive integers per connected component
        scale = math.lcm(*(d[k].denominator for k in component))
        ints = [int(d[k] * scale) for k in component]
        g = math.gcd(*ints)
        for k, v in zip(component, ints):
            d[k] = v // g
    d = tuple(d)
    for i in range(n):
        for j in range(n):
            if d[i] * entries[i][j] != d[j] * entries[j][i]:
                raise NotSymmetrizable(f"d_i a_ij != d_j a_ji at ({i},{j})")
    return d


@lru_cache(maxsize=None)
def is_finite_type(gcm: GeneralizedCartanMatrix) -> bool:
    """True iff every leading principal minor is positive."""
    return all(m > 0 for m in leading_principal_minors(gcm.entries))


def _require_finite(gcm: GeneralizedCartanMatrix) -> None:
    if not is_finite_type(gcm):
        raise NotFiniteType("operation requires a finite-type Cartan matrix")


def int_tuple(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints; bool, float and str entries raise InvalidInput."""
    try:
        out = tuple(values)
    except TypeError:
        raise InvalidInput(f"{what} {values!r} is not a list of integers") from None
    if any(type(x) is not int for x in out):
        raise InvalidInput(f"{what} {list(out)} has a non-integer entry")
    return out


def dominant_weight(gcm: GeneralizedCartanMatrix, lam) -> Weight:
    """The weight as a tuple, checked to be integral, of size rank and dominant."""
    lam = int_tuple(lam, "weight")
    if len(lam) != gcm.n:
        raise InvalidInput(f"weight {lam} has size {len(lam)}, expected {gcm.n}")
    if not gcm.is_dominant(lam):
        raise NotDominant(f"weight {lam} is not dominant")
    return lam


def is_symmetric_weight(lam: Weight, perm: tuple[int, ...]) -> bool:
    """True iff the weight (or root vector) is fixed by the coordinate permutation."""
    return len(lam) == len(perm) and all(lam[perm[i]] == lam[i] for i in range(len(perm)))


def _reflect_root(entries: IntMatrix, beta: RootVector, i: int) -> RootVector:
    # s_i on root coordinates changes only entry i: k_i -> k_i - sum_j a_ij k_j
    new_i = beta[i] - sum(entries[i][j] * beta[j] for j in range(len(beta)))
    return beta[:i] + (new_i,) + beta[i + 1:]


@lru_cache(maxsize=None)
def positive_roots(gcm: GeneralizedCartanMatrix) -> tuple[RootVector, ...]:
    """All positive roots in root coordinates, by reflection closure of the simple roots."""
    _require_finite(gcm)
    n = gcm.n
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for beta in frontier:
            for i in range(n):
                gamma = _reflect_root(gcm.entries, beta, i)
                if gamma not in seen:
                    seen.add(gamma)
                    fresh.append(gamma)
        frontier = fresh
    return tuple(sorted(b for b in seen if all(c >= 0 for c in b)))


def weyl_dimension(gcm: GeneralizedCartanMatrix, lam: Weight) -> int:
    """dim L(lam) = prod_{alpha>0} (lam+rho, alpha) / (rho, alpha)."""
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    d = gcm.symmetrizer
    num = 1
    den = 1
    for beta in positive_roots(gcm):
        num *= sum(d[j] * (lam[j] + 1) * beta[j] for j in range(gcm.n))
        den *= sum(d[j] * beta[j] for j in range(gcm.n))
    quotient, remainder = divmod(num, den)
    assert remainder == 0, "Weyl dimension product was not an integer"
    return quotient


def pairing_weight_root(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector) -> int:
    """Invariant bilinear form (lam, beta) with (lam, alpha_j) = d_j lam_j."""
    d = gcm.symmetrizer
    return sum(d[j] * lam[j] * beta[j] for j in range(gcm.n))


def pairing_root_root(gcm: GeneralizedCartanMatrix, beta: RootVector, gamma: RootVector) -> int:
    """(beta, gamma) with (alpha_i, alpha_j) = d_i a_ij."""
    a = gcm.entries
    d = gcm.symmetrizer
    n = gcm.n
    return sum(beta[i] * d[i] * a[i][j] * gamma[j] for i in range(n) for j in range(n))


_EXCEPTIONAL = {
    "G2": ((2, -1), (-3, 2)),
}


@lru_cache(maxsize=None)
def cartan_matrix(label: str) -> GeneralizedCartanMatrix:
    """Catalog constructor by type label: "A2", "A3", "A4", "B2", "C3", "D4", "G2", ...

    Bourbaki node numbering shifted to 0-based: type A/B/C is the chain
    0-1-...-(n-1) with the short/long end at node n-1; type D attaches both
    n-2 and n-1 to node n-3.
    """
    lab = label.strip().upper()
    if lab in _EXCEPTIONAL:
        return validate_gcm(_EXCEPTIONAL[lab])
    family, rank_text = lab[:1], lab[1:]
    if family not in "ABCD" or not rank_text.isdigit():
        raise InvalidInput(f"unknown Cartan type label {label!r}")
    n = int(rank_text)
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    if n < minimum:
        raise InvalidInput(f"type {family} needs rank >= {minimum}")
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, aij=-1, aji=-1):
        m[i][j] = aij
        m[j][i] = aji

    if family in "ABC":
        for i in range(n - 2):
            join(i, i + 1)
        if n >= 2:
            if family == "A":
                join(n - 2, n - 1)
            elif family == "B":
                join(n - 2, n - 1, -1, -2)
            else:
                join(n - 2, n - 1, -2, -1)
    else:
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    return validate_gcm(m)


def weight_box(n: int, lo: int, hi: int):
    """All integer weights with every coordinate in [lo, hi] (test sweeps)."""
    return (tuple(w) for w in product(range(lo, hi + 1), repeat=n))
