"""Generalized Cartan matrices, integral weights and simple-root arithmetic.

Weights are plain tuples of integers in fundamental-weight coordinates
(entry ``i`` is the pairing with the ``i``-th simple coroot); root vectors
are tuples of integer coefficients over the simple roots.  Nodes are
numbered ``0 .. n-1`` throughout, following the Bourbaki ordering shifted
down by one for the catalog types.  All arithmetic is exact.

The character ring lives here too: both verification routes produce a
``CharacterPolynomial``, and neither may import the other's modules.  So
does ``BoundedCache``, the one kind of cache that both routes keep.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from itertools import product

from .errors import (
    InvalidInput,
    NotDiagramAutomorphism,
    NotDominant,
    NotFiniteType,
    NotGCM,
    NotSymmetrizable,
)
from .linalg import exact_quotient, leading_minors_positive

Weight = tuple[int, ...]
RootVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """A validated GCM together with its minimal positive symmetrizer.

    The data derived from the entries is computed once, at construction,
    and takes no part in equality: the rank ``n``, ``finite`` (every
    leading principal minor is positive: elimination meets only positive
    pivots), ``roots`` (per node i the nonzero (k, a_ki): alpha_i in weight
    coordinates, the column the walks step by), ``coroots`` (per node k the
    nonzero (j, a_kj): alpha_k^vee on root coordinates, the row that
    ``weight_of_root`` sums over) and the hash, which is that of
    (entries, symmetrizer).
    """

    entries: IntMatrix
    symmetrizer: tuple[int, ...]
    n: int = field(init=False, compare=False, repr=False)
    finite: bool = field(init=False, compare=False, repr=False)
    roots: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, compare=False, repr=False)
    coroots: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        entries, n = self.entries, len(self.entries)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "finite", leading_minors_positive(entries))
        object.__setattr__(self, "roots", tuple(
            tuple((k, row[i]) for k, row in enumerate(entries) if row[i]) for i in range(n)))
        object.__setattr__(self, "coroots", tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in entries))
        object.__setattr__(self, "_hash", hash((entries, self.symmetrizer)))

    def __hash__(self) -> int:
        return self._hash

    def simple_root(self, j: int) -> Weight:
        """Fundamental-weight coordinates of the j-th simple root (column j).

        >>> from twinchar.root_data import cartan_matrix
        >>> cartan_matrix("A2").simple_root(0)
        (2, -1)
        """
        return tuple(row[j] for row in self.entries)

    def rho(self) -> Weight:
        return (1,) * self.n

    def weight_of_root(self, beta: RootVector) -> Weight:
        """Weight coordinates of sum_j beta_j alpha_j: row k of the matrix times beta."""
        out = []
        for row in self.coroots:
            total = 0
            for j, a in row:
                total += a * beta[j]
            out.append(total)
        return tuple(out)


def validate_gcm(matrix) -> GeneralizedCartanMatrix:
    """Check the GCM axioms and compute the smallest positive symmetrizer.

    The matrix must be a list (``_sequence``) of rows that are lists of
    ints (``int_tuple``): a float, a bool or a string entry is invalid
    input even when it equals an integer.
    """
    entries = tuple(int_tuple(row, "matrix row") for row in _sequence(matrix, "matrix"))
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
    """The smallest positive integers d with d_i a_ij = d_j a_ji, in integers only.

    Each connected component of the diagram starts at d = 1 and propagates
    d_j = d_i |a_ij| / |a_ji| along its edges; when that division leaves a
    remainder, the component found so far is scaled up first so that it is
    exact.  Each component is then divided by its gcd.  Propagation fixes d
    on a spanning tree only; the final check is the one test of the other
    edges, so an inconsistent cycle raises there.
    """
    n = len(entries)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j == i or entries[i][j] == 0 or d[j]:
                    continue
                num, den = -d[i] * entries[i][j], -entries[j][i]
                if num % den:
                    up = den // math.gcd(num, den)
                    for k in component:
                        d[k] *= up
                    num *= up
                d[j] = num // den
                component.append(j)
                queue.append(j)
        g = math.gcd(*(d[k] for k in component))
        for k in component:
            d[k] //= g
    for i in range(n):
        for j in range(n):
            if d[i] * entries[i][j] != d[j] * entries[j][i]:
                raise NotSymmetrizable(f"d_i a_ij != d_j a_ji at ({i},{j})")
    return tuple(d)


def _require_finite(gcm: GeneralizedCartanMatrix) -> None:
    if not gcm.finite:
        raise NotFiniteType("operation requires a finite-type Cartan matrix")


def _sequence(values, what: str) -> tuple:
    """The values as a tuple; a non-iterable, a dict or a set raises InvalidInput.

    A dict or a set would pass as its keys or members, in an order that is
    not the caller's.  A tuple is returned as it is.
    """
    if type(values) is tuple:
        return values
    if isinstance(values, (dict, set, frozenset)):
        raise InvalidInput(f"{what} {values!r} is unordered, not a list")
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInput(f"{what} {values!r} is not a list") from None


_INT = frozenset({int})


def int_tuple(values, what: str) -> tuple[int, ...]:
    """The values (a list, see ``_sequence``) as a tuple of ints; bool, float and str raise."""
    out = tuple(values) if type(values) is list else _sequence(values, what)
    if not _INT.issuperset(map(type, out)):
        raise InvalidInput(f"{what} {list(out)} has a non-integer entry")
    return out


def int_at_least(value, minimum: int, what: str) -> None:
    """Raise InvalidInput unless the value is an int (not a bool or a float) >= minimum."""
    if type(value) is not int or value < minimum:
        raise InvalidInput(f"{what} {value!r} must be an integer of at least {minimum}")


def dominant_weight(gcm: GeneralizedCartanMatrix, lam) -> Weight:
    """The weight as a tuple, checked to be integral, of size rank and dominant."""
    return _dominant(gcm, int_tuple(lam, "weight"))


def _dominant(gcm: GeneralizedCartanMatrix, lam: Weight) -> Weight:
    """``dominant_weight`` on a tuple of ints: checks the size and the dominance."""
    if len(lam) != gcm.n:
        raise InvalidInput(f"weight {lam} has size {len(lam)}, expected {gcm.n}")
    if min(lam, default=0) < 0:
        raise NotDominant(f"weight {lam} is not dominant")
    return lam


def weyl_word(gcm: GeneralizedCartanMatrix, word) -> tuple[int, ...]:
    """The word as a tuple, checked to be ints that are nodes of the matrix."""
    return _letters(gcm, int_tuple(word, "word"))


def _letters(gcm: GeneralizedCartanMatrix, word: tuple[int, ...]) -> tuple[int, ...]:
    """``weyl_word`` on a tuple of ints: checks that each letter is a node."""
    if word and not (0 <= min(word) and max(word) < gcm.n):
        raise InvalidInput(f"word {word} has a letter out of range for rank {gcm.n}")
    return word


def diagram_permutation(gcm: GeneralizedCartanMatrix, perm) -> tuple[int, ...]:
    """The permutation as a tuple, checked to be a bijection of the nodes preserving A."""
    perm = int_tuple(perm, "automorphism")
    n = gcm.n
    if sorted(perm) != list(range(n)):
        raise NotDiagramAutomorphism(f"{list(perm)} is not a bijection of 0..{n - 1}")
    a = gcm.entries
    for i in range(n):
        for j in range(n):
            if a[perm[i]][perm[j]] != a[i][j]:
                raise NotDiagramAutomorphism(
                    f"entry ({i},{j}) not preserved: a[{perm[i]}][{perm[j]}]="
                    f"{a[perm[i]][perm[j]]} but a[{i}][{j}]={a[i][j]}")
    return perm


def is_symmetric_weight(lam: Weight, perm: tuple[int, ...]) -> bool:
    """True iff the weight (or root vector) is fixed by the coordinate permutation."""
    return len(lam) == len(perm) and tuple(map(lam.__getitem__, perm)) == tuple(lam)


def _reflect_root(entries: IntMatrix, beta: RootVector, i: int) -> RootVector:
    # s_i on root coordinates changes only entry i: k_i -> k_i - sum_j a_ij k_j
    new_i = beta[i] - sum(entries[i][j] * beta[j] for j in range(len(beta)))
    return beta[:i] + (new_i,) + beta[i + 1:]


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
    return exact_quotient(num, den, "Weyl dimension product")


_EXCEPTIONAL = {
    "E6": ((2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
           (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


def parse_label(label: str) -> tuple[str, int]:
    """The type ("A" to "D", "E6" or "G2") and rank of a catalog label; no matrix is built."""
    if not isinstance(label, str):
        raise InvalidInput(f"Cartan type label {label!r} is not a string")
    lab = label.strip().upper()
    if lab in _EXCEPTIONAL:
        return lab, len(_EXCEPTIONAL[lab])
    family, rank_text = lab[:1], lab[1:]
    if family not in "ABCD" or not rank_text.isdigit():
        raise InvalidInput(f"unknown Cartan type label {label!r}")
    n = int(rank_text)
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    if n < minimum:
        raise InvalidInput(f"type {family} needs rank >= {minimum}")
    return family, n


def cartan_matrix(label: str) -> GeneralizedCartanMatrix:
    """Catalog constructor by type label: "A2", "A3", "A4", "B2", "C3", "D4", "E6", "G2", ...

    Bourbaki node numbering shifted to 0-based: type A/B/C is the chain
    0-1-...-(n-1) with the short/long end at node n-1; type D attaches both
    n-2 and n-1 to node n-3; E6 is the chain 0-2-3-4-5 with node 1 on
    node 3.  Each call builds the matrix and checks it.
    """
    family, n = parse_label(label)
    if family in _EXCEPTIONAL:
        return validate_gcm(_EXCEPTIONAL[family])
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


class CharacterPolynomial:
    """Finitely supported integer linear combination of formal weight exponentials.

    Terms with equal exponents are summed and zero coefficients dropped, so
    equality is equality of characters.

    >>> p = CharacterPolynomial(2, [((1, 1), 1), ((-1, -1), 1), ((1, 1), 1)])
    >>> p.sorted_terms(), p.coefficient_sum()
    ([((1, 1), 2), ((-1, -1), 1)], 3)
    >>> CharacterPolynomial(2, [((0, 0), 1), ((0, 0), -1)]) == CharacterPolynomial(2)
    True
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        data: dict[Weight, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for weight, coeff in items:
            weight = tuple(weight)
            if len(weight) != n:
                raise ValueError(f"exponent {weight} has size {len(weight)}, expected {n}")
            total = data.get(weight, 0) + coeff
            if total:
                data[weight] = total
            elif weight in data:
                del data[weight]
        self._terms = data

    @classmethod
    def monomial(cls, weight: Weight) -> "CharacterPolynomial":
        return cls(len(weight), [(tuple(weight), 1)])

    def coefficient(self, weight: Weight) -> int:
        return self._terms.get(tuple(weight), 0)

    def coefficient_sum(self) -> int:
        return sum(self._terms.values())

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        """Terms sorted by exponent in descending lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def support(self) -> set[Weight]:
        return set(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharacterPolynomial)
                and self.n == other.n and self._terms == other._terms)

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return f"CharacterPolynomial({self.n}, 0 terms)"
        head = ", ".join(f"{c}*e{list(w)}" for w, c in self.sorted_terms()[:4])
        more = "" if len(self._terms) <= 4 else f", ... ({len(self._terms)} terms)"
        return f"CharacterPolynomial({self.n}, {head}{more})"


class BoundedCache(dict):
    """A dict that drops its oldest entries while they weigh more than ``limit``.

    ``weight`` weighs a value (1 each by default) and ``held`` is the weight
    of the values held; the newest entry is never dropped.  Values are
    stored only through ``add``, once complete, and storing and dropping
    hold a lock, so threads may share the cache.
    """

    def __init__(self, limit: int, weight=lambda value: 1):
        super().__init__()
        self.limit, self.weight, self.held = limit, weight, 0
        self.lock = threading.Lock()

    def add(self, key, value) -> None:
        with self.lock:
            self.held += self.weight(value) - (self.weight(self[key]) if key in self else 0)
            self[key] = value
            while self.held > self.limit and len(self) > 1:
                self.held -= self.weight(self.pop(next(iter(self))))

    def cache_clear(self) -> None:
        with self.lock:
            self.clear()
            self.held = 0
