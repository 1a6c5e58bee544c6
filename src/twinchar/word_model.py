"""Exact word model of irreducible highest weight modules.

The weight space of L(lam) at content beta (the weight lam minus
sum_i beta_i alpha_i) is built content by content.  For beta != 0 it is
spanned by the candidates f_i b, b in the basis one letter lower, and a
vector x there is zero exactly when every e_j kills it (otherwise it would
be a second highest weight vector).  So x is identified with its stacked
raising images (e_j x)_j, no Gram matrix is formed, and one elimination
per content serves three ends: the reduced echelon rows of the candidates'
images are the basis, the coordinates of any vector are its images read at
the pivot columns, and the blocks of the rows are the raising table.  The
images follow from [e_j, f_i] = delta_ij h_i:

    e_j f_i b = f_i (e_j b) + delta_ij <lam - content(b), alpha_i^vee> b

Each content therefore stores two tables: the lowering table (every
candidate in the basis of its content) and the raising table (each basis
vector's images one content lower).  Their sizes are weight
multiplicities, never word counts.  The tables depend only on (gcm, lam)
and are cached per highest weight.

A Demazure module is grown by raising images from its extremal line: w(lam)
lies in the Weyl orbit of lam, so its weight space at content lam - w(lam)
is one-dimensional and nothing needs computing to span it.  The diagram
twist tau, with tau(e_j) = e_{tau(j)}, is read off the raising tables.
Everything is integer arithmetic: each table is one integer matrix over
one positive denominator, one fraction-free elimination serves every
echelon, and the one division that the theory makes exact, the trace, is
checked.

This module deliberately does not import the folding machinery: the
automorphism enters only as a plain index permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import getitem, mul, sub
from typing import NamedTuple

from . import weyl
from .errors import (
    ExtremalVectorMismatch,
    NotInWTilde,
    NotSymmetricWeight,
    NotTauStable,
    RankMismatch,
    TooLarge,
)
from .linalg import exact_quotient
from .root_data import (
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    RootVector,
    Weight,
    _require_finite,
    diagram_permutation,
    dominant_weight,
    int_at_least,
    is_symmetric_weight,
    weyl_word,
)

Table = tuple[tuple[tuple[int, ...], ...], int]   # integer rows over one positive denominator

DEFAULT_WORD_CAP = 650


def _shift(beta: RootVector, i: int, step: int) -> RootVector:
    return beta[:i] + (beta[i] + step,) + beta[i + 1:]


def _permuted(beta: RootVector, perm: tuple[int, ...]) -> RootVector:
    """The content of tau(x) for x at content beta, where tau(f_l) = f_{perm[l]}."""
    out = [0] * len(beta)
    for letter, b in enumerate(beta):
        out[perm[letter]] = b
    return tuple(out)


def _product(rows, matrix, width: int) -> list[list[int]]:
    """Each row vector times the matrix, whose rows have the given width."""
    columns = list(zip(*matrix)) if matrix else [()] * width
    return [[sum(map(mul, row, column)) for column in columns] for row in rows]


def _table(rows) -> Table:
    """One integer matrix over the least common denominator of (numerators, denominator) rows."""
    rows = list(rows)
    den = math.lcm(*(d // math.gcd(d, *num) for num, d in rows))
    return tuple(tuple(x * den // d for x in num) for num, d in rows), den


def _eliminate(out: list[int], row: list[int], pivot: int) -> list[int]:
    """out minus the multiple of row that clears its pivot entry, divided by the gcd."""
    g = math.gcd(row[pivot], out[pivot])
    a, b = row[pivot] // g, out[pivot] // g
    out = list(map(sub, map(a.__mul__, out), map(b.__mul__, row)))
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _reduced(rows, pivots, out: list[int]) -> list[int]:
    """out with the pivot entries of echelon rows cleared: zero exactly on their span."""
    for pivot, row in zip(pivots, rows):
        if out[pivot]:
            out = _eliminate(out, row, pivot)
    return out


def _echelon(vectors, width: int, rank=None):
    """Fraction-free Gauss-Jordan elimination, pivots among the first width entries.

    Returns (rows, pivots), in the order the rows were found.  Each row is
    divided by the gcd of its entries, and its pivot is its first nonzero
    entry among the first width, positive and cleared from every other
    row.  The elimination stops once the rank reaches ``rank``.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    for out in vectors:
        if len(rows) == rank:
            break
        g = math.gcd(*out)
        if g > 1:
            out = [x // g for x in out]
        out = _reduced(rows, pivots, out)
        pivot = next(filter(out.__getitem__, range(width)), None)
        if pivot is not None:
            if out[pivot] < 0:
                out = [-x for x in out]
            rows = [_eliminate(row, out, pivot) if row[pivot] else row for row in rows]
            rows.append(out)
            pivots.append(pivot)
    return rows, pivots


class _Tables:
    """The lowering and raising tables of one L(lam), in one echelon basis per content.

    ``sizes[beta]`` is the dimension of content beta.  Below the top, a
    vector x stands for its stacked raising images (e_j x)_j, and basis
    vector r is the vector whose images are echelon row r over its pivot
    entry; ``pivots[beta]`` locates each pivot as (j, k), entry k of e_j x
    in the basis of beta - e_j, and the coordinates of x are its images
    read there.  ``lower[gamma, i]`` is f_i on the basis of gamma in the
    basis of gamma + e_i, ``raising[beta, j]`` is e_j on the basis of beta
    in the basis of beta - e_j.  Contents are built one height at a time
    from 0, only above nonempty ones, so a content missing from ``sizes``
    after growing is empty.  ``held`` counts, per top content, the basis
    vectors of the contents below it.
    """

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: Weight):
        self.gcm = gcm
        self.lam = lam
        self.sizes = {(0,) * gcm.n: 1}
        self.pivots = {}
        self.lower = {}
        self.raising = {}
        self.held = {}
        self.twists = {}   # perm -> {beta: tau on the basis of beta}

    def size(self, beta: RootVector) -> int:
        return self.sizes.get(beta, 0)

    def grow(self, beta: RootVector, word_cap) -> None:
        """Build every content below beta; raise TooLarge if they hold over word_cap vectors.

        The count is checked while the contents are built and again when
        they were built before, so the verdict does not depend on what the
        cache already holds.
        """
        held = self.held.get(beta)
        if held is None:
            held, layer = 0, [(0,) * len(beta)]
            while layer and held <= word_cap:
                above = set()
                for gamma in layer:
                    if gamma not in self.sizes:
                        self._build(gamma)
                    if self.sizes[gamma]:
                        held += self.sizes[gamma]
                        if held > word_cap:
                            break
                        above.update(_shift(gamma, i, 1)
                                     for i, b in enumerate(beta) if gamma[i] < b)
                layer = sorted(above)
            if held <= word_cap:
                self.held[beta] = held
        if held > word_cap:
            raise TooLarge(f"the contents below {beta} hold more than {word_cap} basis words")

    def _build(self, beta: RootVector) -> None:
        """Choose the basis of beta by one elimination and record the tables that reach it.

        The candidates f_i b, for b in the basis of beta - e_i, span the
        weight space; the reduced echelon rows of their stacked raising
        images are the basis.  Let mu = lam - beta.  When <mu, alpha_j^vee>
        = -k < 0, sl2 theory makes e_j injective on the weight space and
        f_j onto it, and its dimension is that of the Weyl conjugate
        s_j(mu), the content beta - k e_j (none when beta_j < k): so the
        images under e_j alone decide independence, the block of letter j
        comes first and holds every pivot, and the elimination stops at
        that dimension.  Only a dominant mu takes pivots in every block.
        """
        entries = self.gcm.entries
        pairing = [l - sum(map(mul, row, beta)) for l, row in zip(self.lam, entries)]
        negative = [j for j, p in enumerate(pairing) if p < 0]
        rank = None
        if negative:
            j = negative[0]
            rank = self.size(_shift(beta, j, pairing[j])) if beta[j] + pairing[j] >= 0 else 0
            if not rank:
                self.sizes[beta] = 0
                return
        letters = [i for i, b in enumerate(beta) if b]
        down = {j: _shift(beta, j, -1) for j in letters}
        size = {j: self.size(down[j]) for j in letters}
        if negative:
            j = min(negative, key=size.get)
            letters = [j] + [i for i in letters if i != j]
            width = size[j]
        else:
            width = sum(size.values())

        def raised(i: int, j: int):
            """e_j f_i on the basis of beta - e_i, in that of beta - e_j: rows over one den."""
            gamma = down[i]
            h = pairing[i] + entries[i][i] if i == j else 0   # <lam - gamma, alpha_i^vee>
            if not (gamma[j] and size[j]):
                return [[h * (k == t) for k in range(size[j])] for t in range(size[i])], 1
            e_rows, e_den = self.raising[gamma, j]
            f_rows, f_den = self.lower[_shift(gamma, j, -1), i]
            out = _product(e_rows, f_rows, size[j])
            for t, row in enumerate(out) if h else ():
                row[t] += h * e_den * f_den
            return out, e_den * f_den

        # candidate f_i b with its raising images under every letter times den
        candidates = []
        for i in filter(size.get, letters):
            parts = [raised(i, j) for j in letters]
            den = math.lcm(*(d for _, d in parts))
            candidates += [(i, [x * (den // d) for rows, d in parts for x in rows[t]], den)
                           for t in range(size[i])]
        rows, pivots = _echelon((vec for _, vec, _ in candidates), width, rank)
        if rank is not None and len(rows) != rank:
            raise RankMismatch(f"content {beta} has dimension {len(rows)}, "
                               f"its Weyl conjugate {rank}")
        for i in letters:
            self.lower[down[i], i] = _table(
                ([vec[p] for p in pivots], den) for k, vec, den in candidates if k == i)
        start = 0
        for j in letters:
            self.raising[beta, j] = _table(
                (row[start:start + size[j]], row[p]) for row, p in zip(rows, pivots))
            start += size[j]
        locations = [(j, k) for j in letters for k in range(size[j])]
        self.pivots[beta] = tuple(locations[p] for p in pivots)
        self.sizes[beta] = len(rows)

    def twist(self, perm: tuple[int, ...], beta: RootVector) -> Table:
        """tau on the basis of beta, in the basis of tau(beta).

        tau e_l = e_{perm[l]} tau, so the coordinate of tau(x) on the basis
        vector of tau(beta) whose pivot is (perm[l], k) is entry k of the
        twist at beta - e_l applied to e_l x: only raising tables are read.
        The contents below are twisted first from an explicit stack, since
        the height of a content can exceed the interpreter's recursion
        limit.  A permutation is checked to be a diagram automorphism when
        it is first seen.
        """
        if perm not in self.twists:
            diagram_permutation(self.gcm, perm)
        twists = self.twists.setdefault(perm, {(0,) * len(beta): (((1,),), 1)})
        pending = [beta]
        while pending:
            gamma = pending[-1]
            if gamma in twists:
                pending.pop()
                continue
            targets = [(perm.index(l), k) for l, k in self.pivots[_permuted(gamma, perm)]]
            below = {l: _shift(gamma, l, -1) for l, _ in targets}
            missing = [b for b in below.values() if b not in twists]
            if missing:
                pending += missing
                continue
            columns = []
            for l, k in targets:
                e_rows, e_den = self.raising[gamma, l]
                t_rows, t_den = twists[below[l]]
                column = [row[k] for row in t_rows]
                columns.append(([sum(map(mul, row, column)) for row in e_rows], e_den * t_den))
            columns, den = _table(columns)
            twists[gamma] = tuple(zip(*columns)), den
        return twists[beta]


@lru_cache(maxsize=64)
def _tables(gcm: GeneralizedCartanMatrix, lam: Weight) -> _Tables:
    # keyed on a validated matrix and a weight already through dominant_weight
    return _Tables(gcm, lam)


class Vector(NamedTuple):
    """A module vector at one content, by its nonzero coordinates (basis index -> int)."""

    content: RootVector
    coords: dict


@dataclass(frozen=True)
class Subspace:
    """A subspace of one weight space, integer rows in scaled reduced echelon form.

    Row coordinates are in the echelon basis of the content.  Pivots are the
    smallest basis index of each row and are strictly increasing; every
    pivot entry equals the positive ``scale`` and is cleared from every
    other row, so ``rows / scale`` is the reduced row echelon basis and
    coordinates in the span can be read off directly.
    """

    lam: Weight
    content: RootVector
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]
    scale: int
    tables: _Tables = field(compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _dense(subspace: Subspace) -> list[list[int]]:
    """The rows of a subspace as full coordinate lists."""
    width = subspace.tables.size(subspace.content)
    return [[row.coords.get(k, 0) for k in range(width)] for row in subspace.rows]


def _span(tables: _Tables, content: RootVector, vectors) -> Subspace:
    """The span of coordinate lists, rows scaled to one common pivot value.

    A line is spanned by [1] as soon as one vector is nonzero, which is what
    the elimination would return after dividing by the gcd; most contents
    of a Demazure module are lines, so the elimination is skipped there.
    """
    if tables.size(content) == 1:
        rows, pivots = ([[1]], [0]) if any(v[0] for v in vectors) else ([], [])
    else:
        rows, pivots = _echelon(vectors, tables.size(content))
    scale = math.lcm(*map(getitem, rows, pivots))
    order = sorted(zip(pivots, rows))
    scaled = tuple(Vector(content, {k: x * (scale // row[p]) for k, x in enumerate(row) if x})
                   for p, row in order)
    return Subspace(tables.lam, content, scaled, tuple(p for p, _ in order), scale, tables)


def _content(gcm: GeneralizedCartanMatrix, lam: Weight, word) -> RootVector:
    """lam - w(lam) in root coordinates, for any word of w.

    Reflecting lam down the word telescopes: lam - w(lam) is the sum over t
    of <s_{i_{t+1}} ... s_{i_k}(lam), alpha_{i_t}^vee> alpha_{i_t}.
    """
    roots = weyl._simple_roots(gcm)
    beta = [0] * gcm.n
    mu = list(lam)
    for i in reversed(word):
        beta[i] += mu[i]
        weyl._reflect(roots, mu, i)
    return tuple(beta)


def weight_below(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector) -> Weight:
    """The weight lam minus the root combination beta, in weight coordinates."""
    drop = gcm.weight_of_root(beta)
    return tuple(l - d for l, d in zip(lam, drop))


def demazure_subspaces(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                       word_cap: int = DEFAULT_WORD_CAP) -> dict[RootVector, Subspace]:
    """All weight pieces of the module generated upward from the extremal line.

    The word may be any word of w, reduced or not.  w(lam) lies in the
    Weyl orbit of lam, so its weight space is one line, and that line is
    the extremal vector up to scale: nothing is computed to find it.  The
    word cap bounds the basis vectors that the contents below the top
    content hold (the sum of their multiplicities).  Dynamic programming
    down the content box, one height at a time: the top content carries
    the extremal line, and each lower content is the span of the raising
    images of the contents one simple root above.  Only the contents just
    below a nonzero subspace are visited, in ascending order within a
    height.  Only nonzero subspaces are returned, highest first; their
    dimensions sum to the submodule dimension.
    """
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    int_at_least(word_cap, 1, "word cap")
    word = weyl_word(gcm, word)
    beta_w = _content(gcm, lam, word)
    tables = _tables(gcm, lam)
    tables.grow(beta_w, word_cap)
    if tables.size(beta_w) != 1:
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam}: content {beta_w} "
                                     f"has dimension {tables.size(beta_w)}, not 1")
    if weight_below(gcm, lam, beta_w) != weyl.act(gcm, word, lam):
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam} has the wrong weight")

    subspaces = {beta_w: _span(tables, beta_w, [[1]])}
    rows = {beta_w: [[1]]}
    layer = [beta_w]
    while layer:
        # only a content one simple root below a nonzero subspace can be nonzero
        below = sorted({_shift(up, i, -1) for up in layer for i in range(gcm.n) if up[i]})
        layer = []
        for beta in below:
            width = tables.size(beta)
            images = []
            for i in range(gcm.n):
                up = _shift(beta, i, 1)
                if up in rows:
                    images += filter(any, _product(rows[up], tables.raising[up, i][0], width))
            if images:
                subspaces[beta] = _span(tables, beta, images)
                rows[beta] = _dense(subspaces[beta])
                layer.append(beta)
    return subspaces


def twining_trace(subspace: Subspace, perm: tuple[int, ...]) -> int:
    """Trace of the twining map on one subspace, by echelon substitution.

    In the basis rows / scale, the diagonal coefficient of row j is
    tau(R_j)[p_j] / scale, and the twist table carries one denominator, so
    the trace is one exact integer division.  Raises NotTauStable when any
    twisted row leaves the row space, which is the signature of a word
    outside the commuting subgroup (or of a content that is not fixed by
    the permutation).
    """
    if not subspace.rows:
        return 0
    if not is_symmetric_weight(subspace.lam, perm):
        raise NotSymmetricWeight(f"weight {subspace.lam} is not fixed by {perm}")
    content = subspace.content
    image = _permuted(content, perm)
    if image != content:
        raise NotTauStable(f"twist maps content {content} to {image}")
    t_rows, t_den = subspace.tables.twist(tuple(perm), content)
    rows = _dense(subspace)
    trace = 0
    for j, (twisted, pivot) in enumerate(zip(_product(rows, t_rows, len(t_rows)),
                                             subspace.pivots)):
        if any(_reduced(rows, subspace.pivots, twisted)):
            raise NotTauStable(f"twisted basis row {j} at content {content} left the subspace")
        trace += twisted[pivot]
    return exact_quotient(trace, subspace.scale * t_den, "twining trace")


def twining_character(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                      perm: tuple[int, ...],
                      word_cap: int = DEFAULT_WORD_CAP) -> CharacterPolynomial:
    """Sum of twining traces over the symmetric weights of a Demazure submodule.

    Contents not fixed by the permutation are skipped: their weight spaces
    are permuted among each other and contribute nothing diagonal.
    """
    lam = dominant_weight(gcm, lam)
    perm = diagram_permutation(gcm, perm)
    if not is_symmetric_weight(lam, perm):
        raise NotSymmetricWeight(f"weight {lam} is not fixed by {perm}")
    word = weyl_word(gcm, word)
    if not weyl.is_in_w_tilde(gcm, word, perm):
        raise NotInWTilde(f"word {word} does not commute with {perm}")
    subspaces = demazure_subspaces(gcm, lam, word, word_cap)
    terms = []
    for beta, subspace in subspaces.items():
        if not is_symmetric_weight(beta, perm):
            continue
        trace = twining_trace(subspace, perm)
        if trace:
            terms.append((weight_below(gcm, lam, beta), trace))
    return CharacterPolynomial(gcm.n, terms)
