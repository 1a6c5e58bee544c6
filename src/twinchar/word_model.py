"""Exact word model of irreducible highest weight modules.

The weight space of L(lam) at content beta (the weight lam minus
sum_i beta_i alpha_i) gets a basis of lowering words, built content by
content.  The candidates at beta are the words (i,) + t with t a basis word
one letter lower; they span, since L(lam)_{lam-beta} = sum_i f_i
L(lam)_{lam-beta+alpha_i} for beta != 0.  A candidate is kept when its
raising images (e_j x)_j are independent of those of the words already
kept.  That test is exact because for beta != 0 a vector of L(lam) is zero
exactly when every e_j kills it (otherwise it would be a second highest
weight vector), so no Gram matrix is formed.  The raising images follow
from [e_j, f_i] = delta_ij h_i:

    e_j f_i f_t v = f_i (e_j f_t v) + delta_ij <lam - content(t), alpha_i^vee> f_t v

Each content therefore stores two tables in basis coordinates: the
lowering table (every candidate, kept or not, in the basis of its content)
and the raising table (each basis word's images one content lower).  Their
sizes are weight multiplicities, never word counts.  The tables depend only
on (gcm, lam) and are cached per highest weight.

A Demazure module is grown by raising images from its extremal line: w(lam)
lies in the Weyl orbit of lam, so its weight space at content lam - w(lam)
is one-dimensional and nothing needs computing to span it.  The diagram
twist tau(f_i) = f_{tau(i)} acts on basis words through the lowering
table.  Everything is integer arithmetic: each table is one integer matrix
over one positive denominator, one fraction-free elimination serves every
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

    Returns (rows, pivots, kept).  Each row is divided by the gcd of its
    entries, and its pivot is its first nonzero entry, positive and cleared
    from every other row.  ``kept`` indexes the vectors that raised the
    rank; the elimination stops once the rank reaches ``rank``.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    kept: list[int] = []
    for c, out in enumerate(vectors):
        if len(kept) == rank:
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
            kept.append(c)
    return rows, pivots, kept


class _Tables:
    """The basis words of one L(lam) and the lowering and raising tables between them.

    ``basis[beta]`` lists the basis words of content beta as pairs (i, t),
    the word (i,) + (basis word t of beta - e_i).  ``lower[gamma, i]`` is
    f_i on the basis of gamma in the basis of gamma + e_i, ``raising[beta,
    j]`` is e_j on the basis of beta in the basis of beta - e_j.  Contents
    are built one height at a time from 0, only above nonempty ones, so a
    content missing from ``basis`` after growing is empty.  ``held`` counts,
    per top content, the basis words of the contents below it.
    """

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: Weight):
        self.gcm = gcm
        self.lam = lam
        self.basis = {(0,) * gcm.n: ((),)}
        self.lower = {}
        self.raising = {}
        self.held = {}
        self.twists = {}   # perm -> {beta: tau on the basis of beta}

    def size(self, beta: RootVector) -> int:
        return len(self.basis.get(beta, ()))

    def grow(self, beta: RootVector, word_cap) -> None:
        """Build every content below beta; raise TooLarge if they hold over word_cap words.

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
                    if gamma not in self.basis:
                        self._build(gamma)
                    if self.basis[gamma]:
                        held += len(self.basis[gamma])
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
        """Choose the basis words of beta and record the tables that reach it.

        Let mu = lam - beta.  When <mu, alpha_j^vee> = -k < 0, sl2 theory
        makes e_j injective on the weight space and f_j onto it, and its
        dimension is that of the Weyl conjugate s_j(mu), the content
        beta - k e_j (none when beta_j < k): so the images under e_j alone
        decide independence, the candidates of letter j come first, and the
        choice stops at that dimension.  Only a dominant mu needs the images
        under every letter and a test of every candidate.
        """
        entries = self.gcm.entries
        pairing = [l - sum(map(mul, row, beta)) for l, row in zip(self.lam, entries)]
        negative = [j for j, p in enumerate(pairing) if p < 0]
        rank = None
        if negative:
            j = negative[0]
            rank = self.size(_shift(beta, j, pairing[j])) if beta[j] + pairing[j] >= 0 else 0
            if not rank:
                self.basis[beta] = ()
                return
        letters = [i for i, b in enumerate(beta) if b]
        down = {j: _shift(beta, j, -1) for j in letters}
        size = {j: self.size(down[j]) for j in letters}
        tests = letters
        if negative:
            j = min(negative, key=size.get)
            tests, letters = [j], [j] + [i for i in letters if i != j]

        def raised(i: int, j: int, ts):
            """e_j f_i f_t v for the basis words t of beta - e_i: integer rows over one den."""
            gamma = down[i]
            h = pairing[i] + entries[i][i] if i == j else 0   # <lam - content(t), alpha_i^vee>
            if not (gamma[j] and size[j] and ts):
                return [[h * (k == t) for k in range(size[j])] for t in ts], 1
            e_rows, e_den = self.raising[gamma, j]
            f_rows, f_den = self.lower[_shift(gamma, j, -1), i]
            out = _product((e_rows[t] for t in ts), f_rows, size[j])
            for t, row in zip(ts, out) if h else ():
                row[t] += h * e_den * f_den
            return out, e_den * f_den

        # candidate (i, t) is f_i on basis word t of beta - e_i, with its raising
        # images under the test letters times den, one den per letter
        candidates = []
        images = {}
        for i in letters:
            parts = [raised(i, j, range(size[i])) for j in tests]
            images.update(((i, j), part) for j, part in zip(tests, parts))
            den = math.lcm(*(d for _, d in parts))
            candidates += [(i, t, [x * (den // d) for rows, d in parts for x in rows[t]], den)
                           for t in range(size[i])]
        vectors = [vec for _, _, vec, _ in candidates]
        _, pivots, kept = _echelon(vectors, sum(size[j] for j in tests), rank)
        if rank is not None and len(kept) != rank:
            raise RankMismatch(f"content {beta} has {len(kept)} basis words, "
                               f"its Weyl conjugate {rank}")

        # the kept vectors at the pivot columns form an invertible A; the echelon of
        # [A | I] has rows [d e_r | B_r] with A^-1 = B_r / d, and candidate c has
        # coordinates (vec_c at the pivots) A^-1 diag(den of kept) / den_c
        m = len(kept)
        square = [[vectors[c][p] for p in pivots] + [int(k == r) for k in range(m)]
                  for r, c in enumerate(kept)]
        inverse, order, _ = _echelon(square, m)
        scale = math.lcm(*map(getitem, inverse, order))
        solve = [[]] * m
        for row, p in zip(inverse, order):
            solve[p] = [x * (scale // row[p]) * candidates[c][3] for x, c in zip(row[m:], kept)]
        coords = _product(([vec[p] for p in pivots] for vec in vectors), solve, m)
        for i in letters:
            self.lower[down[i], i] = _table(
                (coords[c], scale * den) for c, (k, _, _, den) in enumerate(candidates) if k == i)
        basis = tuple(candidates[c][:2] for c in kept)
        for j in letters:
            rows = []
            for i, t in basis:
                if (i, j) not in images:
                    images[i, j] = raised(i, j, range(size[i]))
                part, den = images[i, j]
                rows.append((part[t], den))
            self.raising[beta, j] = _table(rows)
        self.basis[beta] = basis

    def twist(self, perm: tuple[int, ...], beta: RootVector) -> Table:
        """tau on the basis words of beta, in the basis of tau(beta).

        tau(f_i f_t v) = f_{perm[i]} tau(f_t v): the lowering table at
        tau(beta - e_i), letter perm[i], applied to the twist at beta - e_i.
        The contents below are twisted first from an explicit stack, since
        the height of a content can exceed the interpreter's recursion limit.
        """
        twists = self.twists.setdefault(perm, {(0,) * len(beta): (((1,),), 1)})
        pending = [beta]
        while pending:
            gamma = pending[-1]
            if gamma in twists:
                pending.pop()
                continue
            below = {i: _shift(gamma, i, -1) for i, _ in self.basis[gamma]}
            missing = [b for b in below.values() if b not in twists]
            if missing:
                pending += missing
                continue
            rows = []
            for i, t in self.basis[gamma]:
                t_rows, t_den = twists[below[i]]
                f_rows, f_den = self.lower[_permuted(below[i], perm), perm[i]]
                rows += [(row, t_den * f_den)
                         for row in _product([t_rows[t]], f_rows, self.size(gamma))]
            twists[gamma] = _table(rows)
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

    Row coordinates are in the basis words of the content.  Pivots are the
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
        rows, pivots, _ = _echelon(vectors, tables.size(content))
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
    word cap bounds the basis words that the contents below the top
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
                                     f"has {tables.size(beta_w)} basis words, not 1")
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
