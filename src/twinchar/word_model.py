"""Exact word model of irreducible highest weight modules.

A vector of the module is stored through its pairings against every
lowering word of a fixed content (a row of the contravariant Gram
matrix).  That representation quotients out the radical for free, and it
turns raising operators, lowering operators and the diagram twist into
coordinate transport between word sets:

    <w, f_i v> = sum over insert positions of the pairing rule applied to v
    <w, e_i v> = <(i,) + w, v>
    <w, twist v> = <relabeled w, v>

so no basis of the module is ever chosen.  Everything here is integer
arithmetic: echelon rows are kept fraction-free (Bareiss), with one common
pivot value instead of pivots normalized to 1.

This module deliberately does not import the folding machinery: the
automorphism enters only as a plain index permutation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from . import weyl
from .characters import CharacterPolynomial
from .errors import (
    ExtremalVectorMismatch,
    InvalidInput,
    NotInWTilde,
    NotReduced,
    NotSymmetricWeight,
    NotTauStable,
    TooLarge,
)
from .root_data import (
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
from .linalg import exact_quotient

FWord = tuple[int, ...]

DEFAULT_WORD_CAP = 100_000


def content_word_count(beta: RootVector) -> int:
    """Number of lowering words with the given content (a multinomial)."""
    total = math.factorial(sum(beta))
    for b in beta:
        total //= math.factorial(b)
    return total


def _within_cap(what: str, beta: RootVector, word_cap: int) -> None:
    int_at_least(word_cap, 1, "word cap")
    count = content_word_count(beta)
    if count > word_cap:
        raise TooLarge(f"{what} {beta} has {count} words, above the cap {word_cap}")


def fwords(beta: RootVector) -> list[FWord]:
    """All words of one content in ascending lexicographic order."""
    if not any(beta):
        return [()]
    return [(i,) + rest for i, b in enumerate(beta) if b
            for rest in fwords(tuple(c - (k == i) for k, c in enumerate(beta)))]


@lru_cache(maxsize=1 << 16)   # a D4 weight space needing 2.9e5 pairs recomputes 4% more
def _pair(gcm: GeneralizedCartanMatrix, lam: Weight, w1: FWord, w2: FWord):
    """Contravariant form of two lowering words of one content on the highest vector.

    Peel the head letter of w1 and push the matching raising operator
    through w2; memoized over (suffix of w1, subsequence of w2).
    """
    if not w1:
        return 1
    i, rest = w1[0], w1[1:]
    row = gcm.entries[i]
    total = 0
    acc = 0  # sum over positions s > t of a[i][w2_s]
    for t in range(len(w2) - 1, -1, -1):
        if w2[t] == i:
            coeff = lam[i] - acc
            if coeff:
                total += coeff * _pair(gcm, lam, rest, w2[:t] + w2[t + 1:])
        acc += row[w2[t]]
    return total


@dataclass(frozen=True)
class PairingVector:
    """A module vector at content beta, stored as pairings against f-words.

    ``coords`` keeps only the nonzero pairings; absent words pair to zero.
    """

    lam: Weight
    content: RootVector
    coords: dict


def highest_weight_vector(gcm: GeneralizedCartanMatrix, lam: Weight) -> PairingVector:
    return PairingVector(tuple(lam), (0,) * gcm.n, {(): 1})


def f_action(gcm: GeneralizedCartanMatrix, i: int, v: PairingVector) -> PairingVector:
    """Transport the pairing profile one lowering step; content grows by e_i."""
    lam_i = v.lam[i]
    row = gcm.entries[i]
    out: dict = {}
    for u, value in v.coords.items():
        # inserting i at position p pairs with coefficient lam_i - sum_{s>=p} a[i][u_s]
        acc = 0
        for p in range(len(u), -1, -1):
            coeff = lam_i - acc
            if coeff:
                w = u[:p] + (i,) + u[p:]
                total = out.get(w, 0) + coeff * value
                if total:
                    out[w] = total
                elif w in out:
                    del out[w]
            if p:
                acc += row[u[p - 1]]
    content = v.content[:i] + (v.content[i] + 1,) + v.content[i + 1:]
    return PairingVector(v.lam, content, out)


def e_action(i: int, v: PairingVector) -> PairingVector:
    """Transport the pairing profile one raising step; content drops by e_i."""
    if v.content[i] == 0:
        raise InvalidInput(f"content {v.content} has no letter {i} to raise away")
    out = {u[1:]: value for u, value in v.coords.items() if u[0] == i}
    content = v.content[:i] + (v.content[i] - 1,) + v.content[i + 1:]
    return PairingVector(v.lam, content, out)


def tau_twist(perm: tuple[int, ...], v: PairingVector) -> PairingVector:
    """The twining map on pairing profiles: relabel test words letterwise.

    Defined only when the highest weight is fixed by the permutation; the
    output content is the relabeled content.
    """
    if not is_symmetric_weight(v.lam, perm):
        raise NotSymmetricWeight(f"weight {v.lam} is not fixed by {perm}")
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    out = {tuple(inv[letter] for letter in u): value for u, value in v.coords.items()}
    content = tuple(v.content[p] for p in perm)
    return PairingVector(v.lam, content, out)


@dataclass(frozen=True)
class Subspace:
    """A subspace of one weight space, integer rows in scaled reduced echelon form.

    Pivots are the lexicographically smallest words of each row and are
    strictly increasing; every pivot entry equals the positive ``scale`` and
    is cleared from every other row, so ``rows / scale`` is the reduced row
    echelon basis and coordinates in the span can be read off directly.
    """

    lam: Weight
    content: RootVector
    rows: tuple[PairingVector, ...]
    pivots: tuple[FWord, ...]
    scale: int

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _reduce(rows, pivots, scale: int, v: dict) -> dict:
    """scale * v - sum_k v[p_k] * R_k: empty exactly when v lies in the span."""
    out = {k: scale * x for k, x in v.items()}
    for pivot, row in zip(pivots, rows):
        c = v.get(pivot)
        if c:
            for k, x in row.items():
                out[k] = out.get(k, 0) - c * x
    return {k: x for k, x in out.items() if x}


def _span(lam: Weight, content: RootVector, coord_dicts) -> Subspace:
    """Gauss-Jordan elimination without fractions (Bareiss, Math. Comp. 22, 1968).

    ``scale`` stays the pivot minor of the inserted vectors, so by Sylvester's
    identity every row update divides exactly.  Each input is first divided by
    the gcd of its entries, or the scales compound from one content to the next.
    """
    rows: list[dict] = []
    pivots: list[FWord] = []
    scale = 1
    for coords in coord_dicts:
        g = math.gcd(*coords.values())
        if g > 1:
            coords = {k: x // g for k, x in coords.items()}
        work = _reduce(rows, pivots, scale, coords)
        if not work:
            continue
        pivot = min(work)
        if work[pivot] < 0:
            work = {k: -x for k, x in work.items()}
        a = work[pivot]
        rows = [{k: exact_quotient(x, scale, "echelon row update")
                 for k, x in _reduce((work,), (pivot,), a, row).items()}
                for row in rows]
        pos = bisect_left(pivots, pivot)
        pivots.insert(pos, pivot)
        rows.insert(pos, work)
        scale = a
    return Subspace(
        tuple(lam), tuple(content),
        tuple(PairingVector(tuple(lam), tuple(content), row) for row in rows),
        tuple(pivots), scale)


def weight_space(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector,
                 word_cap: int = DEFAULT_WORD_CAP) -> Subspace:
    """Span of the pairing vectors of every word of one content (Gram rows).

    The dimension equals the weight multiplicity of the irreducible module.
    """
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    _within_cap("content", beta, word_cap)
    words = fwords(beta)
    gram: dict[FWord, dict] = {w: {} for w in words}
    for a_idx, wa in enumerate(words):
        for wb in words[a_idx:]:
            value = _pair(gcm, lam, wa, wb)
            if value:
                gram[wa][wb] = value
                gram[wb][wa] = value
    return _span(lam, beta, [gram[w] for w in words])


def _exponents(gcm: GeneralizedCartanMatrix, lam: Weight, word: FWord) -> list[int]:
    """Exponent m_t = <s_{i_{t+1}} ... s_{i_k}(lam), alpha_{i_t}^vee> for each letter.

    Reflecting down the word gives lam - w(lam) = sum_t m_t alpha_{i_t}; any
    negative exponent means the expression was not reduced.
    """
    roots = weyl._simple_roots(gcm)
    exponents = [0] * len(word)
    mu = list(lam)
    for t in range(len(word) - 1, -1, -1):
        m = mu[word[t]]
        if m < 0:
            raise NotReduced(f"word {word} yields a negative exponent at position {t}")
        exponents[t] = m
        weyl._reflect(roots, mu, word[t])
    return exponents


def extremal_vector(gcm: GeneralizedCartanMatrix, lam: Weight, word) -> PairingVector:
    """The prescribed lowering word along a reduced expression, as a profile.

    For word (i_1, ..., i_k), exponent m_t is the pairing of the partial
    reflection s_{i_{t+1}} ... s_{i_k}(lam) with coroot i_t; any negative
    exponent means the expression was not reduced.
    """
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    word = weyl_word(gcm, word)
    exponents = _exponents(gcm, lam, word)
    v = highest_weight_vector(gcm, lam)
    for t in range(len(word) - 1, -1, -1):
        for _ in range(exponents[t]):
            v = f_action(gcm, word[t], v)
    if not v.coords:
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam} vanished")
    if weight_below(gcm, lam, v.content) != weyl.act(gcm, word, lam):
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam} has the wrong weight")
    return v


def weight_below(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector) -> Weight:
    """The weight lam minus the root combination beta, in weight coordinates."""
    drop = gcm.weight_of_root(beta)
    return tuple(l - d for l, d in zip(lam, drop))


def demazure_subspaces(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                       word_cap: int = DEFAULT_WORD_CAP) -> dict[RootVector, Subspace]:
    """All weight pieces of the module generated upward from the extremal vector.

    Dynamic programming down the content box, one height at a time: the
    top content carries the extremal line, and each lower content is the
    span of the raising images of the contents one simple root above.
    Only the contents just below a nonzero subspace are visited, in
    ascending order within a height.  Only nonzero subspaces are returned,
    highest first; their dimensions sum to the submodule dimension.
    """
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    reduced = weyl.reduced_word(gcm, word)
    beta = [0] * gcm.n
    for i, m in zip(reduced, _exponents(gcm, lam, reduced)):
        beta[i] += m
    beta_w = tuple(beta)
    _within_cap("largest content", beta_w, word_cap)

    ext = extremal_vector(gcm, lam, reduced)
    if ext.content != beta_w:
        raise ExtremalVectorMismatch(f"extremal vector has content {ext.content}, not {beta_w}")
    subspaces = {beta_w: _span(lam, beta_w, [ext.coords])}
    layer = [beta_w]
    while layer:
        # only a content one simple root below a nonzero subspace can be nonzero
        below = sorted({up[:i] + (up[i] - 1,) + up[i + 1:]
                        for up in layer for i in range(gcm.n) if up[i]})
        layer = []
        for beta in below:
            candidates = []
            for i in range(gcm.n):
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                sub = subspaces.get(up)
                if sub is None:
                    continue
                for row in sub.rows:
                    image = e_action(i, row)
                    if image.coords:
                        candidates.append(image.coords)
            if not candidates:
                continue
            span = _span(lam, beta, candidates)
            if span.dimension:
                subspaces[beta] = span
                layer.append(beta)
    return subspaces


def twining_trace(subspace: Subspace, perm: tuple[int, ...]) -> int:
    """Trace of the twining map on one subspace, by echelon substitution.

    In the basis rows / scale, the diagonal coefficient of row j is
    tau(R_j)[p_j] / scale, so the trace is one exact integer division.
    Raises NotTauStable when any twisted row leaves the row space, which is
    the signature of a word outside the commuting subgroup (or of a
    content that is not fixed by the permutation).
    """
    if not subspace.rows:
        return 0
    twisted = [tau_twist(perm, row).coords for row in subspace.rows]
    image = tuple(subspace.content[p] for p in perm)
    if image != subspace.content:
        raise NotTauStable(f"twist maps content {subspace.content} to {image}")
    rows = [row.coords for row in subspace.rows]
    for j, t in enumerate(twisted):
        if _reduce(rows, subspace.pivots, subspace.scale, t):
            raise NotTauStable(
                f"twisted basis row {j} at content {subspace.content} "
                "left the subspace")
    trace = sum(t.get(p, 0) for t, p in zip(twisted, subspace.pivots))
    return exact_quotient(trace, subspace.scale, "twining trace")


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
