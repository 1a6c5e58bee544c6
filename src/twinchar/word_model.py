"""Exact word model of irreducible highest weight modules.

A vector of the module is stored through its pairings against every
lowering word of a fixed content (a row of the contravariant Gram
matrix).  That representation quotients out the radical for free, and it
turns raising operators, lowering operators and the diagram twist into
coordinate transport between word sets:

    <w, f_i v> = sum over insert positions of the pairing rule applied to v
    <w, e_i v> = <(i,) + w, v>
    <w, twist v> = <relabeled w, v>

so no basis of the module is ever chosen.  Everything here is integer or
Fraction arithmetic; Fractions only appear when echelon rows are
normalized.

This module deliberately does not import the folding machinery: the
automorphism enters only as a plain index permutation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import weyl
from .characters import CharacterPolynomial
from .errors import (
    InvalidInput,
    NotDominant,
    NotInWTilde,
    NotReduced,
    NotSymmetricWeight,
    NotTauStable,
    TooLarge,
)
from .root_data import GeneralizedCartanMatrix, RootVector, Weight, _require_finite

FWord = tuple[int, ...]

DEFAULT_WORD_CAP = 100_000


def word_content(n: int, word: FWord) -> RootVector:
    counts = [0] * n
    for letter in word:
        if not 0 <= letter < n:
            raise InvalidInput(f"letter {letter} out of range for rank {n}")
        counts[letter] += 1
    return tuple(counts)


def content_word_count(beta: RootVector) -> int:
    """Number of lowering words with the given content (a multinomial)."""
    total = math.factorial(sum(beta))
    for b in beta:
        total //= math.factorial(b)
    return total


def fwords(beta: RootVector) -> list[FWord]:
    """All words of one content in ascending lexicographic order."""
    n = len(beta)
    remaining = list(beta)
    word: list[int] = []
    out: list[FWord] = []

    def rec(left: int) -> None:
        if left == 0:
            out.append(tuple(word))
            return
        for i in range(n):
            if remaining[i]:
                remaining[i] -= 1
                word.append(i)
                rec(left - 1)
                word.pop()
                remaining[i] += 1

    rec(sum(beta))
    return out


def shapovalov_pair(gcm: GeneralizedCartanMatrix, lam: Weight, w1: FWord, w2: FWord):
    """Contravariant form of two lowering words applied to the highest vector.

    Zero across different contents; otherwise peel the head letter of w1
    and push the matching raising operator through w2.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if word_content(gcm.n, w1) != word_content(gcm.n, w2):
        return 0
    return _pair(gcm, tuple(lam), w1, w2)


@lru_cache(maxsize=None)
def _pair(gcm: GeneralizedCartanMatrix, lam: Weight, w1: FWord, w2: FWord):
    # memoized over (suffix of w1, subsequence of w2); contents stay equal
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


def _is_symmetric(lam: Weight, perm: tuple[int, ...]) -> bool:
    return all(lam[perm[i]] == lam[i] for i in range(len(perm)))


def tau_twist(perm: tuple[int, ...], v: PairingVector) -> PairingVector:
    """The twining map on pairing profiles: relabel test words letterwise.

    Defined only when the highest weight is fixed by the permutation; the
    output content is the relabeled content.
    """
    if not _is_symmetric(v.lam, perm):
        raise NotSymmetricWeight(f"weight {v.lam} is not fixed by {perm}")
    n = len(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    out = {tuple(inv[letter] for letter in u): value for u, value in v.coords.items()}
    content = tuple(v.content[perm[l]] for l in range(n))
    return PairingVector(v.lam, content, out)


def vector_of_word(gcm: GeneralizedCartanMatrix, lam: Weight, word: FWord) -> PairingVector:
    """Pairing profile of f_{w_1} ... f_{w_k} applied to the highest vector."""
    v = highest_weight_vector(gcm, lam)
    for letter in reversed(tuple(word)):
        v = f_action(gcm, letter, v)
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace of one weight space, rows in reduced row echelon form.

    Pivots are the lexicographically smallest words of each row and are
    strictly increasing; pivot entries are 1 and are cleared from every
    other row, so coordinates in the span can be read off directly.
    """

    lam: Weight
    content: RootVector
    rows: tuple[PairingVector, ...]
    pivots: tuple[FWord, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _subtract_scaled(target: dict, c, source: dict) -> None:
    for k, v in source.items():
        value = target.get(k, 0) - c * v
        if value:
            target[k] = value
        elif k in target:
            del target[k]


def _span(lam: Weight, content: RootVector, coord_dicts) -> Subspace:
    rows: list[dict] = []
    pivots: list[FWord] = []
    for coords in coord_dicts:
        work = dict(coords)
        for pivot, row in zip(pivots, rows):
            c = work.get(pivot)
            if c:
                _subtract_scaled(work, c, row)
        if not work:
            continue
        pivot = min(work)
        value = work[pivot]
        if value != 1:
            inv = Fraction(1, value) if isinstance(value, int) else 1 / value
            work = {k: v * inv for k, v in work.items()}
        for idx, row in enumerate(rows):
            c = row.get(pivot)
            if c:
                updated = dict(row)
                _subtract_scaled(updated, c, work)
                rows[idx] = updated
        pos = bisect_left(pivots, pivot)
        pivots.insert(pos, pivot)
        rows.insert(pos, work)
    return Subspace(
        tuple(lam), tuple(content),
        tuple(PairingVector(tuple(lam), tuple(content), row) for row in rows),
        tuple(pivots))


def weight_space(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector,
                 word_cap: int = DEFAULT_WORD_CAP) -> Subspace:
    """Span of the pairing vectors of every word of one content (Gram rows).

    The dimension equals the weight multiplicity of the irreducible module.
    """
    _require_finite(gcm)
    lam = tuple(lam)
    if not gcm.is_dominant(lam):
        raise NotDominant(f"weight {lam} is not dominant")
    count = content_word_count(beta)
    if count > word_cap:
        raise TooLarge(f"content {beta} has {count} words, above the cap {word_cap}")
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
    exponents = [0] * len(word)
    mu = lam
    for t in range(len(word) - 1, -1, -1):
        m = mu[word[t]]
        if m < 0:
            raise NotReduced(f"word {word} yields a negative exponent at position {t}")
        exponents[t] = m
        mu = gcm.reflect(mu, word[t])
    return exponents


def extremal_vector(gcm: GeneralizedCartanMatrix, lam: Weight, word) -> PairingVector:
    """The prescribed lowering word along a reduced expression, as a profile.

    For word (i_1, ..., i_k), exponent m_t is the pairing of the partial
    reflection s_{i_{t+1}} ... s_{i_k}(lam) with coroot i_t; any negative
    exponent means the expression was not reduced.
    """
    _require_finite(gcm)
    lam = tuple(lam)
    if not gcm.is_dominant(lam):
        raise NotDominant(f"weight {lam} is not dominant")
    word = tuple(word)
    exponents = _exponents(gcm, lam, word)
    v = highest_weight_vector(gcm, lam)
    for t in range(len(word) - 1, -1, -1):
        for _ in range(exponents[t]):
            v = f_action(gcm, word[t], v)
    assert v.coords, "extremal vector vanished"
    expected = weyl.act(gcm, word, lam)
    actual = tuple(l - c for l, c in zip(lam, gcm.weight_of_root(v.content)))
    assert actual == expected, "extremal vector has the wrong weight"
    return v


def weight_below(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector) -> Weight:
    """The weight lam minus the root combination beta, in weight coordinates."""
    drop = gcm.weight_of_root(beta)
    return tuple(l - d for l, d in zip(lam, drop))


def demazure_subspaces(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                       word_cap: int = DEFAULT_WORD_CAP) -> dict[RootVector, Subspace]:
    """All weight pieces of the module generated upward from the extremal vector.

    Dynamic programming down the content box: the top content carries the
    extremal line, and each lower content is the span of the raising
    images of the contents one simple root above.  Only nonzero subspaces
    are returned; their dimensions sum to the submodule dimension.
    """
    _require_finite(gcm)
    lam = tuple(lam)
    if not gcm.is_dominant(lam):
        raise NotDominant(f"weight {lam} is not dominant")
    reduced = weyl.reduced_word(gcm, word)
    beta = [0] * gcm.n
    for i, m in zip(reduced, _exponents(gcm, lam, reduced)):
        beta[i] += m
    beta_w = tuple(beta)
    count = content_word_count(beta_w)
    if count > word_cap:
        raise TooLarge(
            f"largest content {beta_w} has {count} words, above the cap {word_cap}")

    ext = extremal_vector(gcm, lam, reduced)
    assert ext.content == beta_w
    subspaces = {beta_w: _span(lam, beta_w, [ext.coords])}
    box = sorted(product(*(range(b + 1) for b in beta_w)),
                 key=lambda b: (-sum(b), b))
    for beta in box:
        if beta == beta_w:
            continue
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
    return subspaces


def twining_trace(subspace: Subspace, perm: tuple[int, ...]) -> int:
    """Trace of the twining map on one subspace, by echelon substitution.

    Raises NotTauStable when any twisted row leaves the row space, which is
    the signature of a word outside the commuting subgroup (or of a
    content that is not fixed by the permutation).
    """
    if not subspace.rows:
        return 0
    twisted = [tau_twist(perm, row) for row in subspace.rows]
    for t in twisted:
        if t.content != subspace.content:
            raise NotTauStable(
                f"twist maps content {subspace.content} to {t.content}")
    trace = 0
    for j, t in enumerate(twisted):
        work = dict(t.coords)
        coefficient_j = 0
        for k, (pivot, row) in enumerate(zip(subspace.pivots, subspace.rows)):
            c = work.get(pivot, 0)
            if k == j:
                coefficient_j = c
            if c:
                _subtract_scaled(work, c, row.coords)
        if work:
            raise NotTauStable(
                f"twisted basis row {j} at content {subspace.content} "
                "left the subspace")
        trace += coefficient_j
    if isinstance(trace, Fraction):
        assert trace.denominator == 1, "twining trace was not an integer"
        trace = int(trace)
    return trace


def twining_character(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                      perm: tuple[int, ...],
                      word_cap: int = DEFAULT_WORD_CAP) -> CharacterPolynomial:
    """Sum of twining traces over the symmetric weights of a Demazure submodule.

    Contents not fixed by the permutation are skipped: their weight spaces
    are permuted among each other and contribute nothing diagonal.
    """
    lam = tuple(lam)
    perm = tuple(perm)
    if not _is_symmetric(lam, perm):
        raise NotSymmetricWeight(f"weight {lam} is not fixed by {perm}")
    if not weyl.is_in_w_tilde(gcm, tuple(word), perm):
        raise NotInWTilde(f"word {tuple(word)} does not commute with {perm}")
    subspaces = demazure_subspaces(gcm, lam, word, word_cap)
    terms = []
    for beta, subspace in subspaces.items():
        if any(beta[perm[l]] != beta[l] for l in range(gcm.n)):
            continue
        trace = twining_trace(subspace, perm)
        if trace:
            terms.append((weight_below(gcm, lam, beta), trace))
    return CharacterPolynomial(gcm.n, terms)
