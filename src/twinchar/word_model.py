"""Exact word model of Demazure modules, built by Demazure's recursion.

V_w(lam) is built content by content (the weight lam minus sum_i beta_i
alpha_i has content beta): V_w = sum_k f_i^k V_{s_i w} for a left descent
i of w, from the line V_e = C v_lam.  Below the top content a vector x of
L(lam) is zero exactly when every e_j kills it (else it would be a second
highest weight vector), and e_j maps V_w into itself, so x stands for its
stacked raising images (e_j x)_j in V_w and no Gram matrix is formed.  At
content beta the basis of V_{s_i w} comes first, and a candidate f_i^k y,
y in the basis of V_{s_i w} at beta - k e_i, joins it when its images are
independent; a dependent candidate's relation gives its coordinates.  The
images follow from [e_j, f_i^k] = delta_ij k f_i^(k-1) (h_i - k + 1):

    e_j f_i^k y = f_i^k (e_j y) + delta_ij k (<lam - content(y), alpha_i^vee> - k + 1) f_i^(k-1) y

with both vectors on the right already placed one content higher.  So
every table stays inside V_w, and its sizes are multiplicities of V_w.

The recursion follows the element, not the letters: a module is built
along a reduced word of its element, and modules live in one bounded cache
keyed on (gcm, lam, w(lam)), since V_w depends only on the coset w W_lam.
The diagram twist tau, with tau(e_j) = e_{tau(j)}, is read off the raising
tables and kept with the module, once per permutation, and so is the
twining character that its traces assemble.  Everything is
integer arithmetic: each table is one integer matrix over one positive
denominator, one fraction-free elimination serves every solve, and the one
division that the theory makes exact, the trace, is checked.

This module deliberately does not import the folding machinery: the
automorphism enters only as a plain index permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, sub

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
    BoundedCache,
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

# the most basis vectors, dim V_w(lam), that one Demazure module may have
DEFAULT_WORD_CAP = 650
# the most basis vectors the module cache holds before it drops the oldest modules:
# twice the largest benchmark pool's working set (7,967 vectors), about 9 MB at the
# 560 bytes per held vector that tracemalloc shows on CPython 3.11
CACHE_VECTORS = 1 << 14


def _shift(beta: RootVector, i: int, step: int) -> RootVector:
    return beta[:i] + (beta[i] + step,) + beta[i + 1:]


def _permuted(beta: RootVector, perm: tuple[int, ...]) -> RootVector:
    """The content of tau(x) for x at content beta, where tau(f_l) = f_{perm[l]}."""
    out = [0] * len(beta)
    for letter, b in enumerate(beta):
        out[perm[letter]] = b
    return tuple(out)


def _product(rows, matrix) -> list[list[int]]:
    """Each row vector times the matrix; a row shorter than the matrix is padded with zeros."""
    columns = list(zip(*matrix))
    return [[sum(map(mul, row, column)) for column in columns] for row in rows]


def _table(rows) -> Table:
    """One integer matrix over the least common denominator of (numerators, denominator) rows."""
    rows = list(rows)
    den = math.lcm(*(d if d == 1 else d // math.gcd(d, *num) for num, d in rows))
    return tuple(tuple(num) if d == den else tuple(x * den // d for x in num)
                 for num, d in rows), den


def _eliminate(out: list[int], row: list[int], pivot: int) -> list[int]:
    """out minus the multiple of row that clears its pivot entry, divided by the gcd."""
    g = math.gcd(row[pivot], out[pivot])
    a, b = row[pivot] // g, out[pivot] // g
    out = list(map(sub, map(a.__mul__, out), map(b.__mul__, row)))
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _relations(vectors, scales, width: int, rank: int):
    """Yield, for each vector vectors[t] / scales[t] in turn (integer entries,
    positive scale), None when it is independent of the vectors before it,
    else its coordinates on the independent ones before it, as
    (numerators, positive denominator).

    Fraction-free elimination on the first width entries, each row divided
    by the gcd of its entries.  Every vector carries a tail that records
    its combination of the independent vectors (one slot each, at most
    ``rank`` of them) and of itself (the last entry), so a vector that
    reduces to zero states its relation to them.  An independent vector
    beyond ``rank`` ends the iteration.
    """
    rows, pivots, kept = [], [], []
    for vec, scale in zip(vectors, scales):
        out = list(vec) + [0] * rank + [1]
        for pivot, row in zip(pivots, rows):
            if out[pivot]:
                out = _eliminate(out, row, pivot)
        pivot = next(filter(out.__getitem__, range(width)), None)
        if pivot is None:
            a = out[-1]   # nonzero: only rows of independent vectors were subtracted
            sign = -1 if a > 0 else 1
            yield [sign * x * s for x, s in zip(out[width:], kept)], abs(a) * scale
            continue
        yield None
        if len(rows) == rank:
            return
        out[width + len(rows)], out[-1] = out[-1], 0
        rows.append(out)
        pivots.append(pivot)
        kept.append(scale)


def _joined(blocks, widths, count: int) -> tuple[list[list[int]], int]:
    """count rows of the (rows, denominator) blocks side by side, over one denominator.

    A block row shorter than its width is padded with zeros.
    """
    den = math.lcm(*(d for _, d in blocks))
    out = [[] for _ in range(count)]
    for (rows, d), width in zip(blocks, widths):
        factor = den // d
        for vec, row in zip(out, rows):
            vec += row if factor == 1 else [x * factor for x in row]
            if len(row) < width:
                vec += [0] * (width - len(row))
    return out, den


def _stacked(module: "_Module", beta: RootVector, letters) -> tuple[list[list[int]], int]:
    """The raising images of the basis of beta, letter blocks side by side, over one denominator."""
    size = module.sizes.get(beta, 0)
    return _joined([module.raising.get((beta, j), (((),) * size, 1)) for j, _ in letters],
                   [w for _, w in letters], size)


class _Module:
    """One Demazure module V_w(lam): a basis per content and its raising tables.

    ``sizes`` maps each nonempty content to its dimension.  Below the top, a
    vector x stands for its stacked raising images (e_j x)_j, and
    ``raising[beta, j]`` is e_j on the basis of beta in the basis of
    beta - e_j, absent when it is zero.  The basis of V_w at beta begins
    with that of V_{s_i w}, so a row of a table may be shorter than the
    basis it is written in: the missing entries are zero, and a table of
    V_{s_i w} serves V_w unchanged.  ``below`` is V_{s_i w} (None for V_e),
    ``twists[perm]`` is the diagram twist of every content, computed once
    per permutation, and ``characters[perm]`` the twining character of
    V_w(lam) that it gives.
    """

    __slots__ = ("gcm", "below", "sizes", "raising", "twists", "characters", "dimension")

    def __init__(self, gcm: GeneralizedCartanMatrix, below: "_Module | None" = None):
        self.gcm = gcm
        self.below = below
        self.sizes = dict(below.sizes) if below else {(0,) * gcm.n: 1}
        self.raising = dict(below.raising) if below else {}
        self.twists = {}
        self.characters = {}
        self.dimension = below.dimension if below else 1

    def letters(self, beta: RootVector) -> list[tuple[int, int]]:
        """(j, dim of beta - e_j) for each letter that can raise beta into the module."""
        return [(j, self.sizes[down]) for j in range(len(beta))
                if beta[j] and (down := _shift(beta, j, -1)) in self.sizes]

    def twist(self, perm: tuple[int, ...]) -> dict:
        """tau on the basis of every content beta, in the basis of tau(beta).

        tau e_l = e_{perm[l]} tau, so the images of tau(x) are the twists of
        the images of x, one height at a time: only raising tables are
        read.  Each tau(x) is solved on the basis of tau(beta) from its
        images; when that fails, tau(x) left V_w and NotTauStable is raised,
        so a w outside the commuting subgroup is refused.  The nearest
        module below with a twist for perm is tau-stable and its basis
        begins this one, so its twist gives the first rows of each content
        and only the rest are solved.  The permutation must be a diagram
        automorphism, as the public entries check.
        """
        if perm in self.twists:
            return self.twists[perm]
        base = self.below
        while base is not None and perm not in base.twists:
            base = base.below
        known = base.twists[perm] if base else {(0,) * self.gcm.n: (((1,),), 1)}
        twists = {}
        for beta in sorted(self.sizes, key=sum):
            size = self.sizes[beta]
            image = _permuted(beta, perm)
            if self.sizes.get(image) != size:
                raise NotTauStable(f"twist maps content {beta} of dimension {size} "
                                   f"to {image} of dimension {self.sizes.get(image, 0)}")
            table = known.get(beta, ((), 1))
            first = len(table[0])
            if first == size:
                twists[beta] = table
                continue
            letters = self.letters(image)
            basis, basis_den = _stacked(self, image, letters)
            blocks = []
            for j, _ in letters:   # e_j tau(x) = tau(e_l x), j = perm[l]
                l = perm.index(j)
                e_rows, e_den = self.raising.get((beta, l), (((),) * size, 1))
                t_rows, t_den = twists.get(_shift(beta, l, -1), ((), 1))
                blocks.append((_product(e_rows[first:], t_rows), e_den * t_den))
            twisted, den = _joined(blocks, [w for _, w in letters], size - first)
            found = list(_relations(basis + twisted, [basis_den] * size + [den] * len(twisted),
                                    sum(w for _, w in letters), size))
            if None in found[size:]:
                raise NotTauStable(f"twisted basis of content {beta} left the module")
            twists[beta] = _table([(row + (0,) * (size - first), table[1]) for row in table[0]]
                                  + found[size:])
        self.twists[perm] = twists
        return twists


def _extended(lam: Weight, i: int, below: _Module, module: _Module, lower: dict,
              beta: RootVector) -> int:
    """Add to content beta of V_w the candidates f_i^k y, k >= 1; return how many joined.

    The basis of V_{s_i w} at beta comes first, with its images as they
    were.  A candidate f_i^k y, y in the basis of V_{s_i w} at gamma =
    beta - k e_i, joins the basis when its stacked raising images are
    independent of those before it; otherwise the relation gives its
    coordinates.  Its images follow from the commutator relation:
    f_i^k (e_j y) and f_i^(k-1) y lie one content higher, read from
    ``lower`` (f_i^0 is the inclusion).
    """
    letters = module.letters(beta)
    widths = [w for _, w in letters]
    vectors, scale = _stacked(module, beta, letters)
    old = len(vectors)
    scales = [scale] * old
    groups = []
    pairing_i = lam[i] - sum(map(mul, module.gcm.entries[i], beta))
    for k in range(1, beta[i] + 1):
        gamma = _shift(beta, i, -k)
        size = below.sizes.get(gamma)
        if not size or (k > 1 and (gamma, k - 1) not in lower):
            continue
        # <lam - gamma, alpha_i^vee> = pairing_i + 2k
        h = k * (pairing_i + k + 1)
        blocks = []
        for j, w in letters:
            rows, d = None, 1
            f_key = (_shift(gamma, j, -1), k)
            if (gamma, j) in below.raising and f_key in lower:
                e_rows, d = below.raising[gamma, j]
                f_rows, f_den = lower[f_key]
                rows, d = _product(e_rows, f_rows), d * f_den
            if j == i and h:   # f_i^0 y is basis vector t of V_w at gamma
                g_rows, g_den = lower.get((gamma, k - 1)) or (
                    [[int(b == t) for b in range(w)] for t in range(size)], 1)
                d, scale = math.lcm(d, g_den), d
                rows = [[x * (d // scale) + h * y * (d // g_den) for x, y in zip(row, g_row)]
                        for row, g_row in zip(rows or [[0] * w] * size, g_rows)]
            blocks.append((rows or ((),) * size, d))
        stacked, den = _joined(blocks, widths, size)
        vectors += stacked
        scales += [den] * size
        groups.append((gamma, k, size))
    width = sum(widths)
    found = list(_relations(vectors, scales, width, min(len(vectors), width)))
    if any(found[:old]):
        raise RankMismatch(f"the basis of V_(s_{i} w) at content {beta} is dependent in V_w")
    basis = [t for t, f in enumerate(found) if f is None]
    size = len(basis)
    start = old
    for gamma, k, count in groups:
        rows = [([int(b == t) for b in basis], 1) if found[t] is None
                else (found[t][0] + [0] * (size - len(found[t][0])), found[t][1])
                for t in range(start, start + count)]
        if any(any(row) for row, _ in rows):
            lower[gamma, k] = _table(rows)
        start += count
    if size == old:
        return 0
    start = 0
    for j, w in letters:
        table = module.raising.get((beta, j), (((),) * old, 1))
        rows = [(row, table[1]) for row in table[0]]
        rows += [(vectors[t][start:start + w], scales[t]) for t in basis[old:]]
        if any(any(row) for row, _ in rows):
            module.raising[beta, j] = _table(rows)
        start += w
    module.sizes[beta] = size
    return size - old


def _grown(gcm: GeneralizedCartanMatrix, lam: Weight, below: _Module, i: int,
           word_cap: int, word) -> _Module:
    """V_w = sum_k f_i^k V_{s_i w} for a left descent i of w, from below = V_{s_i w}.

    V_w starts as a copy of V_{s_i w}: same contents, same bases, the same
    table objects.  Candidates with k >= 1 reach only the contents one step
    along i from a nonempty content of V_w, so those are visited one height
    at a time.  ``lower[gamma, k]`` (k >= 1) is f_i^k on the basis of
    V_{s_i w} at gamma in the basis of V_w at gamma + k e_i; it is needed
    only while building and is absent where it is zero.  New basis vectors
    are counted as they are found, and TooLarge is raised past word_cap.
    V_w is stable under the sl2 of i, so each content must have the
    dimension of its s_i-conjugate (RankMismatch otherwise); the same fact
    skips a content whose conjugate is empty.
    """
    row_i = gcm.entries[i]
    module = _Module(gcm, below)
    sizes = module.sizes
    lower: dict = {}
    changed: list[RootVector] = []
    levels: dict[int, list[RootVector]] = {}
    for beta in sizes:
        levels.setdefault(sum(beta), []).append(beta)
    height = 1
    while height - 1 in levels:
        for beta in sorted({_shift(b, i, 1) for b in levels[height - 1]}):
            pairing = lam[i] - sum(map(mul, row_i, beta))
            if pairing < 0 and _shift(beta, i, pairing) not in sizes:
                continue
            fresh = beta not in sizes
            added = _extended(lam, i, below, module, lower, beta)
            if added:
                changed.append(beta)
                if fresh:
                    levels.setdefault(height, []).append(beta)
            module.dimension += added
            if module.dimension > word_cap:
                raise TooLarge(f"the Demazure module of {word} at {lam} has more than "
                               f"{word_cap} basis vectors")
        height += 1
    for beta in changed:
        size = sizes[beta]
        conjugate = _shift(beta, i, lam[i] - sum(map(mul, row_i, beta)))
        if sizes.get(conjugate, 0) != size:
            raise RankMismatch(f"content {beta} has dimension {size}, its s_{i}-conjugate "
                               f"{conjugate} {sizes.get(conjugate, 0)}")
    return module


# the module cache: (gcm, lam, w(lam)) -> V_w(lam), weighed by dim V_w; a dropped module
# is rebuilt when it is next needed, and stays alive while a module built on it is cached
_modules = BoundedCache(CACHE_VECTORS, lambda module: module.dimension)


@dataclass(frozen=True)
class Subspace:
    """The weight space of a Demazure module V_w(lam) at one content."""

    lam: Weight
    content: RootVector
    dimension: int
    module: _Module = field(compare=False, repr=False)


def _content(gcm: GeneralizedCartanMatrix, lam: Weight, word) -> tuple[RootVector, Weight]:
    """lam - w(lam) in root coordinates, and w(lam), for any word of w.

    Reflecting lam down the word telescopes: lam - w(lam) is the sum over t
    of <s_{i_{t+1}} ... s_{i_k}(lam), alpha_{i_t}^vee> alpha_{i_t}.
    """
    roots = weyl._simple_roots(gcm)
    beta = [0] * gcm.n
    mu = list(lam)
    for i in reversed(word):
        beta[i] += mu[i]
        weyl._reflect(roots, mu, i)
    return tuple(beta), tuple(mu)


def weight_below(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector) -> Weight:
    """The weight lam minus the root combination beta, in weight coordinates."""
    drop = gcm.weight_of_root(beta)
    return tuple(l - d for l, d in zip(lam, drop))


def _module(gcm: GeneralizedCartanMatrix, lam: Weight, word: tuple[int, ...],
            word_cap: int) -> _Module:
    """The checked V_w(lam), from the cache or built along a reduced word of w.

    The arguments are those that ``demazure_subspaces`` and
    ``twining_core`` receive validated.  V_w(lam) depends only on the
    coset w W_lam, that is on the extremal weight w(lam), which keys the
    cache.  A miss walks the suffixes of a reduced word of w (their first
    letters are left descents) down to the first cached module or V_e,
    then builds back up in an explicit loop, skipping each letter that
    fixes the extremal weight.  A reduced word is walked as given: the
    suffixes of an unfolded word include the tau-stable elements of its
    folded suffixes, whose twists the module reuses.  The cap is checked
    while building and on every call, and so is the extremal line: the
    weight space of V_w at lam - w(lam) is one line with the weight w(lam).
    """
    beta_w, mu = _content(gcm, lam, word)
    key = (gcm, lam, mu)
    module = _modules.get(key)
    if module is None:
        reduced = weyl.reduced_word(gcm, word)
        if len(word) == len(reduced):
            reduced = word
        keys = [key] + [(gcm, lam, weyl.act(gcm, reduced[t:], lam))
                        for t in range(1, len(reduced) + 1)]
        found = ((t, _modules.get(k)) for t, k in enumerate(keys))
        t, module = next(((t, m) for t, m in found if m), (len(reduced), None))
        if module is None:
            module = _Module(gcm)
            _modules.add(keys[t], module)
        for t in range(t - 1, -1, -1):
            if keys[t] != keys[t + 1]:
                module = _grown(gcm, lam, module, reduced[t], word_cap, word)
                _modules.add(keys[t], module)
    if module.dimension > word_cap:
        raise TooLarge(f"the Demazure module of {word} at {lam} has more than "
                       f"{word_cap} basis vectors")
    if module.sizes.get(beta_w) != 1:
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam}: content {beta_w} "
                                     f"has dimension {module.sizes.get(beta_w, 0)}, not 1")
    if weight_below(gcm, lam, beta_w) != mu:
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam} has the wrong weight")
    return module


def _trace(table: Table) -> int:
    rows, den = table
    return exact_quotient(sum(row[k] for k, row in enumerate(rows)), den, "twining trace")


def demazure_subspaces(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                       word_cap: int = DEFAULT_WORD_CAP) -> dict[RootVector, Subspace]:
    """The nonzero weight spaces of the Demazure module V_w(lam), highest content first.

    The word may be any word of w, reduced or not: the module is that of
    its element.  The word cap bounds dim V_w(lam), the basis vectors of
    the module (the sum of its multiplicities); over it, TooLarge is
    raised.  Contents are ordered by height, largest first, and ascending
    within a height; the dimensions sum to dim V_w(lam).
    """
    _require_finite(gcm)
    lam = dominant_weight(gcm, lam)
    int_at_least(word_cap, 1, "word cap")
    module = _module(gcm, lam, weyl_word(gcm, word), word_cap)
    return {beta: Subspace(lam, beta, module.sizes[beta], module)
            for beta in sorted(module.sizes, key=lambda b: (-sum(b), b))}


def twining_trace(subspace: Subspace, perm: tuple[int, ...]) -> int:
    """Trace of the twining map on one weight space of a Demazure module.

    The twist table carries one denominator, so the trace is one exact
    integer division.  Raises NotTauStable when the content is not fixed
    by the permutation or the twist leaves the module, which is the
    signature of a word outside the commuting subgroup.
    """
    perm = diagram_permutation(subspace.module.gcm, perm)
    if not is_symmetric_weight(subspace.lam, perm):
        raise NotSymmetricWeight(f"weight {subspace.lam} is not fixed by {perm}")
    content = subspace.content
    image = _permuted(content, perm)
    if image != content:
        raise NotTauStable(f"twist maps content {content} to {image}")
    return _trace(subspace.module.twist(perm)[content])


def twining_character(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                      perm: tuple[int, ...],
                      word_cap: int = DEFAULT_WORD_CAP) -> CharacterPolynomial:
    """Sum of twining traces over the symmetric weights of a Demazure module.

    Contents not fixed by the permutation are skipped: their weight spaces
    are permuted among each other and contribute nothing diagonal.
    """
    return twining_core(gcm, dominant_weight(gcm, lam), weyl_word(gcm, word),
                        diagram_permutation(gcm, perm), word_cap)


def twining_core(gcm: GeneralizedCartanMatrix, lam: Weight, word: tuple[int, ...],
                 perm: tuple[int, ...], word_cap: int) -> CharacterPolynomial:
    """``twining_character`` on checked arguments, as ``harness.prepare`` makes them.

    Keeps the mathematical checks: a symmetric weight, a commuting word
    (one unchecked walk of w(rho)), finite type, the cap and the extremal
    line.  The character is kept with the module, once per permutation.
    """
    if not is_symmetric_weight(lam, perm):
        raise NotSymmetricWeight(f"weight {lam} is not fixed by {perm}")
    if not is_symmetric_weight(weyl._walk(gcm, reversed(word), list(gcm.rho())), perm):
        raise NotInWTilde(f"word {word} does not commute with {perm}")
    _require_finite(gcm)
    int_at_least(word_cap, 1, "word cap")
    module = _module(gcm, lam, word, word_cap)
    poly = module.characters.get(perm)
    if poly is None:
        poly = CharacterPolynomial(gcm.n, [
            (weight_below(gcm, lam, beta), _trace(table))
            for beta, table in module.twist(perm).items() if is_symmetric_weight(beta, perm)])
        module.characters[perm] = poly
    return poly
