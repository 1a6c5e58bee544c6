"""Exact word model of Demazure modules of any symmetrizable GCM, by Demazure's recursion.

V_w(lam) is built content by content (the weight lam minus sum_i beta_i
alpha_i has content beta) by Demazure's recursion V_w = C[f_i] V_{s_i w}
for a left descent i of w, from the line V_e = C v_lam: V_w is f_i-stable,
so each content grows by one f_i step, V_w[beta] = V_{s_i w}[beta] +
f_i V_w[beta - e_i].  Below the top content a vector x of
L(lam) is zero exactly when every e_j kills it (else it would be a second
highest weight vector), and e_j maps V_w into itself, so x stands for its
stacked raising images (e_j x)_j in V_w and no Gram matrix is formed.  At
content beta the basis of V_{s_i w} comes first, and a candidate f_i x,
x in the basis of V_w at gamma = beta - e_i, joins it when its images are
independent; a dependent candidate's relation gives its coordinates.  The
images follow from [e_j, f_i] = delta_ij h_i:

    e_j f_i x = f_i (e_j x) + delta_ij <lam - gamma, alpha_i^vee> x

with both vectors on the right already placed one content higher.  So
every table stays inside V_w, and its sizes are multiplicities of V_w.

The recursion follows the element, not the letters: modules live in one
bounded cache keyed on the content lam - w(lam), since V_w depends only on
w W_lam, and a miss peels descents off w(lam), one tau-orbit at a time.
The diagram twist tau, with tau(e_j) = e_{tau(j)}, is read off the raising
tables, and the twining character that its traces assemble is kept with
the module, once per permutation.  Everything is
integer arithmetic: each table is one integer matrix over one positive
denominator, one fraction-free elimination serves every solve, and the one
division that the theory makes exact, the trace, is checked.

This module deliberately imports neither the folding machinery nor
``weyl``: the automorphism enters only as a plain index permutation.
"""

from __future__ import annotations

import math
from operator import mul, sub

from .errors import (
    ExtremalVectorMismatch,
    NoDescentFound,
    NotInWTilde,
    NotSymmetricWeight,
    NotTauStable,
    RankMismatch,
    TooLarge,
)
from .linalg import eliminate, exact_quotient
from .root_data import (
    BoundedCache,
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    RootVector,
    Weight,
    diagram_permutation,
    dominant_weight,
    int_at_least,
    is_symmetric_weight,
    weyl_word,
)

Table = tuple[tuple[tuple[int, ...], ...], int]   # integer rows over one positive denominator

# the most basis vectors, dim V_w(lam), that one Demazure module may have
DEFAULT_WORD_CAP = 650
# the most basis vectors the module cache holds before it drops the oldest modules, about
# 9 MB at the 560 bytes per held vector that tracemalloc shows on CPython 3.11: twice the
# 7,967 held after one pass over the largest benchmark pool, which builds only 4,791, as a
# module weighs its full dim V_w, the tables it shares with the module below included
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
    """Each row vector times the rectangular matrix, skipping the zero entries of both;
    a row (of a raising table) shorter than the matrix has rows is padded with zeros."""
    out = [[0] * len(matrix[0] if matrix else ()) for _ in rows]
    for acc, row in zip(out, rows):
        for a, m_row in zip(row, matrix):
            if a:
                for k, b in enumerate(m_row):
                    if b:
                        acc[k] += a * b
    return out


def _table(rows) -> Table:
    """One integer matrix over the least common denominator of (numerators, denominator) rows."""
    rows = list(rows)
    den = math.lcm(*(d if d == 1 else d // math.gcd(d, *num) for num, d in rows))
    return tuple(tuple(num) if d == den else tuple(x * den // d for x in num)
                 for num, d in rows), den


def _relations(vectors, width: int, rank: int):
    """Yield, for each integer vector in turn, None when it is independent of
    the vectors before it, else its coordinates on the independent ones
    before it, as (numerators, positive denominator).

    Fraction-free elimination (``linalg.eliminate``) on the first width
    entries.  Every vector carries a tail that records its combination of
    the independent vectors (one slot each, at most ``rank`` of them) and
    of itself (the last entry), so a vector that reduces to zero states its
    relation to them.  An independent vector beyond ``rank`` ends the
    iteration.
    """
    rows, pivots = [], []
    for vec in vectors:
        out = list(vec) + [0] * rank + [1]
        for pivot, row in zip(pivots, rows):
            if out[pivot]:
                out = eliminate(out, row, pivot)
        pivot = next(filter(out.__getitem__, range(width)), None)
        if pivot is None:
            a = out[-1]   # nonzero: only rows of independent vectors were subtracted
            sign = -1 if a > 0 else 1
            yield [sign * x for x in out[width:width + len(rows)]], abs(a)
            continue
        yield None
        if len(rows) == rank:
            return
        out[width + len(rows)], out[-1] = out[-1], 0
        rows.append(out)
        pivots.append(pivot)


def _joined(blocks, widths, count: int, den: int) -> list[list[int]]:
    """count rows of the (rows, d) blocks side by side, over a multiple den of every d.

    A block row shorter than its width is padded with zeros.
    """
    out = [[] for _ in range(count)]
    for (rows, d), width in zip(blocks, widths):
        factor = den // d
        for vec, row in zip(out, rows):
            vec += row if factor == 1 else [x * factor for x in row]
            if len(row) < width:
                vec += [0] * (width - len(row))
    return out


def _solved(module: "_Module", beta: RootVector, letters, blocks, count: int, rank: int):
    """Solve count candidates at content beta, after its basis, by their raising images.

    The basis's raising tables and the candidates' letter blocks, one per
    letter in ``letters``, are joined over one denominator den.  Returns
    the joined vectors (basis first), den and the ``_relations`` of each.
    """
    size = module.sizes.get(beta, 0)
    basis = [module.raising.get((beta, j), (((),) * size, 1)) for j, _ in letters]
    widths = [w for _, w in letters]
    den = math.lcm(*(d for _, d in basis), *(d for _, d in blocks))
    vectors = _joined(basis, widths, size, den) + _joined(blocks, widths, count, den)
    return vectors, den, list(_relations(vectors, sum(widths), rank))


class _Module:
    """One Demazure module V_w(lam): a basis per content and its raising tables.

    ``sizes`` maps each nonempty content to its dimension.  Below the top, a
    vector x stands for its stacked raising images (e_j x)_j, and
    ``raising[beta, j]`` is e_j on the basis of beta in the basis of
    beta - e_j, absent when it is zero.  The basis of V_w at beta begins
    with that of V_{s_i w}, so a row of a table may be shorter than the
    basis it is written in: the missing entries are zero, and a table of
    V_{s_i w} (``below``) serves V_w unchanged, shared by reference.
    ``characters[perm]`` is the twining character of V_w(lam), assembled
    once per permutation from the traces of ``twist(perm)``.  ``weight`` is
    the extremal weight, lam minus the root combination beta_w that keys the
    module in the cache, set by ``_module`` before the module enters it.
    """

    __slots__ = ("gcm", "sizes", "raising", "characters", "dimension", "weight")

    def __init__(self, gcm: GeneralizedCartanMatrix, below: "_Module | None" = None):
        self.gcm = gcm
        self.sizes = dict(below.sizes) if below else {(0,) * gcm.n: 1}
        self.raising = dict(below.raising) if below else {}
        self.characters = {}
        self.dimension = below.dimension if below else 1

    def letters(self, beta: RootVector) -> list[tuple[int, int]]:
        """(j, dim of beta - e_j) for each letter that can raise beta into the module."""
        return [(j, self.sizes[down]) for j in range(len(beta))
                if beta[j] and (down := _shift(beta, j, -1)) in self.sizes]

    def twist(self, perm: tuple[int, ...]) -> dict:
        """tau on the basis of every content beta, in the basis of tau(beta).

        tau e_l = e_{perm[l]} tau, so the images of tau(x) are the twists of
        the images of x, one height at a time from the identity at the top
        content: only this module's raising tables are read.  Each tau(x) is
        solved on the basis of tau(beta) from its images; when that fails,
        tau(x) left V_w and NotTauStable is raised, so a w outside the
        commuting subgroup is refused.  The permutation must be a diagram
        automorphism, as the public entries check.  Nothing is kept:
        ``twining_core`` keeps the character that the traces give.
        """
        twists = {(0,) * self.gcm.n: (((1,),), 1)}
        for beta in sorted(self.sizes, key=sum)[1:]:   # the top content 0 comes first
            size = self.sizes[beta]
            image = _permuted(beta, perm)
            if self.sizes.get(image) != size:
                raise NotTauStable(f"twist maps content {beta} of dimension {size} "
                                   f"to {image} of dimension {self.sizes.get(image, 0)}")
            letters = self.letters(image)
            blocks = []
            for j, _ in letters:   # e_j tau(x) = tau(e_l x), j = perm[l]
                l = perm.index(j)
                e_rows, e_den = self.raising.get((beta, l), (((),) * size, 1))
                t_rows, t_den = twists.get(_shift(beta, l, -1), ((), 1))
                blocks.append((_product(e_rows, t_rows), e_den * t_den))
            found = _solved(self, image, letters, blocks, size, size)[2]
            if None in found[size:]:
                raise NotTauStable(f"twisted basis of content {beta} left the module")
            twists[beta] = _table(found[size:])
        return twists


def _extended(lam: Weight, i: int, module: _Module, lower: dict, beta: RootVector) -> int:
    """Grow content beta of V_w by f_i V_w[beta - e_i]; return how many basis vectors joined.

    The basis of V_{s_i w} at beta comes first, with its images as they
    were.  A candidate f_i x, x in the basis of V_w at gamma = beta - e_i,
    joins it when its stacked raising images are independent of those
    before it; otherwise the relation gives its coordinates.  Its images
    are e_j f_i x = f_i (e_j x) + delta_ij <lam - gamma, alpha_i^vee> x,
    with f_i on the content of e_j x read from ``lower``; the candidates'
    coordinates make ``lower[gamma]``, f_i on the basis of V_w at gamma.
    """
    letters = module.letters(beta)
    old = module.sizes.get(beta, 0)
    gamma = _shift(beta, i, -1)
    count = module.sizes[gamma]
    h = lam[i] - sum(map(mul, module.gcm.entries[i], gamma))   # <lam - gamma, alpha_i^vee>
    blocks = []
    for j, w in letters:
        rows, d = None, 1
        down = _shift(gamma, j, -1)
        if (gamma, j) in module.raising and down in lower:
            e_rows, d = module.raising[gamma, j]
            f_rows, f_den = lower[down]
            rows, d = _product(e_rows, f_rows), d * f_den
        if j == i and h:   # h_i x is h times basis vector t of V_w at gamma
            rows = [[x + h * d * (b == t) for b, x in enumerate(row)]
                    for t, row in enumerate(rows or [[0] * w] * count)]
        blocks.append((rows or ((),) * count, d))
    vectors, den, found = _solved(module, beta, letters, blocks, count,
                                  min(old + count, sum(w for _, w in letters)))
    if any(found[:old]):
        raise RankMismatch(f"the basis of V_(s_{i} w) at content {beta} is dependent in V_w")
    basis = [t for t, f in enumerate(found) if f is None]
    size = len(basis)
    rows = [([int(b == t) for b in basis], 1) if found[t] is None
            else (found[t][0] + [0] * (size - len(found[t][0])), found[t][1])
            for t in range(old, old + count)]
    if any(any(row) for row, _ in rows):
        lower[gamma] = _table(rows)
    if size == old:
        return 0
    start = 0
    for j, w in letters:
        table = module.raising.get((beta, j), (((),) * old, 1))
        rows = [(row, table[1]) for row in table[0]]
        rows += [(vectors[t][start:start + w], den) for t in basis[old:]]
        if any(any(row) for row, _ in rows):
            module.raising[beta, j] = _table(rows)
        start += w
    module.sizes[beta] = size
    return size - old


def _grown(gcm: GeneralizedCartanMatrix, lam: Weight, below: _Module, i: int,
           word_cap: int, word) -> _Module:
    """V_w = C[f_i] V_{s_i w} for a left descent i of w, from below = V_{s_i w}.

    V_w starts as a copy of V_{s_i w}: same contents, same bases, the same
    table objects.  V_w is f_i-stable, so each content grows by one f_i
    step, V_w[beta] = V_{s_i w}[beta] + f_i V_w[beta - e_i], and only the
    contents one step along i from a nonempty content of V_w are visited,
    one height at a time.  ``lower[gamma]`` is f_i on the basis
    of V_w at gamma in the basis of V_w at gamma + e_i; it comes out of the
    elimination at gamma + e_i, is needed only while building and is absent
    where it is zero.  New basis vectors are counted as they are found, and
    TooLarge is raised past word_cap.  V_w is stable under the sl2 of i, so
    each content must have the dimension of its s_i-conjugate (RankMismatch
    otherwise); the same fact skips a content whose conjugate is empty.
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
            added = _extended(lam, i, module, lower, beta)
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


# the module cache: (gcm, lam, lam - w(lam)) -> V_w(lam), weighed by dim V_w; dropping a module
# frees its own dicts, the tables it shares stay alive with the cached modules above it, and
# it is rebuilt when it is next needed
_modules = BoundedCache(CACHE_VECTORS, lambda module: module.dimension)


def _walked(gcm: GeneralizedCartanMatrix, lam: Weight,
            word) -> tuple[RootVector, Weight, Weight]:
    """lam - w(lam) in root coordinates, w(lam) and w(rho), for any word of w.

    One unchecked walk of both weights, ``root_data._walk`` inlined.  Reflecting
    lam down the word telescopes: beta sums the steps of lam, so lam - w(lam)
    is the sum over t of <s_{i_{t+1}} ... s_{i_k}(lam), alpha_{i_t}^vee> alpha_{i_t}.
    A zero step leaves lam and beta as they are and is skipped, as ``root_data._walk``
    skips it; rho is regular, so its steps never vanish and each is taken.
    """
    roots = gcm.roots
    beta = [0] * gcm.n
    mu = list(lam)
    x = [1] * gcm.n
    for i in reversed(word):
        c, d = mu[i], x[i]
        if c:
            beta[i] += c
            for k, a in roots[i]:
                mu[k] -= c * a
                x[k] -= d * a
        else:
            for k, a in roots[i]:
                x[k] -= d * a
    return tuple(beta), tuple(mu), tuple(x)


def weight_below(gcm: GeneralizedCartanMatrix, lam: Weight, beta: RootVector) -> Weight:
    """The weight lam minus the root combination beta, in weight coordinates."""
    return tuple(map(sub, lam, gcm.weight_of_root(beta)))


def _module(gcm: GeneralizedCartanMatrix, lam: Weight, word: tuple[int, ...], word_cap: int,
            content: tuple[RootVector, Weight], perm: tuple[int, ...]) -> _Module:
    """The checked V_w(lam), from the cache or built by Demazure's recursion.

    The arguments are those that ``demazure_subspaces`` and ``twining_core``
    receive validated, with lam - w(lam) and w(lam) from ``_walked``; the word
    only names the module in errors.  V_w(lam) depends only on w W_lam, so its
    content keys the cache.  A miss peels a coordinate i < 0 of w(lam), a left
    descent of the shortest element of w W_lam, down to a cached content or 0,
    then builds back up by V_w = C[f_i] V_{s_i w}.  It takes the smallest
    descent in the tau-orbit of the letter peeled last, else the smallest: in
    one orbit p of a tau-symmetric weight the descents peel exactly w_p, the
    only tau-fixed element of W_p but 1, so the chain passes through the
    tau-stable module of each folded letter, which the chains of a battery's
    other words share.
    With the identity permutation it peels as ``characters.demazure_character``.
    The cap is checked while building and on every call, and so is the extremal
    line: the weight space of V_w at lam - w(lam) is one line of weight w(lam).
    Each module keeps that weight, lam minus its own cache key's content, computed
    once before it enters the cache; every call compares the walk's w(lam) with it.
    """
    beta_w, mu = content
    key = (gcm, lam, beta_w)
    module = _modules.get(key)
    if module is None:
        beta, x, orbit, peeled = list(beta_w), list(mu), (), []
        while (module := _modules.get(key)) is None and any(beta):
            i = min((k for k, c in enumerate(x) if c < 0), key=lambda k: (k not in orbit, k),
                    default=None)
            if i is None:
                raise NoDescentFound(f"no descent at weight {tuple(x)}, content {tuple(beta)}")
            peeled.append((key, i))
            beta[i] += (c := x[i])
            for k, a in gcm.roots[i]:
                x[k] -= c * a
            key = (gcm, lam, tuple(beta))
            orbit = [i]
            while (j := perm[orbit[-1]]) != i:
                orbit.append(j)
        if module is None:
            module = _Module(gcm)
            module.weight = weight_below(gcm, lam, key[2])
            _modules.add(key, module)
        for key, i in reversed(peeled):
            module = _grown(gcm, lam, module, i, word_cap, word)
            module.weight = weight_below(gcm, lam, key[2])
            _modules.add(key, module)
    if module.dimension > word_cap:
        raise TooLarge(f"the Demazure module of {word} at {lam} has more than "
                       f"{word_cap} basis vectors")
    if module.sizes.get(beta_w) != 1:
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam}: content {beta_w} "
                                     f"has dimension {module.sizes.get(beta_w, 0)}, not 1")
    if module.weight != mu:
        raise ExtremalVectorMismatch(f"extremal vector of {word} at {lam} has the wrong weight")
    return module


def _trace(table: Table) -> int:
    rows, den = table
    return exact_quotient(sum(row[k] for k, row in enumerate(rows)), den, "twining trace")


def demazure_subspaces(gcm: GeneralizedCartanMatrix, lam: Weight, word,
                       word_cap: int = DEFAULT_WORD_CAP) -> dict[RootVector, int]:
    """The dimension of each nonzero weight space of V_w(lam), by content, highest first.

    The word may be any word of w, reduced or not: the module is that of
    its element.  The word cap bounds dim V_w(lam), the basis vectors of
    the module (the sum of its multiplicities); over it, TooLarge is
    raised.  Contents are ordered by height, largest first, and ascending
    within a height; the dimensions sum to dim V_w(lam).
    """
    lam = dominant_weight(gcm, lam)
    int_at_least(word_cap, 1, "word cap")
    word = weyl_word(gcm, word)
    module = _module(gcm, lam, word, word_cap, _walked(gcm, lam, word)[:2], tuple(range(gcm.n)))
    return {beta: module.sizes[beta] for beta in sorted(module.sizes, key=lambda b: (-sum(b), b))}


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

    Keeps the mathematical checks on any symmetrizable matrix: a symmetric
    weight, a commuting word, the cap and the extremal line.  One unchecked
    walk of the word gives w(rho) for the commuting check and the content
    and w(lam) for the module.  The character is kept with the module, once
    per permutation.
    """
    if not is_symmetric_weight(lam, perm):
        raise NotSymmetricWeight(f"weight {lam} is not fixed by {perm}")
    beta_w, mu, x = _walked(gcm, lam, word)
    if not is_symmetric_weight(x, perm):
        raise NotInWTilde(f"word {word} does not commute with {perm}")
    int_at_least(word_cap, 1, "word cap")
    module = _module(gcm, lam, word, word_cap, (beta_w, mu), perm)
    poly = module.characters.get(perm)
    if poly is None:
        poly = CharacterPolynomial(gcm.n, [
            (weight_below(gcm, lam, beta), _trace(table))
            for beta, table in module.twist(perm).items() if is_symmetric_weight(beta, perm)])
        module.characters[perm] = poly
    return poly
