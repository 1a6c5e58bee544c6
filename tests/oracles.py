"""Oracles used only by the tests.

The all-words word model: a vector stored by its contravariant-form
pairings against every lowering word of its content, with the Demazure
dynamic programming and the twining trace on those profiles.  It shares
nothing with the library's basis tables but the root data, and its sizes
are multinomial, so only small contents are practical.  The matrix model
of a Weyl element, a product of simple-reflection matrices on weight
coordinates that shares no code with the library's w^-1(rho) vectors.  The
orbits of a permutation with the 0/1 weight-lift matrix they define,
computed without the folding code.  The Freudenthal recursion for the
weight multiplicities of L(lam), with the root coordinates of a weight (by
Cramer's rule over cofactor determinants, which also give the leading
principal minors) and the invariant form on roots that it needs: a third
route to the full character, sharing only the root data with the two
routes under test.
The definition of a Demazure module, U(n+) applied to the extremal line of
w(lam) inside L(lam), as an upward dynamic programming over Fraction
tables of L(lam): the reference for the library's Demazure recursion.
The canonical reduced word of an element and its length, read from the
library's ``fold_word`` on the identity fold.  The Demazure character by
operators applied along that word: the reference for the folded route's
recursion on the extremal weight.
The small matrices, every GCM of rank at most 3 with small entries, and
the battery of every fold of them, counted by the type of the matrix.
The battery families that the tests and the pins run beside the default
battery, the E6 flip, the A2xA2 4-cycle and the affine folds, with the
folded matrix of each family, default ones included.
Two helpers of the tests: a battery or report dict without its ms timing
fields, the bytes that the frozen outputs pin, and four threads run at a
one-microsecond switch interval, for the tests that share a cache.
"""

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from twinchar import harness, weyl
from twinchar.characters import demazure_op
from twinchar.errors import (
    InvalidInput,
    LinkingConditionFailed,
    NotDiagramAutomorphism,
    NotGCM,
    NotSymmetricWeight,
    NotSymmetrizable,
    TooLarge,
)
from twinchar.folding import fold, fold_word
from twinchar.root_data import (
    CharacterPolynomial,
    dominant_weight,
    int_at_least,
    is_symmetric_weight,
    positive_roots,
    validate_gcm,
)

ALL_WORDS_CAP = 100_000


def word_content(n, word):
    counts = [0] * n
    for letter in word:
        if not 0 <= letter < n:
            raise ValueError(f"letter {letter} out of range for rank {n}")
        counts[letter] += 1
    return tuple(counts)


def content_word_count(beta):
    """Number of lowering words with the given content (a multinomial)."""
    total = math.factorial(sum(beta))
    for b in beta:
        total //= math.factorial(b)
    return total


def fwords(beta):
    """All words of one content in ascending lexicographic order."""
    if not any(beta):
        return [()]
    return [(i,) + rest for i, b in enumerate(beta) if b
            for rest in fwords(tuple(c - (k == i) for k, c in enumerate(beta)))]


@lru_cache(maxsize=1 << 16)
def _pair(gcm, lam, w1, w2):
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


def shapovalov_pair(gcm, lam, w1, w2):
    """Contravariant form of two lowering words applied to the highest vector.

    Zero across different contents; otherwise the memoized recursion.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if word_content(gcm.n, w1) != word_content(gcm.n, w2):
        return 0
    return _pair(gcm, tuple(lam), w1, w2)


@dataclass(frozen=True)
class PairingVector:
    """A module vector at content beta, stored as pairings against f-words.

    ``coords`` keeps only the nonzero pairings; absent words pair to zero.
    """

    lam: tuple
    content: tuple
    coords: dict


def highest_weight_vector(gcm, lam):
    return PairingVector(tuple(lam), (0,) * gcm.n, {(): 1})


def f_action(gcm, i, v):
    """Transport the pairing profile one lowering step; content grows by e_i."""
    lam_i = v.lam[i]
    row = gcm.entries[i]
    out = {}
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


def e_action(i, v):
    """Transport the pairing profile one raising step; content drops by e_i."""
    if v.content[i] == 0:
        raise InvalidInput(f"content {v.content} has no letter {i} to raise away")
    out = {u[1:]: value for u, value in v.coords.items() if u[0] == i}
    content = v.content[:i] + (v.content[i] - 1,) + v.content[i + 1:]
    return PairingVector(v.lam, content, out)


def tau_twist(perm, v):
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


def vector_of_word(gcm, lam, word):
    """Pairing profile of f_{w_1} ... f_{w_k} applied to the highest vector."""
    v = highest_weight_vector(gcm, lam)
    for letter in reversed(tuple(word)):
        v = f_action(gcm, letter, v)
    return v


def fraction_echelon(vectors):
    """Reduced row echelon form of the span of dict vectors: {pivot: row}, pivots 1.

    Each pivot is the smallest key of its row and is cleared from every
    other row.
    """
    rows = {}
    for v in vectors:
        v = fraction_reduce(rows, v)
        if v:
            pivot = min(v)
            v = {k: x / v[pivot] for k, x in v.items()}
            for other, row in rows.items():
                if pivot in row:
                    rows[other] = _minus(row, row[pivot], v)
            rows[pivot] = v
    return dict(sorted(rows.items()))


def fraction_reduce(rows, v):
    """v minus its expansion over the echelon rows: empty exactly when v is in the span."""
    v = {k: Fraction(x) for k, x in v.items() if x}
    for pivot, row in rows.items():
        if v.get(pivot):
            v = _minus(v, v[pivot], row)
    return v


def _minus(v, c, row):
    out = dict(v)
    for k, x in row.items():
        out[k] = out.get(k, 0) - c * x
    return {k: x for k, x in out.items() if x}


@dataclass(frozen=True)
class GramSpace:
    """The span of Gram rows of one content, in Fraction echelon form."""

    content: tuple
    rows: dict

    @property
    def dimension(self):
        return len(self.rows)


def weight_space(gcm, lam, beta, word_cap=ALL_WORDS_CAP):
    """Span of the pairing vectors of every word of one content (Gram rows).

    The dimension equals the weight multiplicity of the irreducible module.
    Contents with more than ``word_cap`` words raise TooLarge.
    """
    lam = dominant_weight(gcm, lam)
    int_at_least(word_cap, 1, "word cap")
    count = content_word_count(beta)
    if count > word_cap:
        raise TooLarge(f"content {beta} has {count} words, above the cap {word_cap}")
    words = fwords(beta)
    return GramSpace(tuple(beta), fraction_echelon(
        {w2: _pair(gcm, lam, w1, w2) for w2 in words} for w1 in words))


def all_words_exponents(gcm, lam, word):
    """Lowering exponents along a reduced word, by reflecting lam down the word."""
    mu, exponents = list(lam), []
    for i in reversed(word):
        exponents.append(mu[i])
        mu = [m - mu[i] * row[i] for m, row in zip(mu, gcm.entries)]
    return exponents[::-1]


def all_words_subspaces(gcm, lam, word):
    """Demazure subspaces of the all-words model: {content: GramSpace}, nonzero only."""
    v = highest_weight_vector(gcm, lam)
    for i, m in reversed(list(zip(word, all_words_exponents(gcm, lam, word)))):
        for _ in range(m):
            v = f_action(gcm, i, v)
    spaces = {v.content: GramSpace(v.content, fraction_echelon([v.coords]))}
    layer = [v.content]
    while layer:
        below = sorted({up[:i] + (up[i] - 1,) + up[i + 1:]
                        for up in layer for i in range(gcm.n) if up[i]})
        layer = []
        for beta in below:
            images = [e_action(i, PairingVector(tuple(lam), up.content, row)).coords
                      for i in range(gcm.n)
                      for up in [spaces.get(beta[:i] + (beta[i] + 1,) + beta[i + 1:])] if up
                      for row in up.rows.values()]
            rows = fraction_echelon(images)
            if rows:
                spaces[beta] = GramSpace(beta, rows)
                layer.append(beta)
    return spaces


def all_words_twining_character(gcm, lam, word, perm):
    """The twining character by the all-words model: traces of tau_twist on the subspaces."""
    terms = []
    for beta, space in all_words_subspaces(gcm, lam, word).items():
        if not is_symmetric_weight(beta, perm):
            continue
        trace = Fraction(0)
        for pivot, row in space.rows.items():
            twisted = tau_twist(perm, PairingVector(tuple(lam), beta, row)).coords
            trace += twisted.get(pivot, 0)
            if fraction_reduce(space.rows, twisted):
                raise AssertionError(f"twisted row at {beta} left the subspace")
        weight = tuple(l - sum(row[j] * b for j, b in enumerate(beta))
                       for l, row in zip(lam, gcm.entries))
        if trace.denominator != 1:
            raise AssertionError(f"trace {trace} at {beta} is not an integer")
        if trace:
            terms.append((weight, int(trace)))
    return CharacterPolynomial(gcm.n, terms)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """Product of an (m x k) and a (k x p) matrix of tuples."""
    if len(b) != len(a[0]):
        raise ValueError("matrix shapes do not compose")
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(a, v):
    if len(v) != len(a[0]):
        raise ValueError("matrix/vector size mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def matrix_of(gcm, word):
    """Matrix of w on weight coordinates, so that w(lam) = matrix_of(gcm, word) . lam.

    The product of the simple-reflection matrices of the letters; s_i is the
    identity with column i replaced by e_i - alpha_i.
    """
    n = gcm.n
    m = identity_matrix(n)
    for i in word:
        if not 0 <= i < n:
            raise ValueError(f"letter {i} out of range for rank {n}")
        alpha = gcm.simple_root(i)
        m = mat_mul(m, tuple(tuple((k == l) - (alpha[k] if l == i else 0) for l in range(n))
                             for k in range(n)))
    return m


def orbits_of(perm):
    """The cycles of a permutation as sorted tuples, ordered by smallest member."""
    orbits = []
    for i in range(len(perm)):
        if not any(i in orbit for orbit in orbits):
            orbit, j = {i}, perm[i]
            while j != i:
                orbit.add(j)
                j = perm[j]
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def lift_matrix(data):
    """The n x n_folded weight-lift matrix of folding data: column k indicates orbit k."""
    orbits = orbits_of(data.auto.perm)
    return tuple(tuple(1 if i in orbit else 0 for orbit in orbits) for i in range(data.gcm.n))


def matrix_bfs(gcm, max_length=None):
    """(word, matrix) of every element up to max_length, sorted by (length, word).

    Breadth-first over right multiplication by simple reflections, letters
    in increasing order, so each element keeps its first shortest word.
    Without a cap it terminates only on a finite group.
    """
    found = {identity_matrix(gcm.n): ()}
    frontier = [((), identity_matrix(gcm.n))]
    depth = 0
    while frontier and (max_length is None or depth < max_length):
        depth += 1
        fresh = []
        for word, m in frontier:
            for i in range(gcm.n):
                m2 = mat_mul(m, matrix_of(gcm, (i,)))
                if m2 not in found:
                    found[m2] = word + (i,)
                    fresh.append((word + (i,), m2))
        frontier = fresh
    return sorted(((w, m) for m, w in found.items()), key=lambda t: (len(t[0]), t[0]))


@lru_cache(maxsize=16)
def _identity_fold(gcm):
    return fold(gcm, tuple(range(gcm.n)))


def reduced_word(gcm, word):
    """The canonical reduced word of the element of any word: descent peeling, smallest first."""
    return fold_word(_identity_fold(gcm), word)


def length(gcm, word):
    return len(reduced_word(gcm, word))


def reduced_word_demazure_character(gcm, lam, word):
    """D_{i1} ... D_{ik} e(lam) along the canonical reduced word i1 ... ik of the element."""
    lam = dominant_weight(gcm, lam)
    poly = CharacterPolynomial.monomial(lam)
    for i in reversed(reduced_word(gcm, word)):
        poly = demazure_op(gcm, poly, i)
    return poly


def laplace_determinant(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def leading_principal_minors(m):
    """The determinants of the leading k x k blocks, k = 1 .. n, by cofactor expansion."""
    return [laplace_determinant([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def root_coords(gcm, lam):
    """Inverse of weight_of_root by Cramer's rule; needs det != 0 and an integral result."""
    det = laplace_determinant(gcm.entries)
    if det == 0:
        raise ValueError("Cartan matrix is singular; root coordinates undefined")
    coords = []
    for j in range(gcm.n):
        replaced = tuple(row[:j] + (c,) + row[j + 1:] for row, c in zip(gcm.entries, lam))
        quotient, remainder = divmod(laplace_determinant(replaced), det)
        if remainder:
            raise ValueError(f"weight {lam} is not in the root lattice")
        coords.append(quotient)
    return tuple(coords)


def pairing_root_root(gcm, beta, gamma):
    """(beta, gamma) with (alpha_i, alpha_j) = d_i a_ij."""
    a = gcm.entries
    d = gcm.symmetrizer
    n = gcm.n
    return sum(beta[i] * d[i] * a[i][j] * gamma[j] for i in range(n) for j in range(n))


def is_dominant(mu):
    """Whether every fundamental-weight coordinate of the weight is nonnegative."""
    return all(c >= 0 for c in mu)


def freudenthal_character(gcm, lam):
    """Weight multiplicities of L(lam) by the Freudenthal recursion (finite type).

    The multiplicity of lam - beta comes from those of lam - beta + k alpha
    for every positive root alpha, content by content in the box up to the
    lowest weight.
    """
    lam = dominant_weight(gcm, lam)
    n = gcm.n
    d = gcm.symmetrizer
    lowest = weyl.act(gcm, weyl.longest_element(gcm), lam)
    beta_max = root_coords(gcm, tuple(l - w for l, w in zip(lam, lowest)))
    positives = positive_roots(gcm)

    # (lam, alpha) = sum_j d_j lam_j alpha_j and the rows (alpha_i, alpha), all integers
    lam_dot = {alpha: sum(dj * lj * aj for dj, lj, aj in zip(d, lam, alpha))
               for alpha in positives}
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    root_rows = {alpha: tuple(pairing_root_root(gcm, e, alpha) for e in units)
                 for alpha in positives}

    mult = {(0,) * n: 1}
    box = sorted(product(*(range(b + 1) for b in beta_max)), key=lambda b: (sum(b), b))
    for beta in box:
        if sum(beta) == 0:
            continue
        rhs = 0
        for alpha in positives:
            row = root_rows[alpha]
            k = 1
            while True:
                gamma = tuple(b - k * a for b, a in zip(beta, alpha))
                if any(g < 0 for g in gamma):
                    break
                m = mult.get(gamma, 0)
                if m:
                    rhs += m * (lam_dot[alpha] - sum(g * r for g, r in zip(gamma, row)))
                k += 1
        if rhs == 0:
            continue
        rhs *= 2
        # |lam+rho|^2 - |mu+rho|^2 for mu = lam - beta
        denom = (2 * sum(d[j] * (lam[j] + 1) * beta[j] for j in range(n))
                 - pairing_root_root(gcm, beta, beta))
        if denom <= 0:
            raise ValueError(f"Freudenthal denominator {denom} at {beta}")
        quotient, remainder = divmod(rhs, denom)
        if remainder:
            raise ValueError(f"multiplicity {rhs}/{denom} at {beta} is not an integer")
        mult[beta] = quotient

    terms = [(tuple(l - c for l, c in zip(lam, gcm.weight_of_root(beta))), m)
             for beta, m in mult.items()]
    return CharacterPolynomial(n, terms)


class LTables:
    """L(lam) content by content in Fraction arithmetic, every content below a top.

    Below the top, a vector is its stacked raising images {(j, k): c}, entry k
    of e_j x in the basis of the content minus e_j.  The basis of a content
    is the reduced echelon form of the images of its candidates f_i b (b in
    the basis one letter lower), so the coordinates of any vector of the
    content are its images read at the pivots.  ``images[beta][r]`` are
    the images of basis vector r, ``lower[gamma, i][t]`` the coordinates of
    f_i b_t in the basis of gamma + e_i.
    """

    def __init__(self, gcm, lam):
        self.gcm, self.lam = gcm, tuple(lam)
        top = (0,) * gcm.n
        self.images = {top: [{}]}
        self.pivots = {top: [None]}
        self.lower = {}
        self.twists = {}

    def size(self, beta):
        return len(self.images.get(beta, ()))

    def build(self, top):
        """Build every content componentwise below top, one height at a time."""
        box = sorted(product(*(range(b + 1) for b in top)), key=lambda b: (sum(b), b))
        for beta in box:
            if beta not in self.images:
                self._build(beta)

    def _build(self, beta):
        entries, n = self.gcm.entries, self.gcm.n
        candidates = []   # (i, t, images)
        for i in (i for i in range(n) if beta[i]):
            gamma = _down(beta, i)
            h = self.lam[i] - sum(a * g for a, g in zip(entries[i], gamma))
            for t, b in enumerate(self.images[gamma]):
                image = {}
                for (j, k), c in b.items():   # f_i (e_j b)
                    for m, x in enumerate(self.lower[_down(gamma, j), i][k]):
                        image[j, m] = image.get((j, m), 0) + c * x
                if h:
                    image[i, t] = image.get((i, t), 0) + h
                candidates.append((i, t, {key: x for key, x in image.items() if x}))
        rows = fraction_echelon(image for _, _, image in candidates)
        self.images[beta] = list(rows.values())
        self.pivots[beta] = list(rows)
        for i in (i for i in range(n) if beta[i]):
            self.lower[_down(beta, i), i] = [[image.get(p, 0) for p in rows]
                                             for k, _, image in candidates if k == i]

    def coordinates(self, beta, j, vector):
        """e_j of a coordinate vector at beta, as coordinates at beta - e_j."""
        out = [Fraction(0)] * self.size(_down(beta, j))
        for c, images in zip(vector, self.images[beta]):
            for (l, k), x in images.items():
                if l == j:
                    out[k] += c * x
        return out

    def twist(self, perm, beta):
        """tau on the basis of beta in the basis of tau(beta), tau e_l = e_{perm[l]} tau.

        The coordinate of tau(x) at the pivot (j, k) of tau(beta) is entry k
        of tau(e_l x), j = perm[l]; memoized per (perm, content).
        """
        key = (tuple(perm), beta)
        if key not in self.twists:
            if not any(beta):
                self.twists[key] = [[Fraction(1)]]
            else:
                columns = []
                for j, k in self.pivots[_permuted_content(beta, perm)]:
                    l = perm.index(j)
                    below = self.twist(perm, _down(beta, l))
                    columns.append([sum((x * row[k] for x, row in
                                         zip(self.coordinates(beta, l, unit), below)),
                                        Fraction(0))
                                    for unit in _units(self.size(beta))])
                self.twists[key] = [list(row) for row in zip(*columns)]
        return self.twists[key]


def _down(beta, j):
    return beta[:j] + (beta[j] - 1,) + beta[j + 1:]


def _units(size):
    return [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]


def _permuted_content(beta, perm):
    out = [0] * len(beta)
    for letter, b in enumerate(beta):
        out[perm[letter]] = b
    return tuple(out)


@lru_cache(maxsize=16)
def l_tables(gcm, lam):
    return LTables(gcm, tuple(lam))


def upward_subspaces(gcm, lam, word):
    """The Demazure module U(n+) v_{w(lam)} inside L(lam): {content: echelon rows}.

    The extremal content lam - w(lam) is one line of L(lam); each content
    below it is the span of the raising images of the contents one simple
    root above.  Rows are Fraction coordinate lists in the basis of
    ``l_tables(gcm, lam)``, reduced with pivots 1 (``fraction_echelon``).
    """
    lam = dominant_weight(gcm, lam)
    lowest = mat_vec(matrix_of(gcm, word), lam)
    top = root_coords(gcm, tuple(l - m for l, m in zip(lam, lowest)))
    tables = l_tables(gcm, lam)
    tables.build(top)
    if tables.size(top) != 1:
        raise AssertionError(f"extremal content {top} has dimension {tables.size(top)}")
    spaces = {top: {0: {0: Fraction(1)}}}
    layer = [top]
    while layer:
        below = sorted({_down(up, j) for up in layer for j in range(gcm.n) if up[j]})
        layer = []
        for beta in below:
            images = []
            for j in range(gcm.n):
                up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                for row in spaces.get(up, {}).values():
                    vector = [row.get(k, 0) for k in range(tables.size(up))]
                    images.append(dict(enumerate(tables.coordinates(up, j, vector))))
            rows = fraction_echelon(images)
            if rows:
                spaces[beta] = rows
                layer.append(beta)
    return spaces


def upward_traces(gcm, lam, word, perm):
    """{content: trace of the L(lam) twist on the upward Demazure module} over fixed contents."""
    tables = l_tables(gcm, dominant_weight(gcm, lam))
    traces = {}
    for beta, rows in upward_subspaces(gcm, lam, word).items():
        if _permuted_content(beta, perm) != beta:
            continue
        twist = tables.twist(perm, beta)
        trace = Fraction(0)
        for pivot, row in rows.items():
            twisted = {k: sum((row.get(r, 0) * twist[r][k] for r in range(len(twist))),
                              Fraction(0)) for k in range(len(twist))}
            trace += twisted[pivot]
            if fraction_reduce(rows, twisted):
                raise AssertionError(f"twisted row at {beta} left the subspace")
        if trace.denominator != 1:
            raise AssertionError(f"trace {trace} at {beta} is not an integer")
        traces[beta] = int(trace)
    return traces


def upward_twining_character(gcm, lam, word, perm):
    """The twining character of the upward Demazure module, from ``upward_traces``."""
    return CharacterPolynomial(gcm.n, [
        (tuple(l - c for l, c in zip(lam, gcm.weight_of_root(beta))), trace)
        for beta, trace in upward_traces(gcm, lam, word, perm).items()])


def small_gcms():
    """Every GCM of rank at most 3 with off-diagonal entries in {0, -1, -2, -3}."""
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for values in product((0, -1, -2, -3), repeat=len(cells)):
            entries = [[2] * n for _ in range(n)]
            for (i, j), value in zip(cells, values):
                entries[i][j] = value
            try:
                yield validate_gcm(entries)
            except (NotGCM, NotSymmetrizable):
                pass


def small_fold_counts(max_word_len):
    """The lambda-box 1 battery of every fold of a small GCM by a non-identity automorphism.

    Returns, per type of the matrix ("finite", else "singular" or
    "indefinite" by its determinant), the folds and the battery's summed
    counts, as {"folds", "equal", "unequal", "skipped"}.
    """
    out = {}
    for gcm in small_gcms():
        for perm in permutations(range(gcm.n)):
            if perm == tuple(range(gcm.n)):
                continue
            kind = ("finite" if gcm.finite else
                    "singular" if laplace_determinant(gcm.entries) == 0 else "indefinite")
            family = harness.BatteryFamily(kind, gcm.entries, perm, ())
            config = harness.BatteryConfig(families=(family,), lambda_box=1,
                                           max_word_len=max_word_len)
            try:
                counts = harness.run_battery(config).counts
            except (NotDiagramAutomorphism, LinkingConditionFailed):
                continue   # the permutation is no automorphism, or the fold fails
            total = out.setdefault(kind, dict.fromkeys(("folds", "equal", "unequal", "skipped"), 0))
            total["folds"] += 1
            for status, count in counts.items():
                total[status] += count
    return out


# the folded matrix of each fold that the tests pin, by family name: the default battery's,
# the E6 flip's (F4) and the affine folds', each twisted affine
FOLDED = {
    "A2-flip": ((2,),),
    "A3-flip": ((2, -1), (-2, 2)),
    # a mixed orbit puts its scale on the column orbit, so this is the transpose of the
    # equal-scale reading
    "A4-flip": ((2, -2), (-1, 2)),
    "D4-triality": ((2, -1), (-3, 2)),
    "D4-swap": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "E6-flip": ((2, 0, -1, 0), (0, 2, 0, -1), (-1, 0, 2, -1), (0, -1, -2, 2)),
    "A2^(1)": ((2, -4), (-1, 2)),   # A2^(2)
    "C2^(1)": ((2, -1), (-4, 2)),
    "A3^(1)": ((2, -2, 0), (-1, 2, -1), (0, -2, 2)),
    "D4^(1)": ((2, -1, 0, 0), (-2, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "B3^(1)": ((2, -1, 0), (-2, 2, -1), (0, -2, 2)),
}

E6_FLIP = harness.BatteryFamily("E6-flip", "E6", (5, 1, 4, 3, 2, 0), ())

# one orbit of row sum 1, which folds to A1
A2XA2_CYCLE = harness.BatteryFamily(
    "A2xA2-cycle", ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)), (2, 3, 1, 0), ())

# affine families by their matrices (determinant 0, proper leading minors positive)
AFFINE_FAMILIES = {family.name: family for family in (
    harness.BatteryFamily("A1^(1)", ((2, -2), (-2, 2)), (0, 1), ()),
    harness.BatteryFamily("A2^(1)", ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (0, 2, 1), ()),
    harness.BatteryFamily("C2^(1)", ((2, -1, 0), (-2, 2, -2), (0, -1, 2)), (2, 1, 0), ()),
    harness.BatteryFamily("A3^(1)", ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1),
                                     (-1, 0, -1, 2)), (0, 3, 2, 1), ()),
    harness.BatteryFamily("D4^(1)", ((2, 0, -1, 0, 0), (0, 2, -1, 0, 0), (-1, -1, 2, -1, -1),
                                     (0, 0, -1, 2, 0), (0, 0, -1, 0, 2)), (1, 0, 2, 3, 4), ()),
    harness.BatteryFamily("B3^(1)", ((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1),
                                     (0, 0, -2, 2)), (1, 0, 2, 3), ()),
)}

# a finite block beside an affine one, of infinite type: the walk up from rho reaches the
# longest element of the A2 block, then ascends in the A1^(1) block without end
A2_PLUS_AFFINE_A1 = ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2))

# the identity automorphism on each affine matrix and on the twisted A2^(2) that A2^(1)
# folds to: the twining character is then the full character, so every content of the
# module, not only the tau-fixed ones, meets the Demazure operators of the same matrix
AFFINE_FAMILIES.update({
    f"{name} identity": harness.BatteryFamily(f"{name} identity", gcm, tuple(range(len(gcm))), ())
    for name, gcm in [*((family.name, family.gcm) for family in AFFINE_FAMILIES.values()),
                      ("A2^(2)", FOLDED["A2^(1)"])]})


def without_ms(data):
    """The battery or report dict, changed in place to drop its ms timing fields.

    A report drops its own.  A battery drops those of its records and of the
    reports of its unequal records; a skipped record has none.  A field that
    should be there and is not raises KeyError, so a lost field fails a pin.
    """
    if "records" not in data:
        del data["ms"]
    for record in data.get("records", []):
        if record["status"] != "skipped":
            del record["ms"]
        if "report" in record:
            del record["report"]["ms"]
    return data


def stress_threads(work):
    """Run work(k) for k in 0..3 on four threads at a one-microsecond switch interval.

    Raises AssertionError unless each thread ended within two minutes and
    none raised; an ``assert`` here would vanish under ``python -O``.
    """
    failures = []

    def run(k):
        try:
            work(k)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    if any(thread.is_alive() for thread in threads):
        raise AssertionError("a thread did not end within two minutes")
    if failures:
        raise AssertionError(f"the threads raised {failures!r}")
