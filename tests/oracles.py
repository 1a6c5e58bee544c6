"""Oracles used only by the tests.

Word-model contents, the form and word profiles; the matrix model of a
Weyl element, a product of simple-reflection matrices on weight
coordinates that shares no code with the library's w^-1(rho) vectors; and
the orbits of a permutation with the 0/1 weight-lift matrix they define,
computed without the folding code.
"""

from twinchar.word_model import _pair, f_action, highest_weight_vector


def word_content(n, word):
    counts = [0] * n
    for letter in word:
        if not 0 <= letter < n:
            raise ValueError(f"letter {letter} out of range for rank {n}")
        counts[letter] += 1
    return tuple(counts)


def shapovalov_pair(gcm, lam, w1, w2):
    """Contravariant form of two lowering words applied to the highest vector.

    Zero across different contents; otherwise the memoized recursion of the
    word model.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if word_content(gcm.n, w1) != word_content(gcm.n, w2):
        return 0
    return _pair(gcm, tuple(lam), w1, w2)


def vector_of_word(gcm, lam, word):
    """Pairing profile of f_{w_1} ... f_{w_k} applied to the highest vector."""
    v = highest_weight_vector(gcm, lam)
    for letter in reversed(tuple(word)):
        v = f_action(gcm, letter, v)
    return v


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
