"""Diagram automorphisms and folding to the orbit Cartan matrix.

``fold(gcm, perm)`` validates the permutation once and returns one flat
record: the orbits of the automorphism and their row sums, the folded
matrix (one row/column per orbit, scaled by 2 over the orbit row sum),
the weight lift as the map node -> orbit index (the lift matrix has the
orbit indicators as columns), and one Weyl word per orbit (the longest
element of the parabolic subgroup on that orbit).  The linking
condition, every orbit row sum s in {1, 2}, fixes the rest: s = 2 leaves
no edge inside the orbit; s = 1 gives each node exactly one orbit
neighbour, with entry -1 both ways (row sums are constant on an orbit and
the zero pattern is symmetric), so the orbit splits into A2 pairs; and
the scale 2 / s is an integer.  The folded matrix must be a valid GCM and
the lift must intertwine every folded simple reflection with its orbit
word, so a wrong convention cannot survive construction.

Both records here, ``DiagramAutomorphism`` and ``FoldingData``, are
NamedTuples, changed with ``_replace``.  ``fold_word`` reads commutation
off the vector w^-1(rho) of ``weyl``, as ``weyl.is_in_w_tilde`` does.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from . import weyl
from .errors import (
    InvalidInput,
    LinkingConditionFailed,
    NoDescentFound,
    NotInWTilde,
    NotIntertwining,
    NotSymmetricWeight,
)
from .root_data import (
    GeneralizedCartanMatrix,
    Weight,
    _walk,
    diagram_permutation,
    int_tuple,
    is_symmetric_weight,
    validate_gcm,
    weyl_word,
)

Word = tuple[int, ...]


class DiagramAutomorphism(NamedTuple):
    perm: tuple[int, ...]
    order: int


class FoldingData(NamedTuple):
    gcm: GeneralizedCartanMatrix
    auto: DiagramAutomorphism
    orbits: tuple[tuple[int, ...], ...]    # sorted, ordered by smallest member
    row_sums: tuple[int, ...]              # s value per orbit (any representative)
    folded: GeneralizedCartanMatrix
    orbit_words: tuple[Word, ...]          # one unfolded Weyl word per folded node
    node_orbit: tuple[int, ...]            # node -> orbit index: the weight lift

    @property
    def n_folded(self) -> int:
        return len(self.orbits)


def fold(gcm: GeneralizedCartanMatrix, perm) -> FoldingData:
    """Fold along a diagram automorphism satisfying the linking condition.

    The permutation is validated here, so the returned data carries the
    automorphism.  The linking condition is checked orbit by orbit, in
    orbit order, and is stated nowhere else.  Folded entry (k, l) is the
    scale 2 / s_l times the sum over orbit l of row rep(k).  The scale sits
    on the column orbit: simple roots are columns of the matrix everywhere
    in this package, and only the column scaling lets the orbit-indicator
    lift intertwine the folded reflections with the orbit words (the
    construction checks exactly that).  Orbit words follow from the row
    sum: the sorted orbit for s = 2; p, q, p for each pair p < q with
    a[p][q] != 0, in increasing p, for s = 1.
    """
    perm = diagram_permutation(gcm, perm)
    entries = gcm.entries
    n = gcm.n
    node_orbit = [-1] * n
    orbits = []
    for i in range(n):
        if node_orbit[i] < 0:
            orbit = [i]
            while perm[orbit[-1]] != i:
                orbit.append(perm[orbit[-1]])
            for j in orbit:
                node_orbit[j] = len(orbits)
            orbits.append(tuple(sorted(orbit)))
    n_folded = len(orbits)

    # perm permutes each orbit and preserves a, so every representative gives the same sum
    row_sums = tuple(sum(entries[orbit[0]][j] for j in orbit) for orbit in orbits)
    for orbit, s in zip(orbits, row_sums):
        if s not in (1, 2):
            raise LinkingConditionFailed(f"orbit {orbit} has row sum {s}; folding needs 1 or 2")

    # representative-independent for the same reason as the row sums
    folded = validate_gcm(tuple(
        tuple((2 // s) * sum(entries[orbit_k[0]][j] for j in orbit_l)
              for orbit_l, s in zip(orbits, row_sums))
        for orbit_k in orbits))

    words = tuple(orbit if s == 2 else
                  tuple(x for p in orbit for q in orbit if p < q and entries[p][q]
                        for x in (p, q, p))
                  for orbit, s in zip(orbits, row_sums))

    auto = DiagramAutomorphism(perm, math.lcm(*(len(orbit) for orbit in orbits)))
    data = FoldingData(gcm, auto, tuple(orbits), row_sums, folded, words, tuple(node_orbit))

    # w_k . lift == lift . s_k, checked column by column on the folded fundamental weights
    for k in range(n_folded):
        if not weyl.is_in_w_tilde(gcm, words[k], auto.perm):
            raise NotIntertwining(f"orbit word {words[k]} does not commute with the automorphism")
        for l in range(n_folded):
            omega = tuple(1 if j == l else 0 for j in range(n_folded))
            lhs = weyl.act(gcm, words[k], unfold_weight(data, omega))
            if lhs != unfold_weight(data, weyl.act(folded, (k,), omega)):
                raise NotIntertwining(f"weight lift fails to intertwine folded reflection {k}")
    return data


def unfold_weight(data: FoldingData, mu_hat: Weight) -> Weight:
    """Lift an integral folded weight to the symmetric weight constant on each orbit."""
    mu_hat = int_tuple(mu_hat, "folded weight")
    if len(mu_hat) != len(data.orbits):
        raise InvalidInput(f"folded weight {mu_hat} has wrong size {len(mu_hat)}")
    return tuple(map(mu_hat.__getitem__, data.node_orbit))


def fold_weight(data: FoldingData, lam: Weight) -> Weight:
    """Inverse of unfold_weight; defined only on symmetric integral weights."""
    lam = int_tuple(lam, "weight")
    if len(lam) != data.gcm.n:
        raise InvalidInput(f"weight {lam} has wrong size {len(lam)}")
    if not is_symmetric_weight(lam, data.auto.perm):
        raise NotSymmetricWeight(f"weight {lam} is not constant on orbits {data.orbits}")
    return tuple(lam[orbit[0]] for orbit in data.orbits)


def unfold_word(data: FoldingData, word_hat: Word) -> Word:
    """Expand a folded word letterwise through the per-orbit Weyl words."""
    word_hat = weyl_word(data.folded, word_hat)
    return tuple(chain.from_iterable(map(data.orbit_words.__getitem__, word_hat)))


def fold_word(data: FoldingData, word: Word) -> Word:
    """Inverse of unfold_word on commuting elements, by descent peeling.

    The vector x = w^-1(rho) of a commuting element is symmetric, and its
    folded part is the vector of the folded element (the lift sends the
    folded rho to rho and intertwines the reflections), so the folded word
    is peeled on the folded side.  The result is checked to re-expand to
    the same element.
    """
    gcm = data.gcm
    word = weyl_word(gcm, word)
    x = _walk(gcm, word, list(gcm.rho()))
    if not is_symmetric_weight(x, data.auto.perm):
        raise NotInWTilde(f"word {word} does not commute with the automorphism")
    x_hat = tuple(x[orbit[0]] for orbit in data.orbits)
    result = weyl._word_of_rho_vector(data.folded, x_hat)
    if _walk(gcm, unfold_word(data, result), list(gcm.rho())) != x:
        raise NoDescentFound("descent peeling did not invert the word expansion; "
                             "folding data is inconsistent")
    return result
