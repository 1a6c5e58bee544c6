"""Diagram automorphisms, orbit data and folding to the orbit Cartan matrix.

``fold(gcm, perm)`` validates the permutation once and produces three
things: the folded matrix (one row/column per orbit, scaled by 2 over the
orbit row sum), the weight-lift matrix whose columns are orbit indicators,
and one Weyl word per orbit (the longest element of the parabolic subgroup
on that orbit).  All three conventions are checked at construction: the
folded matrix must be a valid GCM and the lift must intertwine every
folded simple reflection with its unfolded image, so a wrong convention
cannot survive construction silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import weyl
from .errors import (
    InvalidInput,
    LinkingConditionFailed,
    NoDescentFound,
    NotDiagramAutomorphism,
    NotInWTilde,
    NotSymmetricWeight,
    UnsupportedOrbitShape,
)
from .root_data import (
    GeneralizedCartanMatrix,
    IntMatrix,
    Weight,
    int_tuple,
    is_symmetric_weight,
    validate_gcm,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
class DiagramAutomorphism:
    perm: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class OrbitData:
    orbits: tuple[tuple[int, ...], ...]   # sorted, ordered by smallest member
    row_sums: tuple[int, ...]             # s value per orbit (any representative)

    def representative(self, k: int) -> int:
        return self.orbits[k][0]

    def scale(self, k: int) -> Fraction:
        s = self.row_sums[k]
        if s == 0:
            raise LinkingConditionFailed(f"orbit {self.orbits[k]} has row sum 0")
        return Fraction(2, s)


def validate_automorphism(gcm: GeneralizedCartanMatrix,
                          perm) -> tuple[DiagramAutomorphism, OrbitData]:
    """Check that perm preserves the Cartan matrix; compute orbits and row sums."""
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

    order = 1
    q = perm
    ident = tuple(range(n))
    while q != ident:
        q = tuple(perm[x] for x in q)
        order += 1

    seen = [False] * n
    orbits = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = perm[j]
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=min)

    # perm permutes each orbit and preserves a, so every representative gives the same sum
    row_sums = tuple(sum(a[orbit[0]][j] for j in orbit) for orbit in orbits)
    return DiagramAutomorphism(perm, order), OrbitData(tuple(orbits), row_sums)


def _orbit_components(entries: IntMatrix, orbit: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Connected components of the subdiagram induced on one orbit.

    Raises UnsupportedOrbitShape unless every component is a single node or
    a single simply-laced edge.
    """
    members = list(orbit)
    adjacency = {i: [j for j in members if j != i and entries[i][j] != 0] for i in members}
    components = []
    unvisited = set(members)
    while unvisited:
        start = min(unvisited)
        stack = [start]
        comp = set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(y for y in adjacency[x] if y not in comp)
        unvisited -= comp
        comp = tuple(sorted(comp))
        if len(comp) > 2:
            raise UnsupportedOrbitShape(
                f"orbit {orbit} induces a component {comp} with more than two nodes")
        if len(comp) == 2:
            p, q = comp
            if entries[p][q] * entries[q][p] != 1:
                raise UnsupportedOrbitShape(
                    f"orbit {orbit} induces a non-simply-laced edge {comp}")
        components.append(comp)
    components.sort(key=min)
    return components


@dataclass(frozen=True)
class FoldingData:
    gcm: GeneralizedCartanMatrix
    auto: DiagramAutomorphism
    orbit_data: OrbitData
    folded: GeneralizedCartanMatrix
    weight_lift: IntMatrix                 # n x n_folded, columns are orbit indicators
    orbit_words: tuple[Word, ...]          # one unfolded Weyl word per folded node
    node_orbit: tuple[int, ...]            # node -> orbit index

    @property
    def n_folded(self) -> int:
        return len(self.orbit_data.orbits)


def fold(gcm: GeneralizedCartanMatrix, perm) -> FoldingData:
    """Fold along a diagram automorphism satisfying the linking condition.

    The permutation is validated here (``validate_automorphism``), so the
    returned data carries the automorphism and its orbit data.  Folded
    entry (k, l) is (2 / s_l) * sum over orbit l of row rep(k).  The scale
    must sit on the column orbit: simple roots are columns of the matrix
    everywhere in this package, and only the column scaling lets the
    orbit-indicator lift intertwine the folded reflections with the
    per-orbit longest elements (the construction asserts exactly that).
    The result must be a valid symmetrizable GCM.
    """
    auto, orbit_data = validate_automorphism(gcm, perm)
    orbits = orbit_data.orbits
    entries = gcm.entries
    n = gcm.n
    n_folded = len(orbits)

    components = []
    for k, orbit in enumerate(orbits):
        s = orbit_data.row_sums[k]
        if s not in (1, 2):
            raise LinkingConditionFailed(
                f"orbit {orbit} has row sum {s}; folding needs 1 or 2")
        components.append(_orbit_components(entries, orbit))

    folded_rows = []
    for k, orbit_k in enumerate(orbits):
        row = []
        for l, orbit_l in enumerate(orbits):
            s = orbit_data.row_sums[l]
            # representative-independent for the same reason as the row sums
            value, remainder = divmod(2 * sum(entries[orbit_k[0]][j] for j in orbit_l), s)
            if remainder:
                raise LinkingConditionFailed(
                    f"folded entry for orbits {orbit_k}, {orbit_l} is not an integer")
            row.append(value)
        folded_rows.append(tuple(row))
    folded = validate_gcm(tuple(folded_rows))

    node_orbit = [0] * n
    for k, orbit in enumerate(orbits):
        for i in orbit:
            node_orbit[i] = k
    lift = tuple(tuple(1 if node_orbit[i] == k else 0 for k in range(n_folded))
                 for i in range(n))

    words = []
    for comps in components:
        word: list[int] = []
        for comp in comps:
            if len(comp) == 1:
                word.append(comp[0])
            else:
                p, q = comp
                word.extend((p, q, p))
        words.append(tuple(word))
    words = tuple(words)

    data = FoldingData(gcm, auto, orbit_data, folded, lift, words, tuple(node_orbit))

    # w_k . lift == lift . s_k, checked column by column on the folded fundamental weights
    for k in range(n_folded):
        assert weyl.is_in_w_tilde(gcm, words[k], auto.perm), \
            f"orbit word {words[k]} does not commute with the automorphism"
        for l in range(n_folded):
            omega = tuple(1 if j == l else 0 for j in range(n_folded))
            lhs = weyl.act(gcm, words[k], unfold_weight(data, omega))
            rhs = unfold_weight(data, folded.reflect(omega, k))
            assert lhs == rhs, f"weight lift fails to intertwine folded reflection {k}"
    return data


def unfold_weight(data: FoldingData, mu_hat: Weight) -> Weight:
    """Lift a folded weight to the symmetric weight constant on each orbit."""
    if len(mu_hat) != data.n_folded:
        raise InvalidInput(f"folded weight {mu_hat} has wrong size {len(mu_hat)}")
    return tuple(mu_hat[data.node_orbit[i]] for i in range(data.gcm.n))


def fold_weight(data: FoldingData, lam: Weight) -> Weight:
    """Inverse of unfold_weight; defined only on symmetric weights."""
    if len(lam) != data.gcm.n:
        raise InvalidInput(f"weight {lam} has wrong size {len(lam)}")
    if not is_symmetric_weight(lam, data.auto.perm):
        raise NotSymmetricWeight(f"weight {lam} is not constant on orbits {data.orbit_data.orbits}")
    return tuple(lam[orbit[0]] for orbit in data.orbit_data.orbits)


def unfold_word(data: FoldingData, word_hat: Word) -> Word:
    """Expand a folded word letterwise through the per-orbit Weyl words."""
    out: list[int] = []
    for k in word_hat:
        if not 0 <= k < data.n_folded:
            raise InvalidInput(f"folded letter {k} out of range")
        out.extend(data.orbit_words[k])
    return tuple(out)


def fold_word(data: FoldingData, word: Word) -> Word:
    """Inverse of unfold_word on commuting elements, by descent peeling.

    The vector x = w^-1(rho) of a commuting element is symmetric, and its
    folded part is the vector of the folded element (the lift sends the
    folded rho to rho and intertwines the reflections), so the folded word
    is peeled on the folded side.  The result is checked to re-expand to
    the same element.
    """
    gcm = data.gcm
    x = weyl.rho_vector(gcm, word)
    if not is_symmetric_weight(x, data.auto.perm):
        raise NotInWTilde(f"word {word} does not commute with the automorphism")
    x_hat = tuple(x[orbit[0]] for orbit in data.orbit_data.orbits)
    result = weyl.word_of_rho_vector(data.folded, x_hat)
    if weyl.rho_vector(gcm, unfold_word(data, result)) != x:
        raise NoDescentFound("descent peeling did not invert the word expansion; "
                             "folding data is inconsistent")
    return result
