"""Orbit data, the folded matrix, the weight lift and the word expansion."""

import os
import pickle
import subprocess
import sys
from itertools import permutations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinchar import harness, word_model
from twinchar.errors import (
    LinkingConditionFailed,
    NotDiagramAutomorphism,
    NotInWTilde,
    NotSymmetricWeight,
)
from twinchar.folding import (
    fold,
    fold_weight,
    fold_word,
    is_symmetric_weight,
    unfold_weight,
    unfold_word,
)
from twinchar.root_data import (
    GeneralizedCartanMatrix,
    cartan_matrix,
    diagram_permutation,
    validate_gcm,
    weight_box,
)
from twinchar.weyl import (
    act,
    element_of,
    enumerate_weyl,
    is_in_w_tilde,
)

from oracles import (
    AFFINE_FAMILIES,
    E6_FLIP,
    FOLDED,
    is_dominant,
    leading_principal_minors,
    length,
    lift_matrix,
    mat_mul,
    matrix_of,
    orbits_of,
    small_gcms,
)

BATTERY = [(family.gcm, family.automorphism) for family in harness.default_families()]


def folded(label, perm):
    return fold(cartan_matrix(label), perm)


def test_orbit_data_examples():
    data = folded("A3", (2, 1, 0))
    assert data.orbits == ((0, 2), (1,))
    assert data.row_sums == (2, 2)
    assert data.node_orbit == (0, 1, 0)
    data2 = folded("A2", (1, 0))
    assert data2.orbits == ((0, 1),)
    assert data2.row_sums == (1,)
    assert data2.node_orbit == (0, 0)


def test_non_automorphism_rejected():
    b2 = cartan_matrix("B2")
    with pytest.raises(NotDiagramAutomorphism):
        fold(b2, (1, 0))
    with pytest.raises(NotDiagramAutomorphism):
        fold(cartan_matrix("A2"), (0, 0))


def test_automorphism_orders():
    assert folded("A3", (2, 1, 0)).auto.order == 2
    assert folded("D4", (2, 1, 3, 0)).auto.order == 3


def test_folded_matrices_frozen():
    # the default battery, the E6 flip, which folds to F4, and the affine folds, which
    # give twisted affine matrices
    families = {family.name: family
                for family in (*harness.default_families(), E6_FLIP, *AFFINE_FAMILIES.values())}
    for name, entries in FOLDED.items():
        family = families[name]
        assert fold(harness.build_gcm(family.gcm), family.automorphism).folded.entries == entries


def test_linking_condition_failure():
    # cyclic rotation of the affine 3-cycle: orbit row sum 0
    affine = validate_gcm(AFFINE_FAMILIES["A2^(1)"].gcm)
    with pytest.raises(LinkingConditionFailed, match=r"orbit \(0, 1, 2\) has row sum 0;"):
        fold(affine, (1, 2, 0))
    doubled = validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm)
    with pytest.raises(LinkingConditionFailed):
        fold(doubled, (1, 0))


SMALL_GCMS = list(small_gcms())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_GCMS + [cartan_matrix(label) for label in ("D4", "E6", "G2")]
                       + [folded(label, perm).folded for label, perm in BATTERY]))
def test_matrix_derived_fields(gcm):
    # computed once at construction, and no part of equality, hashing or pickling
    entries, n = gcm.entries, len(gcm.entries)
    assert gcm.n == n
    assert gcm.finite == all(m > 0 for m in leading_principal_minors(entries))
    assert gcm.roots == tuple(tuple((k, a) for k, a in enumerate(gcm.simple_root(i)) if a)
                              for i in range(n))
    assert gcm.coroots == tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in entries)
    rebuilt = GeneralizedCartanMatrix(entries, gcm.symmetrizer)
    assert rebuilt == gcm and hash(rebuilt) == hash(gcm) == hash((entries, gcm.symmetrizer))
    for name, value in (("finite", not gcm.finite), ("roots", ()), ("coroots", ()),
                        ("_hash", 0)):
        object.__setattr__(rebuilt, name, value)
    assert rebuilt == gcm
    assert GeneralizedCartanMatrix(entries, tuple(2 * d for d in gcm.symmetrizer)) != gcm
    restored = pickle.loads(pickle.dumps(gcm))
    assert restored == gcm and hash(restored) == hash(gcm)
    assert (restored.n, restored.finite, restored.roots, restored.coroots) == (
        n, gcm.finite, gcm.roots, gcm.coroots)


# the small matrices of finite type and the singular ones
WALKED_GCMS = [gcm for gcm in SMALL_GCMS
               if gcm.finite or leading_principal_minors(gcm.entries)[-1] == 0]


@st.composite
def walks(draw):
    """A matrix, a dominant weight that may have zero coordinates, a word and a root vector."""
    gcm = draw(st.sampled_from(WALKED_GCMS))
    lam = tuple(draw(st.lists(st.integers(0, 2), min_size=gcm.n, max_size=gcm.n)))
    word = tuple(draw(st.lists(st.integers(0, gcm.n - 1), max_size=6)))
    beta = tuple(draw(st.lists(st.integers(-3, 3), min_size=gcm.n, max_size=gcm.n)))
    return gcm, lam, word, beta


@settings(max_examples=300, deadline=None)
@given(walks())
@example((cartan_matrix("A2"), (0, 1), (0,), (1, 0)))
@example((validate_gcm([[2, -1], [-4, 2]]), (1, 0), (0, 1, 0), (1, 2)))
def test_weight_of_root_and_walk_read_rows(case):
    # weight_of_root sums row k of the matrix over the sparse coroot table; the walk
    # skips the zero steps of lam but takes every step of rho, and the weight
    # below its content, read by rows, is the w(lam) that the walk reached
    gcm, lam, word, beta = case
    assert gcm.weight_of_root(beta) == tuple(sum(map(mul, row, beta)) for row in gcm.entries)
    beta_w, mu, x = word_model._walked(gcm, lam, word)
    assert mu == act(gcm, word, lam)
    assert x == act(gcm, word, gcm.rho())
    assert word_model.weight_below(gcm, lam, beta_w) == mu


def test_orbit_words_are_parabolic_longest_elements():
    """Oracle for fold's row-sum rule over every small GCM and automorphism.

    fold fails exactly when an orbit row sum is outside {1, 2}.  Otherwise
    each orbit word is a reduced word in its orbit's letters whose right
    descents are the whole orbit, which defines the longest element of the
    parabolic subgroup, and every representative gives each folded entry.
    """
    cases = [(gcm, perm) for gcm in small_gcms() for perm in permutations(range(gcm.n))]
    cases += [(cartan_matrix(label), perm) for label, perm in [
        ("A4", (3, 2, 1, 0)), ("D4", (2, 1, 3, 0)), ("D4", (0, 1, 3, 2)),
        ("A5", (4, 3, 2, 1, 0)), ("D5", (0, 1, 2, 4, 3))]]
    outcomes = {"folded": 0, "linking failed": 0}
    for gcm, perm in cases:
        try:
            diagram_permutation(gcm, perm)
        except NotDiagramAutomorphism:
            continue
        a = gcm.entries
        orbits = orbits_of(perm)
        if any(sum(a[i][j] for j in orbit) not in (1, 2)
               for orbit in orbits for i in orbit):
            with pytest.raises(LinkingConditionFailed):
                fold(gcm, perm)
            outcomes["linking failed"] += 1
            continue
        data = fold(gcm, perm)
        outcomes["folded"] += 1
        assert data.orbits == orbits, (a, perm)
        for k, (orbit, word) in enumerate(zip(orbits, data.orbit_words)):
            assert set(word) <= set(orbit), (a, perm, word)
            # the length in the parabolic subgroup, a finite Weyl group, is the length in W
            local = validate_gcm([[a[i][j] for j in orbit] for i in orbit])
            assert length(local, tuple(orbit.index(i) for i in word)) == len(word)
            x = element_of(gcm, word)
            assert {i for i, c in enumerate(x) if c < 0} == set(orbit), (a, perm, word)
            for l, orbit_l in enumerate(orbits):
                scale = 2 // sum(a[orbit_l[0]][j] for j in orbit_l)
                for i in orbit:
                    assert data.folded.entries[k][l] == scale * sum(a[i][j] for j in orbit_l)
    assert outcomes["folded"] > 400 and outcomes["linking failed"] > 50, outcomes


def test_weight_lift_and_restriction():
    data = folded("A3", (2, 1, 0))
    assert unfold_weight(data, (1, 0)) == (1, 0, 1)
    assert fold_weight(data, (1, 0, 1)) == (1, 0)
    with pytest.raises(NotSymmetricWeight):
        fold_weight(data, (1, 1, 0))
    assert is_symmetric_weight((2, 2), (1, 0))
    assert not is_symmetric_weight((2, 1), (1, 0))


def test_orbit_word_table():
    assert folded("A2", (1, 0)).orbit_words == ((0, 1, 0),)
    assert folded("A3", (2, 1, 0)).orbit_words == ((0, 2), (1,))
    assert folded("D4", (2, 1, 3, 0)).orbit_words == ((0, 2, 3), (1,))
    assert folded("A4", (3, 2, 1, 0)).orbit_words == ((0, 3), (1, 2, 1))


def test_unfold_word_concatenates():
    data = folded("A3", (2, 1, 0))
    assert unfold_word(data, (0,)) == (0, 2)
    assert unfold_word(data, (1, 0)) == (1, 0, 2)
    assert unfold_word(data, ()) == ()


def test_representative_independence_of_folded_entries():
    for label, perm in BATTERY:
        data = folded(label, perm)
        for k, orbit_k in enumerate(data.orbits):
            for l, orbit_l in enumerate(data.orbits):
                values = {(2 // data.row_sums[l]) * sum(data.gcm.entries[i][j] for j in orbit_l)
                          for i in orbit_k}
                assert values == {data.folded.entries[k][l]}


def test_intertwining_up_to_length_four():
    from itertools import product
    for label, perm in BATTERY:
        data = folded(label, perm)
        gcm, lift = data.gcm, lift_matrix(data)
        for size in range(5):
            for what in product(range(data.n_folded), repeat=size):
                lhs = mat_mul(matrix_of(gcm, unfold_word(data, what)), lift)
                rhs = mat_mul(lift, matrix_of(data.folded, what))
                assert lhs == rhs, (label, what)


def test_expansion_lands_in_commuting_subgroup_and_is_bijective():
    for label, perm in BATTERY:
        data = folded(label, perm)
        gcm, auto = data.gcm, data.auto
        folded_elements = enumerate_weyl(data.folded)
        images = set()
        for what, _ in folded_elements:
            w = unfold_word(data, what)
            assert is_in_w_tilde(gcm, w, auto.perm), (label, what)
            images.add(element_of(gcm, w))
        assert len(images) == len(folded_elements)
        commuting = {m for wd, m in enumerate_weyl(gcm)
                     if is_in_w_tilde(gcm, wd, auto.perm)}
        assert images == commuting, label
        # membership agrees with matrix commutation; p reads coordinate i from perm[i]
        n = gcm.n
        p = tuple(tuple(1 if j == auto.perm[i] else 0 for j in range(n)) for i in range(n))
        for wd, _ in enumerate_weyl(gcm):
            m = matrix_of(gcm, wd)
            commutes = mat_mul(m, p) == mat_mul(p, m)
            assert is_in_w_tilde(gcm, wd, auto.perm) == commutes, (label, wd)


def test_expansion_length_additivity():
    for label, perm in BATTERY:
        data = folded(label, perm)
        gcm = data.gcm
        piece = [length(gcm, w) for w in data.orbit_words]
        for what, _ in enumerate_weyl(data.folded):
            expected = sum(piece[k] for k in what)
            assert length(gcm, unfold_word(data, what)) == expected, (label, what)


def test_fold_word_round_trip():
    for label, perm in BATTERY:
        data = folded(label, perm)
        gcm = data.gcm
        for what, m_hat in enumerate_weyl(data.folded):
            back = fold_word(data, unfold_word(data, what))
            assert element_of(data.folded, back) == m_hat, (label, what)


def test_fold_word_rejects_non_commuting():
    data = folded("A3", (2, 1, 0))
    with pytest.raises(NotInWTilde):
        fold_word(data, (0,))


def test_fold_word_reports_inconsistent_data():
    from twinchar.errors import NoDescentFound
    data = folded("A3", (2, 1, 0))
    crippled = data._replace(orbit_words=((), ()))
    with pytest.raises(NoDescentFound):
        fold_word(crippled, (0, 2))


def test_fold_word_reports_inconsistent_data_under_optimize():
    # the re-expansion check must raise, not assert: python -O strips asserts
    code = "\n".join([
        "from twinchar.errors import NoDescentFound",
        "from twinchar.folding import fold, fold_word",
        "from twinchar.root_data import cartan_matrix",
        "crippled = fold(cartan_matrix('A3'), (2, 1, 0))._replace(orbit_words=((), ()))",
        "try:",
        "    fold_word(crippled, (0, 2))",
        "except NoDescentFound:",
        "    print('NoDescentFound')",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "NoDescentFound"


def test_dominance_equivariance_of_lift():
    for label, perm in BATTERY:
        data = folded(label, perm)
        gcm = data.gcm
        for mu_hat in weight_box(data.n_folded, -2, 2):
            lifted = unfold_weight(data, mu_hat)
            assert is_dominant(lifted) == is_dominant(mu_hat)


def test_lift_intertwines_single_reflections():
    # the construction asserts this; keep an external check for one case
    data = folded("A4", (3, 2, 1, 0))
    lift = lift_matrix(data)
    for k in range(data.n_folded):
        lhs = mat_mul(matrix_of(data.gcm, data.orbit_words[k]), lift)
        rhs = mat_mul(lift, matrix_of(data.folded, (k,)))
        assert lhs == rhs
