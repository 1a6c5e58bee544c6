"""Orbit data, the folded matrix, the weight lift and the word expansion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from twinchar.errors import (
    LinkingConditionFailed,
    NotDiagramAutomorphism,
    NotInWTilde,
    NotSymmetricWeight,
    UnsupportedOrbitShape,
)
from twinchar.folding import (
    _orbit_components,
    fold,
    fold_weight,
    fold_word,
    is_symmetric_weight,
    unfold_weight,
    unfold_word,
    validate_automorphism,
)
from twinchar.linalg import mat_mul
from twinchar.root_data import cartan_matrix, validate_gcm, weight_box
from twinchar.weyl import element_of, enumerate_weyl, is_in_w_tilde, length, reflection_matrix

BATTERY = [
    ("A2", (1, 0)),
    ("A3", (2, 1, 0)),
    ("A4", (3, 2, 1, 0)),
    ("D4", (2, 1, 3, 0)),
    ("D4", (0, 1, 3, 2)),
]


def folded(label, perm):
    gcm = cartan_matrix(label)
    auto, orbit_data = validate_automorphism(gcm, perm)
    return gcm, auto, orbit_data, fold(gcm, auto.perm)


def test_orbit_data_examples():
    _, _, orb, _ = folded("A3", (2, 1, 0))
    assert orb.orbits == ((0, 2), (1,))
    assert orb.row_sums == (2, 2)
    _, _, orb2, _ = folded("A2", (1, 0))
    assert orb2.orbits == ((0, 1),)
    assert orb2.row_sums == (1,)


def test_non_automorphism_rejected():
    b2 = cartan_matrix("B2")
    with pytest.raises(NotDiagramAutomorphism):
        validate_automorphism(b2, (1, 0))
    with pytest.raises(NotDiagramAutomorphism):
        validate_automorphism(cartan_matrix("A2"), (0, 0))


def test_automorphism_orders():
    assert folded("A3", (2, 1, 0))[1].order == 2
    assert folded("D4", (2, 1, 3, 0))[1].order == 3


def test_folded_matrices_frozen():
    assert folded("A2", (1, 0))[3].folded.entries == ((2,),)
    assert folded("A3", (2, 1, 0))[3].folded.entries == ((2, -1), (-2, 2))
    # mixed orbit row sums put the scale on the column orbit
    assert folded("A4", (3, 2, 1, 0))[3].folded.entries == ((2, -2), (-1, 2))
    assert folded("D4", (2, 1, 3, 0))[3].folded.entries == ((2, -1), (-3, 2))
    assert folded("D4", (0, 1, 3, 2))[3].folded.entries == (
        (2, -1, 0), (-1, 2, -2), (0, -1, 2))


def test_linking_condition_failure():
    # cyclic rotation of the affine 3-cycle: orbit row sum 0
    affine = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    auto, orb = validate_automorphism(affine, (1, 2, 0))
    assert orb.row_sums == (0,)
    with pytest.raises(LinkingConditionFailed):
        fold(affine, auto.perm)
    doubled = validate_gcm([[2, -2], [-2, 2]])
    auto2, _ = validate_automorphism(doubled, (1, 0))
    with pytest.raises(LinkingConditionFailed):
        fold(doubled, auto2.perm)


def test_orbit_shape_analyzer():
    a3 = cartan_matrix("A3")
    assert _orbit_components(a3.entries, (0, 2)) == [(0,), (2,)]
    assert _orbit_components(cartan_matrix("A2").entries, (0, 1)) == [(0, 1)]
    with pytest.raises(UnsupportedOrbitShape):
        _orbit_components(a3.entries, (0, 1, 2))
    with pytest.raises(UnsupportedOrbitShape):
        _orbit_components(validate_gcm([[2, -2], [-2, 2]]).entries, (0, 1))


def test_weight_lift_and_restriction():
    _, _, _, data = folded("A3", (2, 1, 0))
    assert unfold_weight(data, (1, 0)) == (1, 0, 1)
    assert fold_weight(data, (1, 0, 1)) == (1, 0)
    with pytest.raises(NotSymmetricWeight):
        fold_weight(data, (1, 1, 0))
    assert is_symmetric_weight((2, 2), (1, 0))
    assert not is_symmetric_weight((2, 1), (1, 0))


def test_orbit_word_table():
    assert folded("A2", (1, 0))[3].orbit_words == ((0, 1, 0),)
    assert folded("A3", (2, 1, 0))[3].orbit_words == ((0, 2), (1,))
    assert folded("D4", (2, 1, 3, 0))[3].orbit_words == ((0, 2, 3), (1,))
    assert folded("A4", (3, 2, 1, 0))[3].orbit_words == ((0, 3), (1, 2, 1))


def test_unfold_word_concatenates():
    _, _, _, data = folded("A3", (2, 1, 0))
    assert unfold_word(data, (0,)) == (0, 2)
    assert unfold_word(data, (1, 0)) == (1, 0, 2)
    assert unfold_word(data, ()) == ()


def test_representative_independence_of_folded_entries():
    for label, perm in BATTERY:
        gcm, _, orb, data = folded(label, perm)
        for k, orbit_k in enumerate(orb.orbits):
            for l, orbit_l in enumerate(orb.orbits):
                values = {orb.scale(l) * sum(gcm.entries[i][j] for j in orbit_l)
                          for i in orbit_k}
                assert values == {data.folded.entries[k][l]}


def test_intertwining_up_to_length_four():
    from itertools import product
    for label, perm in BATTERY:
        gcm, _, _, data = folded(label, perm)
        lift = data.weight_lift
        for size in range(5):
            for what in product(range(data.n_folded), repeat=size):
                lhs = mat_mul(element_of(gcm, unfold_word(data, what)), lift)
                rhs = mat_mul(lift, element_of(data.folded, what))
                assert lhs == rhs, (label, what)


def test_expansion_lands_in_commuting_subgroup_and_is_bijective():
    for label, perm in BATTERY:
        gcm, auto, _, data = folded(label, perm)
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
        for wd, m in enumerate_weyl(gcm):
            commutes = mat_mul(m, p) == mat_mul(p, m)
            assert is_in_w_tilde(gcm, wd, auto.perm) == commutes, (label, wd)


def test_expansion_length_additivity():
    for label, perm in BATTERY:
        gcm, _, _, data = folded(label, perm)
        piece = [length(gcm, w) for w in data.orbit_words]
        for what, _ in enumerate_weyl(data.folded):
            expected = sum(piece[k] for k in what)
            assert length(gcm, unfold_word(data, what)) == expected, (label, what)


def test_fold_word_round_trip():
    for label, perm in BATTERY:
        gcm, _, _, data = folded(label, perm)
        for what, m_hat in enumerate_weyl(data.folded):
            back = fold_word(data, unfold_word(data, what))
            assert element_of(data.folded, back) == m_hat, (label, what)


def test_fold_word_rejects_non_commuting():
    _, _, _, data = folded("A3", (2, 1, 0))
    with pytest.raises(NotInWTilde):
        fold_word(data, (0,))


def test_fold_word_reports_inconsistent_data():
    from dataclasses import replace
    from twinchar.errors import NoDescentFound
    _, _, _, data = folded("A3", (2, 1, 0))
    crippled = replace(data, orbit_words=((), ()))
    with pytest.raises(NoDescentFound):
        fold_word(crippled, (0, 2))


def test_fold_word_reports_inconsistent_data_under_optimize():
    # the re-expansion check must raise, not assert: python -O strips asserts
    code = "\n".join([
        "from dataclasses import replace",
        "from twinchar.errors import NoDescentFound",
        "from twinchar.folding import fold, fold_word, validate_automorphism",
        "from twinchar.root_data import cartan_matrix",
        "gcm = cartan_matrix('A3')",
        "auto, _ = validate_automorphism(gcm, (2, 1, 0))",
        "crippled = replace(fold(gcm, auto.perm), orbit_words=((), ()))",
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
        gcm, _, _, data = folded(label, perm)
        for mu_hat in weight_box(data.n_folded, -2, 2):
            lifted = unfold_weight(data, mu_hat)
            assert gcm.is_dominant(lifted) == data.folded.is_dominant(mu_hat)


def test_lift_intertwines_single_reflections():
    # the construction asserts this; keep an external check for one case
    gcm, _, _, data = folded("A4", (3, 2, 1, 0))
    for k in range(data.n_folded):
        lhs = mat_mul(element_of(gcm, data.orbit_words[k]), data.weight_lift)
        rhs = mat_mul(data.weight_lift, reflection_matrix(data.folded, k))
        assert lhs == rhs
