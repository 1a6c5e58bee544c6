"""Cartan matrix validation, weight arithmetic, roots and dimensions."""

import math
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinchar.characters import demazure_character, freudenthal_character
from twinchar.errors import InvalidInput, NotFiniteType, NotGCM, NotSymmetrizable
from twinchar.linalg import determinant
from twinchar.root_data import (
    cartan_matrix,
    is_finite_type,
    positive_roots,
    validate_gcm,
    weyl_dimension,
)
from twinchar.word_model import (
    demazure_subspaces,
    extremal_vector,
    twining_character,
    weight_space,
)

CATALOG = ["A2", "A3", "A4", "B2", "C3", "D4", "G2"]

# positive-root counts for the catalog (n*h/2 table)
ROOT_COUNTS = {"A2": 3, "A3": 6, "B2": 4, "D4": 12, "G2": 6}


def brute_force_symmetrizer(entries, bound=8):
    """Oracle: smallest positive d with d_i a_ij = d_j a_ji by direct search."""
    n = len(entries)
    best = None
    for d in product(range(1, bound + 1), repeat=n):
        if all(d[i] * entries[i][j] == d[j] * entries[j][i]
               for i in range(n) for j in range(n)):
            if math.gcd(*d) == 1 and (best is None or sum(d) < sum(best)):
                best = d
    return best


def test_a2_is_valid_with_unit_symmetrizer():
    gcm = validate_gcm([[2, -1], [-1, 2]])
    assert gcm.symmetrizer == (1, 1)


def test_asymmetric_matrix_symmetrizer_against_brute_force():
    entries = ((2, -1), (-2, 2))
    gcm = validate_gcm(entries)
    assert gcm.symmetrizer == brute_force_symmetrizer(entries) == (2, 1)


def test_catalog_symmetrizers_match_brute_force():
    for label in CATALOG:
        gcm = cartan_matrix(label)
        assert gcm.symmetrizer == brute_force_symmetrizer(gcm.entries), label


def test_zero_pattern_violation_is_rejected():
    with pytest.raises(NotGCM):
        validate_gcm([[2, 0], [-1, 2]])


def test_bad_diagonal_and_positive_offdiagonal_rejected():
    with pytest.raises(NotGCM):
        validate_gcm([[1, -1], [-1, 2]])
    with pytest.raises(NotGCM):
        validate_gcm([[2, 1], [1, 2]])


def test_non_symmetrizable_cycle_rejected():
    # 3-cycle with mismatched edge ratios cannot carry a symmetrizer
    with pytest.raises(NotSymmetrizable):
        validate_gcm([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])


def test_symmetrizer_makes_da_symmetric():
    for label in CATALOG:
        gcm = cartan_matrix(label)
        d = gcm.symmetrizer
        for i in range(gcm.n):
            for j in range(gcm.n):
                assert d[i] * gcm.entries[i][j] == d[j] * gcm.entries[j][i]


def test_finite_type_detection():
    assert is_finite_type(cartan_matrix("A2"))
    assert not is_finite_type(validate_gcm([[2, -2], [-2, 2]]))
    assert is_finite_type(validate_gcm([[2]]))
    for label in CATALOG:
        assert is_finite_type(cartan_matrix(label)), label


def test_simple_root_and_reflection_examples():
    a2 = cartan_matrix("A2")
    assert a2.simple_root(0) == (2, -1)
    assert a2.simple_root(1) == (-1, 2)
    assert a2.reflect((1, 1), 0) == (-1, 2)
    assert not a2.is_dominant((-1, 2))
    assert a2.is_dominant((0, 3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_reflection_is_an_involution(label, data):
    gcm = cartan_matrix(label)
    lam = tuple(data.draw(st.integers(-4, 4)) for _ in range(gcm.n))
    for i in range(gcm.n):
        assert gcm.reflect(gcm.reflect(lam, i), i) == lam


def test_root_coordinate_round_trip():
    for label in CATALOG:
        gcm = cartan_matrix(label)
        for beta in positive_roots(gcm):
            assert gcm.root_coords(gcm.weight_of_root(beta)) == beta


def test_root_coords_off_the_root_lattice():
    with pytest.raises(InvalidInput):
        cartan_matrix("A2").root_coords((1, 0))


def test_root_coords_of_singular_matrix():
    with pytest.raises(NotFiniteType):
        validate_gcm([[2, -2], [-2, 2]]).root_coords((0, 0))


def laplace_determinant(m):
    """Oracle: cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(square_matrices)
@example([[0, 0], [0, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 1, -1]])
@example([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
def test_determinant_matches_laplace_expansion(m):
    assert determinant(tuple(map(tuple, m))) == laplace_determinant(m)


def test_positive_roots_a2():
    assert set(positive_roots(cartan_matrix("A2"))) == {(1, 0), (0, 1), (1, 1)}


def test_positive_root_counts_catalog():
    for label, count in ROOT_COUNTS.items():
        roots = positive_roots(cartan_matrix(label))
        assert len(roots) == count, label
        # closure contains every simple root
        n = cartan_matrix(label).n
        for i in range(n):
            assert tuple(1 if j == i else 0 for j in range(n)) in roots


def test_positive_roots_refuse_affine():
    with pytest.raises(NotFiniteType):
        positive_roots(validate_gcm([[2, -2], [-2, 2]]))


def test_weyl_dimension_values():
    assert weyl_dimension(cartan_matrix("A2"), (1, 1)) == 8
    assert weyl_dimension(cartan_matrix("A3"), (0, 1, 0)) == 6
    for label in CATALOG:
        gcm = cartan_matrix(label)
        assert weyl_dimension(gcm, (0,) * gcm.n) == 1, label


def test_catalog_frozen_matrices():
    assert cartan_matrix("B2").entries == ((2, -1), (-2, 2))
    assert cartan_matrix("C3").entries == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert cartan_matrix("G2").entries == ((2, -1), (-3, 2))
    assert cartan_matrix("D4").entries == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


@pytest.mark.parametrize("call", [
    lambda gcm, lam: weyl_dimension(gcm, lam),
    lambda gcm, lam: demazure_character(gcm, lam, (0,)),
    lambda gcm, lam: freudenthal_character(gcm, lam),
    lambda gcm, lam: weight_space(gcm, lam, (1, 0)),
    lambda gcm, lam: extremal_vector(gcm, lam, (0,)),
    lambda gcm, lam: demazure_subspaces(gcm, lam, (0,)),
    lambda gcm, lam: twining_character(gcm, lam, (0, 1, 0), (1, 0)),
], ids=["weyl_dimension", "demazure_character", "freudenthal_character", "weight_space",
        "extremal_vector", "demazure_subspaces", "twining_character"])
@pytest.mark.parametrize("lam", [(1, 1, 1), (1,)])
def test_weight_of_wrong_size_is_rejected(call, lam):
    with pytest.raises(InvalidInput):
        call(cartan_matrix("A2"), lam)
