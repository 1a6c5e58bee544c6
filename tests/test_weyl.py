"""Weyl elements as w^-1(rho) vectors, reduced words and the commuting subgroup.

The matrix model in ``oracles`` (products of reflection matrices) is the
independent reference for the group, its lengths and its BFS words.  The
canonical reduced word is ``folding.fold_word`` on the identity fold, which
``oracles.reduced_word`` and ``oracles.length`` wrap.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinchar.errors import InvalidInput, NotFiniteType
from twinchar.root_data import (
    cartan_matrix,
    positive_roots,
    validate_gcm,
    weyl_dimension,
)
from twinchar.weyl import (
    act,
    element_of,
    enumerate_weyl,
    format_word,
    is_in_w_tilde,
    longest_element,
    parse_word,
)

from oracles import (
    A2_PLUS_AFFINE_A1,
    AFFINE_FAMILIES,
    identity_matrix,
    leading_principal_minors,
    length,
    mat_mul,
    mat_vec,
    matrix_bfs,
    matrix_of,
    reduced_word,
    root_coords,
    small_gcms,
)

WEYL_ORDERS = {"A2": 6, "A3": 24, "B2": 8, "G2": 12, "C3": 48, "A4": 120, "D4": 192}


def brute_force_group(gcm):
    """Oracle: the whole group as a map from matrix to length, by naive closure."""
    return {m: len(word) for word, m in matrix_bfs(gcm)}


def test_square_of_generator_is_identity():
    a2 = cartan_matrix("A2")
    assert element_of(a2, (0, 0)) == element_of(a2, ()) == a2.rho()
    assert element_of(a2, (1, 1)) == a2.rho()
    assert matrix_of(a2, (0, 0)) == matrix_of(a2, (1, 1)) == identity_matrix(2)


def test_length_of_longest_word_a2():
    assert length(cartan_matrix("A2"), (0, 1, 0)) == 3


def test_reduced_word_of_messy_word():
    # s0 s1 s0 s0 s1 = s0 s1 s1 = s0, checked against the 6-element group
    a2 = cartan_matrix("A2")
    assert matrix_of(a2, (0, 1, 0, 0, 1)) == matrix_of(a2, (0,))
    assert element_of(a2, (0, 1, 0, 0, 1)) == element_of(a2, (0,))
    assert reduced_word(a2, (0, 1, 0, 0, 1)) == (0,)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=6), st.lists(st.integers(0, 1), max_size=6))
def test_element_of_is_a_homomorphism(u, v):
    # concatenation acts on the vector: (uv)^-1(rho) = v^-1(u^-1(rho))
    a2 = cartan_matrix("A2")
    u, v = tuple(u), tuple(v)
    assert element_of(a2, u + v) == act(a2, v[::-1], element_of(a2, u))
    # and it is the reflection-matrix product of the inverse word applied to rho
    assert element_of(a2, u + v) == mat_vec(matrix_of(a2, (u + v)[::-1]), a2.rho())


def test_reduced_word_idempotence_over_whole_group():
    for label in ("A2", "B2", "G2"):
        gcm = cartan_matrix(label)
        for word, m in enumerate_weyl(gcm):
            red = reduced_word(gcm, word)
            assert element_of(gcm, red) == m
            assert len(red) == len(word)
            assert reduced_word(gcm, red) == red


def peel_by_depth(gcm, depth, m):
    """Oracle: smallest-index descent peeling read off the BFS depth of each matrix."""
    ident = identity_matrix(gcm.n)
    letters = []
    while m != ident:
        i = next(i for i in range(gcm.n)
                 if depth[mat_mul(m, matrix_of(gcm, (i,)))] < depth[m])
        letters.append(i)
        m = mat_mul(m, matrix_of(gcm, (i,)))
    return tuple(reversed(letters))


def test_reduced_word_matches_depth_map_oracle():
    rng = random.Random(20)
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"):
        gcm = cartan_matrix(label)
        depth = brute_force_group(gcm)
        for word, _ in enumerate_weyl(gcm):
            expected = peel_by_depth(gcm, depth, matrix_of(gcm, word))
            assert reduced_word(gcm, word) == expected, (label, word)
        for _ in range(40):
            word = tuple(rng.randrange(gcm.n) for _ in range(rng.randrange(16)))
            expected = peel_by_depth(gcm, depth, matrix_of(gcm, word))
            assert reduced_word(gcm, word) == expected, (label, word)


def test_length_counts_positive_roots_sent_negative():
    # independent length oracle via the root action
    for label in ("A2", "B2"):
        gcm = cartan_matrix(label)
        for word, _ in enumerate_weyl(gcm):
            m = matrix_of(gcm, word)
            negatives = 0
            for beta in positive_roots(gcm):
                image = root_coords(gcm, mat_vec(m, gcm.weight_of_root(beta)))
                assert all(x <= 0 for x in image) or all(x >= 0 for x in image)
                if any(x < 0 for x in image):
                    negatives += 1
            assert length(gcm, word) == negatives


def test_longest_element_examples():
    assert longest_element(cartan_matrix("A2")) == (0, 1, 0)
    assert longest_element(validate_gcm([[2]])) == (0,)
    assert len(longest_element(cartan_matrix("B2"))) == 4
    with pytest.raises(NotFiniteType):
        longest_element(validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm))


def test_longest_element_sends_all_simple_roots_negative():
    for label in ("A2", "A3", "B2", "G2", "D4"):
        gcm = cartan_matrix(label)
        w0 = longest_element(gcm)
        assert len(w0) == len(positive_roots(gcm))


def test_w_tilde_membership_for_a2_flip():
    a2 = cartan_matrix("A2")
    assert is_in_w_tilde(a2, (0, 1, 0), (1, 0))
    assert not is_in_w_tilde(a2, (0,), (1, 0))
    assert is_in_w_tilde(a2, (), (1, 0))
    # a permutation of the wrong size, out of range or not a bijection is invalid input
    for perm in [(1,), (1, 2), (0, -1), (1, 1)]:
        with pytest.raises(InvalidInput):
            is_in_w_tilde(a2, (0,), perm)


def test_w_tilde_closed_under_product_and_inverse():
    a3 = cartan_matrix("A3")
    flip = (2, 1, 0)
    members = [w for w, _ in enumerate_weyl(a3) if is_in_w_tilde(a3, w, flip)]
    for u in members:
        for v in members:
            assert is_in_w_tilde(a3, u + v, flip)
        inv = reduced_word(a3, tuple(reversed(u)))
        assert is_in_w_tilde(a3, inv, flip)


def test_enumerate_weyl_orders():
    for label, order in WEYL_ORDERS.items():
        assert len(enumerate_weyl(cartan_matrix(label))) == order, label


def test_enumerate_weyl_matches_brute_force():
    for label in ("A2", "B2", "G2"):
        gcm = cartan_matrix(label)
        enumerated = enumerate_weyl(gcm)
        assert {matrix_of(gcm, w): len(w) for w, _ in enumerated} == brute_force_group(gcm)
        assert all(x == element_of(gcm, w) for w, x in enumerated)
        assert [w for w, _ in enumerated] == [w for w, _ in matrix_bfs(gcm)]


def test_enumerate_weyl_with_length_cap():
    a2 = cartan_matrix("A2")
    capped = enumerate_weyl(a2, max_length=1)
    assert [w for w, _ in capped] == [(), (0,), (1,)]
    with pytest.raises(NotFiniteType):
        enumerate_weyl(validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm))
    # a size must be a true int: 2.5 would act as 3 and True as 1
    for cap in (2.5, True, -1, "2"):
        with pytest.raises(InvalidInput):
            enumerate_weyl(a2, max_length=cap)


# every matrix of infinite type that the tests build, by its leading principal minors
INFINITE_GCMS = [gcm for gcm in small_gcms()
                 if not all(m > 0 for m in leading_principal_minors(gcm.entries))] + [
    validate_gcm(matrix) for matrix in [family.gcm for family in AFFINE_FAMILIES.values()]
    + [A2_PLUS_AFFINE_A1, [[2, -3], [-3, 2]]]]


@pytest.mark.parametrize("call", [
    longest_element, enumerate_weyl, positive_roots, lambda gcm: weyl_dimension(gcm, gcm.rho()),
], ids=["longest_element", "enumerate_weyl", "positive_roots", "weyl_dimension"])
def test_finite_type_calls_raise_on_every_infinite_case(call):
    # the walk up from rho passes n max(n, 15) ascents on an infinite Weyl group, so each
    # call that needs the whole finite group or its positive roots refuses it at once
    start = time.perf_counter()
    for gcm in INFINITE_GCMS:
        with pytest.raises(NotFiniteType):
            call(gcm)
    assert time.perf_counter() - start < 5


def test_the_length_bound_admits_the_longest_finite_elements():
    # n max(n, 15) is met exactly by E8 (120 positive roots) and by B_n and C_n for
    # n >= 15 (n^2), and is superadditive, so it covers sums of components
    e8 = [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0],
          [-1, 0, 2, -1, 0, 0, 0, 0], [0, -1, -1, 2, -1, 0, 0, 0],
          [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
          [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]
    e8_b2 = [row + [0, 0] for row in e8] + [[0] * 8 + [2, -2], [0] * 8 + [-1, 2]]
    for gcm, roots in [(validate_gcm(e8), 120), (cartan_matrix("B15"), 225),
                       (cartan_matrix("C16"), 256), (validate_gcm(e8_b2), 124)]:
        assert gcm.finite and len(longest_element(gcm)) == roots


@pytest.mark.parametrize("matrix", [
    AFFINE_FAMILIES["A1^(1)"].gcm,
    AFFINE_FAMILIES["A2^(1)"].gcm,
    [[2, -3], [-3, 2]],
], ids=["affine-A1", "affine-3-cycle", "hyperbolic-3-3"])
def test_capped_enumeration_of_infinite_groups_matches_matrix_oracle(matrix):
    gcm = validate_gcm(matrix)
    for cap in (0, 1, 2, 5):
        enumerated = enumerate_weyl(gcm, max_length=cap)
        assert [w for w, _ in enumerated] == [w for w, _ in matrix_bfs(gcm, cap)], cap
        assert all(x == element_of(gcm, w) for w, x in enumerated)
    # the descent peel ends on every element of an infinite group too; a shortest
    # word of the search is reduced, though not always the canonical one
    for word, x in enumerated:
        canonical = reduced_word(gcm, word)
        assert element_of(gcm, canonical) == x and len(canonical) == len(word)
        assert length(gcm, word) == len(word) and reduced_word(gcm, canonical) == canonical
        for i in range(gcm.n):
            assert reduced_word(gcm, word + (i, i)) == canonical


def test_word_serialization_round_trip():
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("") == ()
    assert format_word((0, 1, 0)) == "0,1,0"
    assert parse_word(format_word((3, 1))) == (3, 1)
