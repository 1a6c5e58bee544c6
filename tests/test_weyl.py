"""Weyl words, matrix canonical forms, reduced words and the commuting subgroup."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinchar.errors import NotFiniteType
from twinchar.linalg import identity_matrix, mat_mul
from twinchar.root_data import cartan_matrix, positive_roots, validate_gcm
from twinchar.weyl import (
    element_of,
    enumerate_weyl,
    format_word,
    is_in_w_tilde,
    length,
    longest_element,
    parse_word,
    reduced_word,
)

WEYL_ORDERS = {"A2": 6, "A3": 24, "B2": 8, "G2": 12, "C3": 48, "A4": 120, "D4": 192}


def brute_force_group(gcm):
    """Oracle: the whole group as a set of matrices by naive closure."""
    gens = [element_of(gcm, (i,)) for i in range(gcm.n)]
    group = {identity_matrix(gcm.n)}
    frontier = list(group)
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                m2 = mat_mul(m, g)
                if m2 not in group:
                    group.add(m2)
                    fresh.append(m2)
        frontier = fresh
    return group


def test_square_of_generator_is_identity():
    a2 = cartan_matrix("A2")
    assert element_of(a2, (0, 0)) == identity_matrix(2)
    assert element_of(a2, (1, 1)) == identity_matrix(2)


def test_length_of_longest_word_a2():
    assert length(cartan_matrix("A2"), (0, 1, 0)) == 3


def test_reduced_word_of_messy_word():
    # s0 s1 s0 s0 s1 = s0 s1 s1 = s0, checked against the 6-element group
    a2 = cartan_matrix("A2")
    m = element_of(a2, (0, 1, 0, 0, 1))
    assert m in brute_force_group(a2)
    assert m == element_of(a2, (0,))
    assert reduced_word(a2, (0, 1, 0, 0, 1)) == (0,)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=6), st.lists(st.integers(0, 1), max_size=6))
def test_element_of_is_a_homomorphism(u, v):
    a2 = cartan_matrix("A2")
    assert element_of(a2, tuple(u) + tuple(v)) == mat_mul(
        element_of(a2, tuple(u)), element_of(a2, tuple(v)))


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
                 if depth[mat_mul(m, element_of(gcm, (i,)))] < depth[m])
        letters.append(i)
        m = mat_mul(m, element_of(gcm, (i,)))
    return tuple(reversed(letters))


def test_reduced_word_matches_depth_map_oracle():
    rng = random.Random(20)
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"):
        gcm = cartan_matrix(label)
        elements = enumerate_weyl(gcm)
        depth = {m: len(word) for word, m in elements}
        for word, m in elements:
            assert reduced_word(gcm, word) == peel_by_depth(gcm, depth, m), (label, word)
        for _ in range(40):
            word = tuple(rng.randrange(gcm.n) for _ in range(rng.randrange(16)))
            expected = peel_by_depth(gcm, depth, element_of(gcm, word))
            assert reduced_word(gcm, word) == expected, (label, word)


def test_length_counts_positive_roots_sent_negative():
    # independent length oracle via the root action
    from twinchar.linalg import mat_vec
    from twinchar.linalg import inverse
    for label in ("A2", "B2"):
        gcm = cartan_matrix(label)
        ainv = inverse(gcm.entries)
        for word, m in enumerate_weyl(gcm):
            negatives = 0
            for beta in positive_roots(gcm):
                image = mat_vec(ainv, mat_vec(m, gcm.weight_of_root(beta)))
                assert all(x <= 0 for x in image) or all(x >= 0 for x in image)
                if any(x < 0 for x in image):
                    negatives += 1
            assert length(gcm, word) == negatives


def test_longest_element_examples():
    assert longest_element(cartan_matrix("A2")) == (0, 1, 0)
    assert longest_element(validate_gcm([[2]])) == (0,)
    assert len(longest_element(cartan_matrix("B2"))) == 4
    with pytest.raises(NotFiniteType):
        longest_element(validate_gcm([[2, -2], [-2, 2]]))


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
        enumerated = {m for _, m in enumerate_weyl(gcm)}
        assert enumerated == brute_force_group(gcm)


def test_enumerate_weyl_with_length_cap():
    a2 = cartan_matrix("A2")
    capped = enumerate_weyl(a2, max_length=1)
    assert [w for w, _ in capped] == [(), (0,), (1,)]
    with pytest.raises(NotFiniteType):
        enumerate_weyl(validate_gcm([[2, -2], [-2, 2]]))


def test_word_serialization_round_trip():
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("") == ()
    assert format_word((0, 1, 0)) == "0,1,0"
    assert parse_word(format_word((3, 1))) == (3, 1)
