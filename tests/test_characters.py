"""Character ring, Demazure operators, the Freudenthal oracle, serialization."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinchar import characters, weyl
from twinchar.characters import (
    canonical_serialize,
    demazure_character,
    demazure_core,
    demazure_op,
    map_character,
)
from twinchar.errors import NotDominant
from twinchar.folding import fold
from twinchar.root_data import CharacterPolynomial, cartan_matrix, validate_gcm, weyl_dimension
from twinchar.weyl import element_of, enumerate_weyl, longest_element

from oracles import AFFINE_FAMILIES, freudenthal_character, reduced_word_demazure_character

A2 = cartan_matrix("A2")
B2 = cartan_matrix("B2")


def sparse_poly(gcm, data, box=3, coeff=3, terms=4):
    draw = data.draw
    pairs = []
    for _ in range(draw(st.integers(1, terms))):
        w = tuple(draw(st.integers(-box, box)) for _ in range(gcm.n))
        pairs.append((w, draw(st.integers(-coeff, coeff))))
    return CharacterPolynomial(gcm.n, pairs)


def test_polynomial_algebra_basics():
    p = CharacterPolynomial(2, [((1, 1), 1), ((1, 1), 1)])
    assert p.coefficient((1, 1)) == 2
    assert CharacterPolynomial(2, [((1, 1), 2), ((1, 1), -2)]) == CharacterPolynomial(2)
    assert not CharacterPolynomial(2, {(1, 1): 0})
    assert p.coefficient_sum() == 2
    with pytest.raises(ValueError):
        CharacterPolynomial(2, [((1,), 1)])


def test_demazure_op_on_dominant_monomial():
    # D_0 e(rho) = e(rho) + e(rho - alpha_0)
    out = demazure_op(A2, CharacterPolynomial.monomial((1, 1)), 0)
    assert out == CharacterPolynomial(2, [((1, 1), 1), ((-1, 2), 1)])


def test_demazure_op_kills_minus_one():
    out = demazure_op(A2, CharacterPolynomial.monomial((-1, 3)), 0)
    assert out == CharacterPolynomial(2)


def test_demazure_op_negative_branch():
    # rank one: D e(-2L) = -e(0)
    a1 = validate_gcm([[2]])
    out = demazure_op(a1, CharacterPolynomial.monomial((-2,)), 0)
    assert out == CharacterPolynomial(1, [((0,), -1)])


def test_demazure_op_string_coefficients_are_one():
    out = demazure_op(B2, CharacterPolynomial.monomial((0, 3)), 1)
    assert set(out._terms.values()) == {1}
    assert len(out) == 4


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3"]), st.data())
def test_demazure_op_is_idempotent(label, data):
    gcm = cartan_matrix(label)
    poly = sparse_poly(gcm, data)
    i = data.draw(st.integers(0, gcm.n - 1))
    once = demazure_op(gcm, poly, i)
    assert demazure_op(gcm, once, i) == once


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_braid_relation_a2(data):
    poly = sparse_poly(A2, data)
    d0 = lambda f: demazure_op(A2, f, 0)
    d1 = lambda f: demazure_op(A2, f, 1)
    assert d0(d1(d0(poly))) == d1(d0(d1(poly)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_braid_relation_b2(data):
    poly = sparse_poly(B2, data)
    d0 = lambda f: demazure_op(B2, f, 0)
    d1 = lambda f: demazure_op(B2, f, 1)
    assert d0(d1(d0(d1(poly)))) == d1(d0(d1(d0(poly))))


def test_demazure_character_examples():
    assert demazure_character(A2, (1, 1), (0,)) == CharacterPolynomial(
        2, [((1, 1), 1), ((-1, 2), 1)])
    assert demazure_character(A2, (1, 1), (0, 1, 0)).coefficient_sum() == 8
    assert demazure_character(A2, (2, 0), ()) == CharacterPolynomial.monomial((2, 0))
    with pytest.raises(NotDominant):
        demazure_character(A2, (-1, 0), (0,))


def test_demazure_character_canonicalizes_words():
    # non-reduced input agrees with its reduced form
    assert demazure_character(A2, (1, 1), (0, 1, 0, 0, 1)) == \
        demazure_character(A2, (1, 1), (0,))


def test_reduced_word_independence_small_lengths():
    for label in ("A2", "B2"):
        gcm = cartan_matrix(label)
        lam = (1, 1)
        for word, m in enumerate_weyl(gcm):
            if len(word) > 4:
                continue
            expected = demazure_character(gcm, lam, word)
            for candidate in product(range(gcm.n), repeat=len(word)):
                if element_of(gcm, candidate) == m:
                    assert demazure_character(gcm, lam, candidate) == expected


def _no_reduced_word(gcm, x):
    raise AssertionError(f"the folded route formed the reduced word of {x}")


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3"])
def test_recursion_on_the_extremal_weight_matches_the_reduced_word_reference(
        label, monkeypatch):
    # every element and every word of length <= 4, reduced or not, at each weight in
    # {0,1,2}^n: cold (each element after a cache clear) and then warm; the folded
    # route forms no reduced word
    gcm = cartan_matrix(label)
    elements = [word for word, _ in enumerate_weyl(gcm)]
    words = [w for k in range(5) for w in product(range(gcm.n), repeat=k)]
    for lam in product(range(3), repeat=gcm.n):
        expected = {w: reduced_word_demazure_character(gcm, lam, w) for w in elements + words}
        with monkeypatch.context() as patched:
            patched.setattr(weyl, "_word_of_rho_vector", _no_reduced_word)
            for word in elements:
                characters._characters.cache_clear()
                assert demazure_character(gcm, lam, word) == expected[word], (lam, word)
            for word in elements + words:
                assert demazure_character(gcm, lam, word) == expected[word], (lam, word)
    characters._characters.cache_clear()


def test_the_recursion_needs_no_finite_type():
    # affine A1: every alternating word is reduced, and peeling the extremal weight
    # applies the same operators as the word
    affine = validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm)
    for word in [(0,), (1, 0), (0, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1, 0)]:
        expected = CharacterPolynomial.monomial((1, 2))
        for i in reversed(word):
            expected = demazure_op(affine, expected, i)
        assert demazure_character(affine, (1, 2), word) == expected, word


def test_the_character_cache_is_bounded(monkeypatch):
    # the oldest characters are dropped first, and a dropped one is rebuilt equal
    monkeypatch.setattr(characters._characters, "limit", 3)
    characters._characters.cache_clear()
    word = longest_element(B2)
    full = demazure_character(B2, (1, 1), word)
    assert len(characters._characters) == 3
    assert (B2, (1, 1), weyl.act(B2, word, (1, 1))) in characters._characters
    assert demazure_character(B2, (1, 1), (0,)) == reduced_word_demazure_character(B2, (1, 1), (0,))
    assert demazure_character(B2, (1, 1), word) == full
    characters._characters.cache_clear()


def test_the_highest_weight_character_is_cached():
    # w(lam) = lam gives e(lam), kept under its key (gcm, lam, lam) like every other
    # character, so a second call returns the cached object
    characters._characters.cache_clear()
    first = demazure_core(A2, (0, 1), (0,))    # s_0 fixes (0, 1)
    assert first == CharacterPolynomial.monomial((0, 1))
    assert characters._characters[A2, (0, 1), (0, 1)] is first
    assert demazure_core(A2, (0, 1), (0,)) is first
    assert demazure_core(A2, (0, 1), ()) is first
    characters._characters.cache_clear()


def test_freudenthal_small_modules():
    three_dim = freudenthal_character(A2, (1, 0))
    assert three_dim.coefficient_sum() == 3
    assert set(three_dim._terms.values()) == {1}
    adjoint = freudenthal_character(A2, (1, 1))
    assert adjoint.coefficient((0, 0)) == 2
    assert adjoint.coefficient_sum() == 8
    assert freudenthal_character(A2, (0, 0)) == CharacterPolynomial.monomial((0, 0))


def test_freudenthal_matches_demazure_at_longest_element():
    for label in ("A2", "A3", "B2", "G2"):
        gcm = cartan_matrix(label)
        for lam in [(1,) + (0,) * (gcm.n - 1), (1,) * gcm.n]:
            lhs = freudenthal_character(gcm, lam)
            rhs = demazure_character(gcm, lam, longest_element(gcm))
            assert lhs == rhs, (label, lam)
            assert lhs.coefficient_sum() == weyl_dimension(gcm, lam)


def test_map_character_examples():
    a2 = cartan_matrix("A2")
    data = fold(a2, (1, 0))
    poly = CharacterPolynomial(1, [((1,), 1), ((-1,), 1)])
    assert map_character(data, poly) == CharacterPolynomial(
        2, [((1, 1), 1), ((-1, -1), 1)])
    assert map_character(data, CharacterPolynomial(1)) == CharacterPolynomial(2)


def test_map_character_is_injective_on_support():
    a3 = cartan_matrix("A3")
    data = fold(a3, (2, 1, 0))
    poly = freudenthal_character(data.folded, (1, 1))
    mapped = map_character(data, poly)
    assert len(mapped) == len(poly)
    assert mapped.coefficient_sum() == poly.coefficient_sum()


def test_canonical_serialization():
    poly = CharacterPolynomial(2, [((-1, -1), 1), ((1, 1), 1)])
    assert canonical_serialize(poly) == "1*e[1,1]\n1*e[-1,-1]"
    assert canonical_serialize(CharacterPolynomial(2)) == ""
    # descending lexicographic order on exponents
    poly2 = CharacterPolynomial(2, [((0, 5), 2), ((1, -9), -3), ((0, -2), 1)])
    assert canonical_serialize(poly2) == "-3*e[1,-9]\n2*e[0,5]\n1*e[0,-2]"
