"""The word model: basis tables, subspaces and traces, against the all-words oracle."""

import json
import sys
import threading
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinchar import characters, harness, word_model
from twinchar.characters import demazure_character
from twinchar.errors import (
    InvalidInput,
    NoDescentFound,
    NotSymmetricWeight,
    NotTauStable,
    RankMismatch,
    TooLarge,
)
from twinchar.folding import fold, unfold_weight, unfold_word
from twinchar.root_data import (
    CharacterPolynomial,
    cartan_matrix,
    is_symmetric_weight,
    validate_gcm,
    weight_box,
    weyl_dimension,
)
from twinchar.weyl import enumerate_weyl, is_in_w_tilde, longest_element
from twinchar.word_model import (
    demazure_subspaces,
    twining_character,
    weight_below,
)

from oracles import (
    A2XA2_CYCLE,
    all_words_subspaces,
    all_words_twining_character,
    content_word_count,
    e_action,
    fraction_echelon,
    freudenthal_character,
    fwords,
    highest_weight_vector,
    is_dominant,
    root_coords,
    shapovalov_pair,
    tau_twist,
    upward_subspaces,
    upward_traces,
    upward_twining_character,
    vector_of_word,
    weight_space,
    word_content,
)

A2 = cartan_matrix("A2")
RHO = (1, 1)
FLIP = (1, 0)
ID2 = (0, 1)


def test_word_utilities():
    assert word_content(2, (0, 1, 0)) == (2, 1)
    assert content_word_count((2, 1)) == 3
    assert fwords((1, 1)) == [(0, 1), (1, 0)]
    assert fwords((0, 0)) == [()]


def test_shapovalov_pair_examples():
    assert shapovalov_pair(A2, RHO, (0,), (0,)) == 1
    assert shapovalov_pair(A2, RHO, (0,), (1,)) == 0
    assert shapovalov_pair(A2, RHO, (0, 1), (1, 0)) == 1
    assert shapovalov_pair(A2, RHO, (0, 1), (0, 1)) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=5),
       st.lists(st.integers(0, 1), min_size=0, max_size=5),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_gram_symmetry(w1, w2, lam):
    w1, w2 = tuple(w1), tuple(w2)
    assert shapovalov_pair(A2, lam, w1, w2) == shapovalov_pair(A2, lam, w2, w1)


def test_vector_of_word_agrees_with_pair_recursion():
    # the transport construction and the memoized recursion are independent routes
    for lam in [(1, 1), (2, 0), (2, 1)]:
        for beta in [(1, 0), (1, 1), (2, 1), (2, 2)]:
            words = fwords(beta)
            for y in words:
                profile = vector_of_word(A2, lam, y)
                for w in words:
                    assert profile.coords.get(w, 0) == shapovalov_pair(A2, lam, w, y), \
                        (lam, y, w)


def test_f_then_e_on_highest_vector():
    v = vector_of_word(A2, RHO, (0,))
    assert v.coords == {(0,): 1}
    up = e_action(0, v)
    assert up.content == (0, 0) and up.coords == {(): 1}


def test_tau_fixes_highest_vector():
    u = highest_weight_vector(A2, RHO)
    t = tau_twist(FLIP, u)
    assert t.coords == u.coords and t.content == u.content


def test_tau_relabels_words():
    v = vector_of_word(A2, RHO, (0, 1))
    expected = vector_of_word(A2, RHO, (1, 0))
    twisted = tau_twist(FLIP, v)
    assert twisted.content == expected.content
    assert twisted.coords == expected.coords


def test_tau_requires_symmetric_weight():
    v = highest_weight_vector(A2, (2, 1))
    with pytest.raises(NotSymmetricWeight):
        tau_twist(FLIP, v)


def test_tau_is_isometric_and_finite_order():
    # <tau v, tau v'> = <v, v'> as a coordinate identity, and tau^2 = id for the flip
    lam = (2, 2)
    for beta in [(1, 1), (2, 1), (2, 2)]:
        words = fwords(beta)
        for y1 in words:
            v1 = vector_of_word(A2, lam, y1)
            t1 = tau_twist(FLIP, v1)
            assert tau_twist(FLIP, t1).coords == v1.coords
            for y2 in words:
                relabeled1 = tuple(FLIP[l] for l in y1)
                assert shapovalov_pair(A2, lam, relabeled1, tuple(FLIP[l] for l in y2)) \
                    == shapovalov_pair(A2, lam, y1, y2)


def test_triality_twist_has_order_three():
    d4 = cartan_matrix("D4")
    perm = (2, 1, 3, 0)
    lam = (0, 1, 0, 0)
    # rightmost letter must pair nonzero against the highest weight; the
    # content (1,2,1,1) sits at weight zero where the multiplicity is 4
    v = vector_of_word(d4, lam, (0, 1, 2, 3, 1))
    assert v.coords
    once = tau_twist(perm, v)
    thrice = tau_twist(perm, tau_twist(perm, once))
    assert thrice.coords == v.coords and thrice.content == v.content
    assert once.coords != v.coords


def test_weight_space_gram_example():
    sub = weight_space(A2, RHO, (1, 1))
    assert sub.dimension == 2
    gram = [[shapovalov_pair(A2, RHO, w1, w2) for w2 in fwords((1, 1))]
            for w1 in fwords((1, 1))]
    assert gram == [[2, 1], [1, 2]]


def test_weight_space_degenerate_cases():
    assert weight_space(A2, RHO, (0, 0)).dimension == 1
    assert weight_space(A2, (1, 0), (0, 1)).dimension == 0
    with pytest.raises(TooLarge):
        weight_space(A2, (9, 9), (9, 9), word_cap=10)


def test_weight_space_ranks_match_freudenthal():
    for label, lam in [("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)), ("A3", (1, 0, 1))]:
        gcm = cartan_matrix(label)
        freud = freudenthal_character(gcm, lam)
        for mu, mult in freud.sorted_terms():
            if not is_dominant(mu):
                continue
            beta = root_coords(gcm, tuple(l - m for l, m in zip(lam, mu)))
            assert weight_space(gcm, lam, beta).dimension == mult, (label, lam, mu)


def test_demazure_subspaces_examples():
    assert demazure_subspaces(A2, RHO, (0,)) == {(0, 0): 1, (1, 0): 1}
    assert demazure_subspaces(A2, RHO, ()) == {(0, 0): 1}
    full = demazure_subspaces(A2, RHO, (0, 1, 0))
    assert sum(full.values()) == 8
    # the top content is the extremal weight w(lam), one line
    top = next(iter(full))
    assert top == (2, 2) and weight_below(A2, RHO, top) == (-1, -1)
    assert full[top] == 1
    assert list(demazure_subspaces(validate_gcm([[2]]), (3,), (0,))) == [(3,), (2,), (1,), (0,)]
    with pytest.raises(TooLarge):
        demazure_subspaces(A2, (3, 3), (0, 1, 0), word_cap=50)


def _module(gcm, lam, word):
    return word_model._modules[gcm, lam, word_model._walked(gcm, lam, word)[0]]


def _stacked_rows(module, beta):
    """The raising images of the basis of beta as Fraction rows, letter blocks side by side."""
    out = [[] for _ in range(module.sizes[beta])]
    for j, width in module.letters(beta):
        rows, den = module.raising.get((beta, j), (((),) * len(out), 1))
        for vec, row in zip(out, rows):
            vec += [Fraction(x, den) for x in row] + [Fraction(0)] * (width - len(row))
    return out


def test_demazure_subspaces_echelon_invariants():
    # every table is integer over a positive denominator, each content's basis has
    # independent raising images, and it begins with the basis of V_{s_i w}: the
    # tables of the module below are the first rows of those above, as they were
    for word in [(0,), (0, 1), (0, 1, 0)]:
        demazure_subspaces(A2, (2, 1), word)
        module, below = _module(A2, (2, 1), word), _module(A2, (2, 1), word[1:])
        for (beta, j), (rows, den) in module.raising.items():
            assert type(den) is int and den > 0
            assert all(type(x) is int for row in rows for x in row)
            mine = [[Fraction(x, den) for x in row] for row in rows]
            if (beta, j) in below.raising:
                theirs, d = below.raising[beta, j]
                assert mine[:len(theirs)] == [[Fraction(x, d) for x in row] for row in theirs]
        for beta, size in module.sizes.items():
            if any(beta):
                assert len(fraction_echelon(dict(enumerate(row))
                                            for row in _stacked_rows(module, beta))) == size
            assert below.sizes.get(beta, 0) <= size


def _trace(gcm, lam, word, perm, beta):
    """The twining trace at content beta, as a coefficient of the twining character.

    Only for finite types, where a content is one weight and not a sum of several.
    """
    return twining_character(gcm, lam, word, perm).coefficient(weight_below(gcm, lam, beta))


def test_twining_traces_for_a2_adjoint():
    assert _trace(A2, RHO, (0, 1, 0), FLIP, (0, 0)) == 1
    assert _trace(A2, RHO, (0, 1, 0), FLIP, (1, 1)) == 0
    assert _trace(A2, RHO, (0, 1, 0), FLIP, (2, 2)) == 1


def test_twining_character_example():
    out = twining_character(A2, RHO, (0, 1, 0), FLIP)
    assert out == CharacterPolynomial(2, [((1, 1), 1), ((-1, -1), 1)])


def test_twining_character_preconditions():
    from twinchar.errors import NotInWTilde
    with pytest.raises(NotSymmetricWeight):
        twining_character(A2, (2, 1), (0, 1, 0), FLIP)
    with pytest.raises(NotInWTilde):
        twining_character(A2, RHO, (0,), FLIP)


def test_stability_dichotomy_witness():
    # w = s_0 is outside the commuting subgroup: its module is not tau-stable
    # (twining_character refuses the word earlier, with NotInWTilde)
    demazure_subspaces(A2, RHO, (0,))
    with pytest.raises(NotTauStable):
        _module(A2, RHO, (0,)).twist(FLIP)


@pytest.mark.parametrize("word, message", [
    ((0,), "twist maps content (1, 0) of dimension 1 to (0, 1) of dimension 0"),
    ((0, 1), "twisted basis of content (1, 1) left the module"),
], ids=["moved-content", "left-the-module"])
def test_twist_refuses_a_module_that_is_not_tau_stable(word, message):
    # the twist of the module, built content by content from the top, raises
    # (twining_character refuses the word earlier, with NotInWTilde)
    demazure_subspaces(A2, RHO, word)
    with pytest.raises(NotTauStable) as caught:
        _module(A2, RHO, word).twist(FLIP)
    assert str(caught.value) == message
    assert isinstance(caught.value, InvalidInput) and caught.value.exit_code == 2


def test_identity_automorphism_reduces_to_dimensions():
    for lam in [(1, 1), (2, 0), (2, 2)]:
        for word in [(), (0,), (0, 1), (0, 1, 0)]:
            twined = twining_character(A2, lam, word, ID2)
            subs = demazure_subspaces(A2, lam, word)
            dims = CharacterPolynomial(
                2, [(weight_below(A2, lam, beta), dim) for beta, dim in subs.items()])
            assert twined == dims == demazure_character(A2, lam, word)


def test_total_dimension_matches_weyl_formula():
    for label, lam in [("A2", (1, 1)), ("B2", (1, 1)), ("A3", (1, 0, 1))]:
        gcm = cartan_matrix(label)
        subs = demazure_subspaces(gcm, lam, longest_element(gcm))
        assert sum(subs.values()) == weyl_dimension(gcm, lam)


def test_f_action_matches_pair_on_bigger_rank():
    # route cross-check away from rank two
    a3 = cartan_matrix("A3")
    lam = (1, 0, 1)
    y = (0, 1, 2)
    profile = vector_of_word(a3, lam, y)
    for w in fwords((1, 1, 1)):
        assert profile.coords.get(w, 0) == shapovalov_pair(a3, lam, w, y)


def _checked_relations(log):
    """Wrap word_model._relations so that each answer is checked exactly against Fractions."""
    original = word_model._relations

    def relations(vectors, width, rank):
        independent = []
        for vec, found in zip(vectors, original(vectors, width, rank)):
            head = [Fraction(x) for x in vec[:width]]
            if found is None:
                rank = len(fraction_echelon(dict(enumerate(v)) for v in independent + [head]))
                assert rank == len(independent) + 1
                independent.append(head)
            else:
                coords, den = found
                assert type(den) is int and den > 0 and len(coords) == len(independent)
                assert all(type(c) is int for c in coords)
                combination = [sum((Fraction(c, den) * v[k] for c, v in zip(coords, independent)),
                                   Fraction(0)) for k in range(width)]
                assert combination == head
                log.append(den)
            yield found

    return relations


@pytest.mark.parametrize("label, perm, box", [("A2", (1, 0), 2), ("A3", (2, 1, 0), 1),
                                              ("B2", None, 2), ("G2", None, 1)],
                         ids=["A2-flip", "A3-flip", "B2", "G2"])
def test_integer_echelon_matches_fraction_reference(monkeypatch, label, perm, box):
    # every relation the fraction-free elimination reports, while the modules are
    # built and twisted, holds exactly over Fractions, and the integer traces equal
    # those of the Fraction reference model
    gcm = cartan_matrix(label)
    dens, traces = [], 0
    monkeypatch.setattr(word_model, "_relations", _checked_relations(dens))
    word_model._modules.cache_clear()
    for lam in weight_box(gcm.n, 0, box):
        for word, _ in enumerate_weyl(gcm):
            subs = demazure_subspaces(gcm, lam, word)
            if (perm is not None and is_symmetric_weight(lam, perm)
                    and is_in_w_tilde(gcm, word, perm)):
                reference = upward_traces(gcm, lam, word, perm)
                for beta in subs:
                    if is_symmetric_weight(beta, perm):
                        assert _trace(gcm, lam, word, perm, beta) == reference[beta], \
                            (lam, word, beta)
                        traces += 1
    word_model._modules.cache_clear()
    # the relations really carry denominators, and the flips really compare traces
    assert dens and max(dens) > 1
    assert traces or perm is None


def test_echelon_entries_stay_small():
    # each elimination divides its rows by their gcd and each table is reduced to
    # its least denominator, so over the Weyl words of B2 (2, 2), built from an
    # empty cache, the table entries and denominators stay at most 48, and those
    # of the D4 adjoint module at most 2
    for label, lam, bound in [("B2", (2, 2), 48), ("D4", (0, 1, 0, 0), 2)]:
        gcm = cartan_matrix(label)
        word_model._modules.cache_clear()
        for word, _ in enumerate_weyl(gcm):
            demazure_subspaces(gcm, lam, word)
            tables = _module(gcm, lam, word).raising.values()
            assert max((abs(x) for rows, _ in tables for row in rows for x in row),
                       default=0) <= bound, (label, word)
            assert max((den for _, den in tables), default=1) <= bound, (label, word)


# (label, weight, every Weyl word or only the longest); the D4 adjoint module has
# a weight of multiplicity 4, but 192 all-words Demazure modules take a minute
ORACLE_MODULES = [("A2", (1, 1), True), ("A2", (2, 1), True), ("B2", (1, 1), True),
                  ("G2", (1, 0), True), ("A3", (1, 0, 1), True), ("D4", (1, 0, 0, 0), True),
                  ("D4", (0, 1, 0, 0), False)]


@pytest.mark.parametrize("label, lam, every_word", ORACLE_MODULES,
                         ids=[f"{label}-{''.join(map(str, lam))}"
                              for label, lam, _ in ORACLE_MODULES])
def test_basis_words_match_the_all_words_oracle(label, lam, every_word):
    # Demazure pieces of the basis tables against the all-words model, word by
    # word; every content below the longest element: basis size against the Gram
    # rank and the Freudenthal multiplicity
    gcm = cartan_matrix(label)
    words = [w for w, _ in enumerate_weyl(gcm)] if every_word else [longest_element(gcm)]
    for word in words:
        oracle = {beta: s.dimension for beta, s in all_words_subspaces(gcm, lam, word).items()}
        assert demazure_subspaces(gcm, lam, word) == oracle, (label, lam, word)
    # the module of the longest element is L(lam)
    multiplicities = dict(freudenthal_character(gcm, lam).sorted_terms())
    nonempty = demazure_subspaces(gcm, lam, longest_element(gcm))
    assert {weight_below(gcm, lam, beta): m for beta, m in nonempty.items()} == multiplicities
    for beta, m in nonempty.items():
        if content_word_count(beta) <= 300:
            assert weight_space(gcm, lam, beta).dimension == m, (label, lam, beta)


def _raising(module, beta, j):
    """e_j on the basis of beta as a Fraction matrix; a missing table or row entry is zero."""
    cols = module.sizes.get(word_model._shift(beta, j, -1), 0)
    rows, den = module.raising.get((beta, j), (((),) * module.sizes[beta], 1))
    return [[Fraction(x, den) for x in row] + [Fraction(0)] * (cols - len(row)) for row in rows]


def _word_map(module, beta, letters):
    """The matrix of e_{l_1} ... e_{l_m} (l_m acting first) on the basis of beta, or None at 0."""
    matrix = None
    for j in reversed(letters):
        if not (beta[j] and word_model._shift(beta, j, -1) in module.sizes):
            return None
        step = _raising(module, beta, j)
        matrix = step if matrix is None else [
            [sum((x * row[c] for x, row in zip(r, step)), Fraction(0))
             for c in range(len(step[0]))] for r in matrix]
        beta = word_model._shift(beta, j, -1)
    return matrix


@pytest.mark.parametrize("label, lam, every_word", ORACLE_MODULES,
                         ids=[f"{label}-{''.join(map(str, lam))}"
                              for label, lam, _ in ORACLE_MODULES])
def test_tables_satisfy_the_commutator_relation(label, lam, every_word):
    # the raising tables represent n+ in any basis: they satisfy the iterated
    # commutator relations (ad e_j)^m (e_k) = 0 with m = 1 - a_jk (the Serre
    # relations; [e_j, e_k] = 0 when a_jk = 0), expanded as
    # sum_r (-1)^r C(m, r) e_j^(m-r) e_k e_j^r = 0, on every content of the
    # module of the longest element, L(lam)
    gcm = cartan_matrix(label)
    demazure_subspaces(gcm, lam, longest_element(gcm))
    module = _module(gcm, lam, longest_element(gcm))
    checked = 0
    for beta in module.sizes:
        for j, k in product(range(gcm.n), repeat=2):
            m = 1 - gcm.entries[j][k]
            if j == k:
                continue
            total = None
            for r in range(m + 1):
                term = _word_map(module, beta, (j,) * (m - r) + (k,) + (j,) * r)
                if term is None:
                    continue
                term = [[(-1) ** r * comb(m, r) * x for x in row] for row in term]
                total = term if total is None else [[x + y for x, y in zip(a, b)]
                                                    for a, b in zip(total, term)]
            if total is not None:
                assert all(x == 0 for row in total for x in row), (label, lam, beta, j, k)
                checked += 1
    assert checked


def test_the_twist_reads_only_raising_tables(monkeypatch):
    # a module keeps no lowering table; its twist is rebuilt from raising tables alone
    # (the twining character kept with the module is dropped, or it would be served)
    a3 = cartan_matrix("A3")
    perm = (2, 1, 0)
    lam = unfold_weight(fold(a3, perm), (1, 1))
    word = longest_element(a3)
    expected = twining_character(a3, lam, word, perm)
    module = _module(a3, lam, word)
    assert not hasattr(module, "lower")
    with monkeypatch.context() as patched:
        patched.setattr(module, "characters", {})
        assert twining_character(a3, lam, word, perm) == expected
        assert module.characters == {perm: expected}


def test_a_twist_extends_the_twist_of_a_stable_module_below():
    # A3-flip at (1, 0, 1): V_w for the unfolded word (0, 2, 1, 0, 2) is built on
    # V_(1, 0, 2), which commutes with the flip; the basis of V_w begins with that
    # of V_(1, 0, 2), so on it the twist of V_w is the twist of V_(1, 0, 2),
    # zero-padded (the content (1, 1, 1) grows), and it is the same whether or not
    # the character of the module below was asked for first
    a3 = cartan_matrix("A3")
    perm, lam, short, word = (2, 1, 0), (1, 0, 1), (1, 0, 2), (0, 2, 1, 0, 2)
    word_model._modules.cache_clear()
    twining_character(a3, lam, short, perm)
    below = _module(a3, lam, short).twist(perm)
    twining_character(a3, lam, word, perm)
    extended = _module(a3, lam, word).twist(perm)
    for beta, (rows, den) in below.items():
        mine, my_den = extended[beta]
        assert [[Fraction(x, my_den) for x in row[:len(rows[0])]] for row in mine[:len(rows)]] \
            == [[Fraction(x, den) for x in row] for row in rows]
        assert all(x == 0 for row in mine[:len(rows)] for x in row[len(rows[0]):])
    assert len(extended[1, 1, 1][0]) > len(below[1, 1, 1][0])
    word_model._modules.cache_clear()
    twining_character(a3, lam, word, perm)
    assert perm not in _module(a3, lam, short).characters
    assert _module(a3, lam, word).twist(perm) == extended
    word_model._modules.cache_clear()


def test_words_of_one_coset_share_one_module():
    # V_w(lam) depends only on w W_lam: at lam = (1, 0) of A2, s_1 fixes lam, so
    # the six elements give the three modules of the orbit of lam, and a letter
    # that fixes the extremal weight builds nothing
    lam = (1, 0)
    word_model._modules.cache_clear()
    for word, _ in enumerate_weyl(A2):
        demazure_subspaces(A2, lam, word)
    assert len(word_model._modules) == 3
    assert _module(A2, lam, (1,)) is _module(A2, lam, ())
    assert _module(A2, lam, (0, 1)) is _module(A2, lam, (0,))
    assert _module(A2, lam, (1, 0, 1)) is _module(A2, lam, (1, 0))
    word_model._modules.cache_clear()


def test_a_warm_twining_character_solves_no_twist(monkeypatch):
    # the character kept with the module serves a repeated call, of the same word or of
    # another word of the same coset w W_lam: at (0, 1, 0) of A3, s_0 and s_2 fix lam,
    # so (1,), (1, 0, 2) and the unreduced (1, 2, 0, 0, 0) name one module, and only
    # the first call solves its twist
    a3 = cartan_matrix("A3")
    perm, lam = (2, 1, 0), (0, 1, 0)
    twist, calls = word_model._Module.twist, []

    def counting_twist(module, p):
        calls.append(p)
        return twist(module, p)

    monkeypatch.setattr(word_model._Module, "twist", counting_twist)
    word_model._modules.cache_clear()
    first = twining_character(a3, lam, (1,), perm)
    assert calls == [perm]
    for word in [(1,), (1, 0, 2), (1, 2, 0, 0, 0)]:
        assert twining_character(a3, lam, word, perm) == first, word
        assert _module(a3, lam, word) is _module(a3, lam, (1,))
    assert calls == [perm]
    word_model._modules.cache_clear()


def test_an_unreduced_word_peels_through_the_stable_chain(monkeypatch):
    # A3-flip at (1, 0, 1): V_w is found by peeling descents off w(lam), one flip orbit
    # at a time, not by the letters of the word, so the unreduced (0, 2, 1, 0, 2, 1, 1)
    # builds on the stable V_(1, 0, 2) exactly as the reduced (0, 2, 1, 0, 2) does:
    # 2 modules, and a twist that solves the 14 rows of its own contents below the top
    a3 = cartan_matrix("A3")
    perm, lam = (2, 1, 0), (1, 0, 1)
    grown, solved = word_model._grown, word_model._solved
    work = {}

    def counting_grown(*args):
        work["modules"] += 1
        work["building"] = True
        try:
            return grown(*args)
        finally:
            work["building"] = False

    def counting_solved(module, beta, letters, blocks, count, rank):
        if not work["building"]:   # a twist's solve, not a build's
            work["rows"] += count
        return solved(module, beta, letters, blocks, count, rank)

    monkeypatch.setattr(word_model, "_grown", counting_grown)
    monkeypatch.setattr(word_model, "_solved", counting_solved)
    results = []
    for word in [(0, 2, 1, 0, 2), (0, 2, 1, 0, 2, 1, 1)]:
        word_model._modules.cache_clear()
        work.update(modules=0, rows=0, building=False)
        twining_character(a3, lam, (1, 0, 2), perm)
        work.update(modules=0, rows=0)
        results.append(twining_character(a3, lam, word, perm))
        assert (work["modules"], work["rows"]) == (2, 14), word
    assert results[0] == results[1]
    word_model._modules.cache_clear()


def test_the_peel_refuses_a_content_that_does_not_match_its_weight():
    # at the dominant weight (1, 1) the content must be 0: with (1, 0) no descent is
    # left to peel, and the miss stops at once, before it caches anything
    word_model._modules.cache_clear()
    with pytest.raises(NoDescentFound) as raised:
        word_model._module(A2, (1, 1), (0,), word_model.DEFAULT_WORD_CAP,
                           ((1, 0), (1, 1)), ID2)
    assert raised.value.exit_code == 4
    assert len(word_model._modules) == 0


def test_a_twist_need_not_close_up_on_a_moved_orbit():
    # the 4-cycle (2, 3, 1, 0) of A2xA2 is one orbit of row sum 1 and folds to A1; the
    # content (1, 1, 0, 0) of V_w0(1, 1, 1, 1) has a tau-orbit of size 2, yet tau^2,
    # the flip of each A2, traces 0 on its 2 dimensions: tau^m is not 1 on the weight
    # spaces of an orbit of size m
    config = harness.BatteryConfig(families=(A2XA2_CYCLE,), lambda_box=1)
    assert harness.run_battery(config).counts == {"equal": 4, "unequal": 0, "skipped": 0}
    gcm, perm = validate_gcm(A2XA2_CYCLE.gcm), A2XA2_CYCLE.automorphism
    beta = (1, 1, 0, 0)
    moved = word_model._permuted(beta, perm)
    assert moved != beta and word_model._permuted(moved, perm) == beta
    w0 = longest_element(gcm)
    assert demazure_subspaces(gcm, (1, 1, 1, 1), w0)[beta] == 2
    assert _trace(gcm, (1, 1, 1, 1), w0, (1, 0, 3, 2), beta) == 0


def test_twining_character_refuses_a_permutation_that_is_not_an_automorphism():
    # (1, 0) does not preserve the B2 matrix, and (0, 0) is no bijection
    b2 = cartan_matrix("B2")
    for gcm, lam, perm in [(b2, (1, 1), (1, 0)), (A2, RHO, (0, 0))]:
        with pytest.raises(InvalidInput):
            twining_character(gcm, lam, longest_element(gcm), perm)


TWINING_FAMILIES = [("A2", (1, 0), [(1,), (2,)]), ("A3", (2, 1, 0), [(1, 0), (0, 1), (1, 1)]),
                    ("A4", (3, 2, 1, 0), [(1, 0), (0, 1)]), ("D4", (2, 1, 3, 0), [(0, 1)]),
                    ("D4", (0, 1, 3, 2), [(0, 1, 0), (1, 0, 0)])]


@pytest.mark.parametrize("label, perm, lambda_hats", TWINING_FAMILIES,
                         ids=["A2-flip", "A3-flip", "A4-flip", "D4-triality", "D4-swap"])
def test_twining_character_matches_the_all_words_oracle(label, perm, lambda_hats):
    data = fold(cartan_matrix(label), perm)
    for lambda_hat in lambda_hats:
        lam = unfold_weight(data, lambda_hat)
        for w_hat, _ in enumerate_weyl(data.folded):
            word = unfold_word(data, w_hat)
            twined = twining_character(data.gcm, lam, word, perm)
            assert twined == all_words_twining_character(data.gcm, lam, word, perm), \
                (lambda_hat, w_hat)
            # words of the same element that are not reduced give the same module
            subs = demazure_subspaces(data.gcm, lam, word)
            i = len(word) % data.gcm.n
            for longer in (word + (i, i), (i, i) + word):
                assert demazure_subspaces(data.gcm, lam, longer) == subs, (lambda_hat, longer)
                assert twining_character(data.gcm, lam, longer, perm) == twined


FORMER_SKIPS = [("A4", (3, 2, 1, 0), (0, 1), w_hat) for w_hat in [(1, 0, 1), (0, 1, 0, 1)]] + [
    ("D4", (2, 1, 3, 0), (1, 0), w_hat)
    for w_hat in [(0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1, 0), (1, 0, 1, 0, 1),
                  (0, 1, 0, 1, 0, 1)]]


@pytest.mark.parametrize("label, perm, lambda_hat, w_hat", FORMER_SKIPS,
                         ids=[f"{label}-{''.join(map(str, lh))}-{''.join(map(str, w))}"
                              for label, _, lh, w in FORMER_SKIPS])
def test_former_word_cap_skips_verify_at_the_default_cap(label, perm, lambda_hat, w_hat):
    # the all-words model needed up to 6.4e8 words per content here and was skipped
    report = harness.verify({"gcm": label, "automorphism": list(perm),
                             "lambda_hat": list(lambda_hat), "w_hat": list(w_hat)})
    assert report.equal
    data = fold(cartan_matrix(label), perm)
    if len(w_hat) == len(longest_element(data.folded)):
        assert report.lhs.coefficient_sum() == weyl_dimension(data.folded, lambda_hat)


def test_word_cap_counts_the_basis_words_of_a_rank_one_string():
    # V_{s_0}(k) of A1 is L(k): k + 1 basis vectors, one per content.  The cap
    # bounds dim V_w, so it bounds that height even though each multiplicity is 1
    a1 = cartan_matrix("A1")
    cap = word_model.DEFAULT_WORD_CAP
    assert twining_character(a1, (cap - 1,), (0,), (0,)).coefficient_sum() == cap
    with pytest.raises(TooLarge):
        twining_character(a1, (cap,), (0,), (0,))
    assert twining_character(a1, (cap,), (0,), (0,), word_cap=cap + 1).coefficient_sum() \
        == cap + 1


def test_thin_module_taller_than_the_recursion_limit():
    # the twist walks every content below the top; this one is 1200 letters high
    height = 1200
    assert height > sys.getrecursionlimit()
    report = harness.verify({"gcm": "D4", "automorphism": [0, 1, 3, 2],
                             "lambda_hat": [height, 0, 0], "w_hat": [0]}, word_cap=2 * height)
    assert report.equal
    assert report.lhs.coefficient_sum() == height + 1


def test_a_basis_smaller_than_the_weyl_conjugate_is_reported(monkeypatch):
    # e_1 tampered to zero at content (0, 1) of V_{s_1 s_0}(2, 1) of A2: V_{s_0 s_1 s_0}
    # then finds fewer basis vectors at content (1, 1) than at its s_0-conjugate
    word_model._modules.cache_clear()
    lam = (2, 1)
    demazure_subspaces(A2, lam, (1, 0))
    monkeypatch.setitem(_module(A2, lam, (1, 0)).raising, ((0, 1), 1), (((0,),), 1))
    with pytest.raises(RankMismatch, match="s_0-conjugate"):
        demazure_subspaces(A2, lam, (0, 1, 0))
    word_model._modules.cache_clear()


# (label, automorphism, weights): every word of length <= 4, non-reduced included
UPWARD_CASES = [("A2", (1, 0), [(1, 1), (2, 1), (2, 2)]),
                ("A3", (2, 1, 0), [(1, 0, 1), (0, 1, 0), (1, 1, 1)]),
                ("D4", (0, 1, 3, 2), [(0, 1, 0, 0), (1, 0, 0, 0)])]


@pytest.mark.parametrize("label, perm, weights", UPWARD_CASES,
                         ids=["A2-flip", "A3-flip", "D4-swap"])
def test_demazure_recursion_matches_the_upward_reference(label, perm, weights):
    # the definition U(n+) v_{w(lam)} inside L(lam) against Demazure's recursion:
    # per-content dimensions for every word, twining characters where defined
    gcm = cartan_matrix(label)
    twined = 0
    for lam in weights:
        for length in range(5):
            for word in product(range(gcm.n), repeat=length):
                ours = demazure_subspaces(gcm, lam, word)
                reference = {beta: len(rows)
                             for beta, rows in upward_subspaces(gcm, lam, word).items()}
                assert ours == reference, (lam, word)
                if is_symmetric_weight(lam, perm) and is_in_w_tilde(gcm, word, perm):
                    assert twining_character(gcm, lam, word, perm) \
                        == upward_twining_character(gcm, lam, word, perm), (lam, word)
                    twined += 1
    assert twined


def test_cache_state_never_changes_a_verdict():
    # A4-flip lambda_hat=[0,1], w_hat=[1,0,1]: with the cap one below dim V_w it is
    # skipped and at dim V_w it is decided, whatever the module and character caches hold
    instance = {"gcm": "A4", "automorphism": [3, 2, 1, 0], "lambda_hat": [0, 1],
                "w_hat": [1, 0, 1]}
    prep = harness.prepare(harness.parse_instance(instance))
    dim = sum(demazure_subspaces(prep.gcm, prep.lam, prep.w).values())

    def outcome(cap):
        try:
            report = harness.verify(instance, word_cap=cap).to_dict()
        except TooLarge as exc:
            return "skipped: " + str(exc)
        del report["ms"]
        return json.dumps(report)

    seen = {dim - 1: set(), dim: set()}
    for order in [(dim - 1, dim), (dim, dim - 1)]:
        for clear in [(word_model._modules,), (characters._characters,),
                      (word_model._modules, characters._characters)]:
            for cache in clear:
                cache.cache_clear()
            for cap in order:
                seen[cap] |= {outcome(cap), outcome(cap)}   # cold, then warm
            for cache in clear:
                cache.cache_clear()
            for cap in order:
                seen[cap].add(outcome(cap))
    assert len(seen[dim - 1]) == len(seen[dim]) == 1
    assert seen[dim - 1].pop().startswith("skipped: ")
    assert json.loads(seen[dim].pop())["equal"]


def test_threads_share_the_module_cache(monkeypatch):
    # caches so small that modules and folded characters are dropped while other
    # threads build and read them: every thread gets the sequential results of both
    # routes, and the count of vectors held matches the modules held
    monkeypatch.setattr(word_model._modules, "limit", 40)
    monkeypatch.setattr(characters._characters, "limit", 3)
    family = harness.BatteryFamily("A3-flip", "A3", (2, 1, 0), ((1, 1), (1, 0)))
    instances = [inst for _, inst in harness.battery_instances(
        harness.BatteryConfig(families=(family,)))]
    expected = [(report.lhs, report.rhs, report.equal)
                for report in map(harness.verify, instances)]
    word_model._modules.cache_clear()
    characters._characters.cache_clear()
    results, failures = [], []

    def work(offset):
        try:
            for k in range(5 * len(instances)):
                j = (k + offset) % len(instances)
                report = harness.verify(instances[j])
                results.append((report.lhs, report.rhs, report.equal) == expected[j])
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(results) == 4 * 5 * len(instances) and all(results)
    cache = word_model._modules
    assert cache.held == sum(module.dimension for module in cache.values())
    assert cache.held <= 40 or len(cache) == 1
    assert len(characters._characters) <= 3
    word_model._modules.cache_clear()
    characters._characters.cache_clear()
