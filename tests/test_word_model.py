"""The word model: basis tables, subspaces and traces, against the all-words oracle."""

import sys
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinchar import harness, word_model
from twinchar.characters import demazure_character
from twinchar.errors import (
    InvalidInput,
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
    Subspace,
    Vector,
    demazure_subspaces,
    twining_character,
    twining_trace,
    weight_below,
)

from oracles import (
    all_words_subspaces,
    all_words_twining_character,
    content_word_count,
    e_action,
    freudenthal_character,
    fwords,
    highest_weight_vector,
    root_coords,
    shapovalov_pair,
    tau_twist,
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
            if not gcm.is_dominant(mu):
                continue
            beta = root_coords(gcm, tuple(l - m for l, m in zip(lam, mu)))
            assert weight_space(gcm, lam, beta).dimension == mult, (label, lam, mu)


def test_demazure_subspaces_examples():
    subs = demazure_subspaces(A2, RHO, (0,))
    assert {beta: s.dimension for beta, s in subs.items()} == {(0, 0): 1, (1, 0): 1}
    subs0 = demazure_subspaces(A2, RHO, ())
    assert {beta: s.dimension for beta, s in subs0.items()} == {(0, 0): 1}
    full = demazure_subspaces(A2, RHO, (0, 1, 0))
    assert sum(s.dimension for s in full.values()) == 8
    # the top content is the extremal weight w(lam), spanned by the line [1]
    top = next(iter(full))
    assert top == (2, 2) and weight_below(A2, RHO, top) == (-1, -1)
    assert [r.coords for r in full[top].rows] == [{0: 1}] and full[top].scale == 1
    assert list(demazure_subspaces(validate_gcm([[2]]), (3,), (0,))) == [(3,), (2,), (1,), (0,)]
    with pytest.raises(TooLarge):
        demazure_subspaces(A2, (3, 3), (0, 1, 0), word_cap=50)


def test_demazure_subspaces_echelon_invariants():
    for word in [(0,), (0, 1), (0, 1, 0)]:
        for beta, sub in demazure_subspaces(A2, (2, 1), word).items():
            pivots = list(sub.pivots)
            assert pivots == sorted(pivots)
            assert sub.scale > 0
            for j, row in enumerate(sub.rows):
                assert row.coords[pivots[j]] == sub.scale
                for k, other in enumerate(sub.rows):
                    if k != j:
                        assert pivots[j] not in other.coords


def test_twining_traces_for_a2_adjoint():
    subs = demazure_subspaces(A2, RHO, (0, 1, 0))
    assert twining_trace(subs[(0, 0)], FLIP) == 1
    assert twining_trace(subs[(1, 1)], FLIP) == 0
    assert twining_trace(subs[(2, 2)], FLIP) == 1


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
    # w = s_0 is outside the commuting subgroup: some subspace must fail
    subs = demazure_subspaces(A2, RHO, (0,))
    with pytest.raises(NotTauStable):
        for sub in subs.values():
            twining_trace(sub, FLIP)


def test_identity_automorphism_reduces_to_dimensions():
    for lam in [(1, 1), (2, 0), (2, 2)]:
        for word in [(), (0,), (0, 1), (0, 1, 0)]:
            twined = twining_character(A2, lam, word, ID2)
            subs = demazure_subspaces(A2, lam, word)
            dims = CharacterPolynomial(
                2, [(weight_below(A2, lam, beta), sub.dimension)
                    for beta, sub in subs.items()])
            assert twined == dims == demazure_character(A2, lam, word)


def test_total_dimension_matches_weyl_formula():
    for label, lam in [("A2", (1, 1)), ("B2", (1, 1)), ("A3", (1, 0, 1))]:
        gcm = cartan_matrix(label)
        subs = demazure_subspaces(gcm, lam, longest_element(gcm))
        assert sum(s.dimension for s in subs.values()) == weyl_dimension(gcm, lam)


def test_f_action_matches_pair_on_bigger_rank():
    # route cross-check away from rank two
    a3 = cartan_matrix("A3")
    lam = (1, 0, 1)
    y = (0, 1, 2)
    profile = vector_of_word(a3, lam, y)
    for w in fwords((1, 1, 1)):
        assert profile.coords.get(w, 0) == shapovalov_pair(a3, lam, w, y)


def _subtract_scaled(target, c, source):
    for k, v in source.items():
        value = target.get(k, 0) - c * v
        if value:
            target[k] = value
        else:
            del target[k]


def _fraction_span(tables, content, vectors):
    """Reference echelon: Fraction rows with every pivot normalized to 1."""
    rows, pivots = [], []
    for vector in vectors:
        work = {k: Fraction(v) for k, v in enumerate(vector) if v}
        for pivot, row in zip(pivots, rows):
            if work.get(pivot):
                _subtract_scaled(work, work[pivot], row)
        if not work:
            continue
        pivot = min(work)
        work = {k: v / work[pivot] for k, v in work.items()}
        for row in rows:
            if row.get(pivot):
                _subtract_scaled(row, row[pivot], work)
        pos = bisect_left(pivots, pivot)
        pivots.insert(pos, pivot)
        rows.insert(pos, work)
    return Subspace(tables.lam, content, tuple(Vector(content, r) for r in rows),
                    tuple(pivots), 1, tables)


def _fraction_trace(sub, perm):
    """Reference trace: expand each twisted row over the normalized rows."""
    t_rows, t_den = sub.tables.twist(perm, sub.content)
    trace = 0
    for j, row in enumerate(sub.rows):
        work = {}
        for k, x in row.coords.items():
            for l, y in enumerate(t_rows[k]):
                if y:
                    work[l] = work.get(l, 0) + Fraction(x * y, t_den)
        work = {k: v for k, v in work.items() if v}
        coefficients = [work.get(pivot, 0) for pivot in sub.pivots]
        for c, other in zip(coefficients, sub.rows):
            if c:
                _subtract_scaled(work, c, other.coords)
        assert not work
        trace += coefficients[j]
    return trace


@pytest.mark.parametrize("label, perm, box", [("A2", (1, 0), 2), ("A3", (2, 1, 0), 1),
                                              ("B2", None, 2), ("G2", None, 1)],
                         ids=["A2-flip", "A3-flip", "B2", "G2"])
def test_integer_echelon_matches_fraction_reference(monkeypatch, label, perm, box):
    gcm = cartan_matrix(label)
    scales, traces = set(), 0
    for lam in weight_box(gcm.n, 0, box):
        for word, _ in enumerate_weyl(gcm):
            subs = demazure_subspaces(gcm, lam, word)
            with monkeypatch.context() as patched:
                patched.setattr(word_model, "_span", _fraction_span)
                reference = demazure_subspaces(gcm, lam, word)
            assert subs.keys() == reference.keys()
            for beta, sub in subs.items():
                ref = reference[beta]
                assert type(sub.scale) is int and sub.scale > 0
                scales.add(sub.scale)
                assert sub.pivots == ref.pivots
                for row, ref_row in zip(sub.rows, ref.rows):
                    assert all(type(x) is int for x in row.coords.values())
                    assert {k: Fraction(x, sub.scale) for k, x in row.coords.items()} \
                        == ref_row.coords
                if (perm is not None and is_symmetric_weight(lam, perm)
                        and is_in_w_tilde(gcm, word, perm)
                        and is_symmetric_weight(beta, perm)):
                    assert twining_trace(sub, perm) == _fraction_trace(ref, perm)
                    traces += 1
    # the rows really are scaled, and the flips really compare traces
    assert max(scales) > 1
    assert traces or perm is None


def test_echelon_entries_stay_small():
    # inputs are divided by their gcd before reduction; without that the scale of
    # one content feeds the next, and over the Weyl words of B2 (2, 2) the entries
    # reach 4e7 (204 with it; the D4 adjoint module reaches 3 either way)
    for label, lam, bound in [("B2", (2, 2), 1000), ("D4", (0, 1, 0, 0), 3)]:
        gcm = cartan_matrix(label)
        for word, _ in enumerate_weyl(gcm):
            subs = demazure_subspaces(gcm, lam, word)
            assert max(abs(x) for s in subs.values() for r in s.rows
                       for x in r.coords.values()) <= bound, (label, word)


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
        ours = {beta: s.dimension for beta, s in demazure_subspaces(gcm, lam, word).items()}
        oracle = {beta: s.dimension for beta, s in all_words_subspaces(gcm, lam, word).items()}
        assert ours == oracle, (label, lam, word)
    tables = word_model._tables(gcm, lam)
    multiplicities = dict(freudenthal_character(gcm, lam).sorted_terms())
    nonempty = {beta: m for beta, m in tables.sizes.items() if m}
    assert {weight_below(gcm, lam, beta): m for beta, m in nonempty.items()} == multiplicities
    for beta, m in nonempty.items():
        if content_word_count(beta) <= 300:
            assert weight_space(gcm, lam, beta).dimension == m, (label, lam, beta)


def _fractions(table, rows, cols):
    """A table as a rows x cols matrix of Fractions; a missing table is zero."""
    if table is None:
        return [[Fraction(0)] * cols for _ in range(rows)]
    numerators, den = table
    return [[Fraction(x, den) for x in row] for row in numerators]


def _times(a, b, cols):
    return [[sum((x * row[c] for x, row in zip(r, b)), Fraction(0)) for c in range(cols)]
            for r in a]


@pytest.mark.parametrize("label, lam, every_word", ORACLE_MODULES,
                         ids=[f"{label}-{''.join(map(str, lam))}"
                              for label, lam, _ in ORACLE_MODULES])
def test_tables_satisfy_the_commutator_relation(label, lam, every_word):
    # [e_j, f_i] = delta_ij h_i holds in any basis: on the basis of gamma,
    # lower[gamma, i] raising[gamma + e_i, j]
    #     == raising[gamma, j] lower[gamma - e_j, i] + delta_ij <lam - gamma, alpha_i^vee> I
    gcm = cartan_matrix(label)
    tables = word_model._tables(gcm, lam)
    tables.grow(word_model._content(gcm, lam, longest_element(gcm)), 10 ** 6)
    size, shift = tables.size, word_model._shift
    checked = 0
    for (gamma, i), lower in list(tables.lower.items()):
        up = shift(gamma, i, 1)
        if not (size(gamma) and size(up)):
            continue
        f_i = _fractions(lower, size(gamma), size(up))
        h = lam[i] - sum(a * g for a, g in zip(gcm.entries[i], gamma))
        for j in (j for j in range(gcm.n) if up[j]):
            target = shift(up, j, -1)
            lhs = _times(f_i, _fractions(tables.raising[up, j], size(up), size(target)),
                         size(target))
            rhs = [[Fraction(h * (i == j and r == c)) for c in range(size(target))]
                   for r in range(size(gamma))]
            if gamma[j]:
                down = shift(gamma, j, -1)
                e_j = _fractions(tables.raising[gamma, j], size(gamma), size(down))
                f_below = _fractions(tables.lower.get((down, i)), size(down), size(target))
                rhs = [[x + y for x, y in zip(row, other)]
                       for row, other in zip(rhs, _times(e_j, f_below, size(target)))]
            assert lhs == rhs, (label, lam, gamma, i, j)
            checked += 1
    assert checked


def test_the_twist_reads_only_raising_tables(monkeypatch):
    a3 = cartan_matrix("A3")
    perm = (2, 1, 0)
    lam = unfold_weight(fold(a3, perm), (1, 1))
    word = longest_element(a3)
    expected = twining_character(a3, lam, word, perm)
    tables = word_model._tables(a3, lam)
    with monkeypatch.context() as patched:
        patched.setattr(tables, "lower", {})
        patched.setattr(tables, "twists", {})
        assert twining_character(a3, lam, word, perm) == expected


def test_twining_trace_refuses_a_permutation_that_is_not_an_automorphism():
    # (1, 0) does not preserve the B2 matrix, and (0, 0) is no bijection
    b2 = cartan_matrix("B2")
    for gcm, lam, perm in [(b2, (1, 1), (1, 0)), (A2, RHO, (0, 0))]:
        for sub in demazure_subspaces(gcm, lam, longest_element(gcm)).values():
            with pytest.raises(InvalidInput):
                twining_trace(sub, perm)


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
    # L(k) of A1 holds k + 1 basis words, one per content, all of them built for
    # the word (0,): the cap bounds that height even though each multiplicity is 1
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


def test_a_basis_smaller_than_the_weyl_conjugate_is_reported():
    # e_0 tampered to zero at content (1,) of L(2) of A1: content (2,) then finds no
    # basis word, where its Weyl conjugate, content (0,), has one
    tables = word_model._Tables(cartan_matrix("A1"), (2,))
    tables.grow((1,), 10)
    tables.raising[(1,), 0] = (((0,),), 1)
    with pytest.raises(RankMismatch):
        tables.grow((2,), 10)


def test_a_line_is_spanned_as_the_elimination_would_span_it():
    tables = word_model._tables(A2, RHO)
    demazure_subspaces(A2, RHO, (0,))
    assert tables.size((1, 0)) == 1
    for vectors in ([[6], [-4]], [[0], [-2]], [[0]]):
        line = word_model._span(tables, (1, 0), vectors)
        rows, pivots = word_model._echelon(vectors, 1)
        assert [[row.coords.get(0, 0)] for row in line.rows] == rows
        assert list(line.pivots) == pivots and line.scale == 1
