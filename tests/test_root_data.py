"""Cartan matrix validation, weight arithmetic, roots and dimensions."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinchar import weyl
from twinchar.characters import demazure_character
from twinchar.errors import InvalidInput, NotDominant, NotFiniteType, NotGCM, NotSymmetrizable
from twinchar.folding import fold, fold_weight, fold_word, unfold_weight, unfold_word
from twinchar.root_data import (
    cartan_matrix,
    diagram_permutation,
    dominant_weight,
    int_tuple,
    is_symmetric_weight,
    positive_roots,
    validate_gcm,
    weight_box,
    weyl_dimension,
)
from twinchar.word_model import demazure_subspaces, twining_character

from oracles import (
    A2_PLUS_AFFINE_A1,
    AFFINE_FAMILIES,
    leading_principal_minors,
    root_coords,
    weight_space,
)

CATALOG = ["A2", "A3", "A4", "B2", "C3", "D4", "G2"]

# positive-root counts for the catalog (n*h/2 table)
ROOT_COUNTS = {"A2": 3, "A3": 6, "B2": 4, "D4": 12, "E6": 36, "G2": 6}


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
    # entries must be ints: a float or a bool is rejected even when it equals one
    for matrix in ([[2.0, -1], [-1, 2]], [[2, False], [False, 2]], [[2, -1], [-1.0, 2]],
                   [[2, -1], [-1, "2"]], [[2, -1], 5], 5, None):
        with pytest.raises(InvalidInput):
            validate_gcm(matrix)
    # a catalog label must be a string
    for label in (5, None, ["A2"]):
        with pytest.raises(InvalidInput):
            cartan_matrix(label)


def test_non_symmetrizable_cycle_rejected():
    # 3-cycle with mismatched edge ratios cannot carry a symmetrizer
    with pytest.raises(NotSymmetrizable):
        validate_gcm([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])


def fraction_symmetrizer(entries):
    """Oracle: rational propagation d_j = d_i a_ij / a_ji, cleared to coprime integers."""
    n = len(entries)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component, queue = [start], [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j != i and entries[i][j]:
                    want = d[i] * Fraction(entries[i][j], entries[j][i])
                    if d[j] is None:
                        d[j] = want
                        component.append(j)
                        queue.append(j)
                    elif d[j] != want:
                        return None
        scale = math.lcm(*(d[k].denominator for k in component))
        ints = [int(d[k] * scale) for k in component]
        g = math.gcd(*ints)
        for k, v in zip(component, ints):
            d[k] = v // g
    return tuple(d)


def test_integer_symmetrizer_matches_rational_propagation():
    # every rank <= 3 zero-pattern-symmetric matrix with off-diagonal entries in {0..-4}
    values = range(-4, 1)
    checked = rejected = 0
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for choice in product(product(values, repeat=2), repeat=len(pairs)):
            if any((a == 0) != (b == 0) for a, b in choice):
                continue
            m = [[2] * n for _ in range(n)]
            for (i, j), (a, b) in zip(pairs, choice):
                m[i][j], m[j][i] = a, b
            expected = fraction_symmetrizer(m)
            if expected is None:
                with pytest.raises(NotSymmetrizable):
                    validate_gcm(m)
                rejected += 1
            else:
                assert validate_gcm(m).symmetrizer == expected, m
                checked += 1
    assert checked > 1000 and rejected > 1000, (checked, rejected)


def test_symmetrizer_makes_da_symmetric():
    for label in CATALOG:
        gcm = cartan_matrix(label)
        d = gcm.symmetrizer
        for i in range(gcm.n):
            for j in range(gcm.n):
                assert d[i] * gcm.entries[i][j] == d[j] * gcm.entries[j][i]


def test_finite_type_detection():
    assert cartan_matrix("A2").finite
    assert not validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm).finite
    assert validate_gcm([[2]]).finite
    for label in CATALOG:
        assert cartan_matrix(label).finite, label
    # a block sum is finite exactly when every block is, in either order of the blocks
    affine_first = [row[2:] + row[:2] for row in A2_PLUS_AFFINE_A1[2:] + A2_PLUS_AFFINE_A1[:2]]
    a2_b2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -1, 2]]
    blocks = [validate_gcm(m) for m in (A2_PLUS_AFFINE_A1, affine_first, a2_b2)]
    assert [gcm.finite for gcm in blocks] == [False, False, True]
    # the walk against Sylvester's criterion on the symmetrizable matrix: finite type
    # exactly when every leading principal minor, by cofactor expansion, is positive
    for gcm in blocks + [cartan_matrix(label) for label in CATALOG + ["E6"]] + [
            validate_gcm(family.gcm) for family in AFFINE_FAMILIES.values()]:
        assert gcm.finite == all(m > 0 for m in leading_principal_minors(gcm.entries))


def test_simple_root_and_reflection_examples():
    a2 = cartan_matrix("A2")
    assert a2.simple_root(0) == (2, -1)
    assert a2.simple_root(1) == (-1, 2)
    assert weyl.act(a2, (0,), (1, 1)) == (-1, 2)
    with pytest.raises(NotDominant):
        dominant_weight(a2, (-1, 2))
    assert dominant_weight(a2, (0, 3)) == (0, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_reflection_is_an_involution(label, data):
    gcm = cartan_matrix(label)
    lam = tuple(data.draw(st.integers(-4, 4)) for _ in range(gcm.n))
    for i in range(gcm.n):
        once = weyl.act(gcm, (i,), lam)
        assert once[i] == -lam[i]
        assert weyl.act(gcm, (i,), once) == lam


def test_root_coordinate_round_trip():
    for label in CATALOG:
        gcm = cartan_matrix(label)
        for beta in positive_roots(gcm):
            assert root_coords(gcm, gcm.weight_of_root(beta)) == beta


def test_root_coords_off_the_root_lattice():
    with pytest.raises(ValueError, match="root lattice"):
        root_coords(cartan_matrix("A2"), (1, 0))


def test_root_coords_of_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        root_coords(validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm), (0, 0))


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
        positive_roots(validate_gcm(AFFINE_FAMILIES["A1^(1)"].gcm))


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
    # the chain 0-2-3-4-5 with node 1 on node 3
    assert cartan_matrix("E6").entries == (
        (2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2))


@pytest.mark.parametrize("call", [
    lambda gcm, lam: weyl_dimension(gcm, lam),
    lambda gcm, lam: demazure_character(gcm, lam, (0,)),
    lambda gcm, lam: weight_space(gcm, lam, (1, 0)),
    lambda gcm, lam: demazure_subspaces(gcm, lam, (0,)),
    lambda gcm, lam: twining_character(gcm, lam, (0, 1, 0), (1, 0)),
], ids=["weyl_dimension", "demazure_character", "weight_space",
        "demazure_subspaces", "twining_character"])
@pytest.mark.parametrize("lam", [(1, 1, 1), (1,)])
def test_weight_of_wrong_size_is_rejected(call, lam):
    with pytest.raises(InvalidInput):
        call(cartan_matrix("A2"), lam)


@pytest.mark.parametrize("call", [
    lambda gcm, word: fold_word(fold(gcm, (0, 1)), word),
    lambda gcm, word: weyl.element_of(gcm, word),
    lambda gcm, word: weyl.act(gcm, word, (1, 1)),
    lambda gcm, word: weyl.is_in_w_tilde(gcm, word, (1, 0)),
    lambda gcm, word: demazure_character(gcm, (1, 1), word),
    lambda gcm, word: demazure_subspaces(gcm, (1, 1), word),
    lambda gcm, word: twining_character(gcm, (1, 1), word, (1, 0)),
    lambda gcm, word: unfold_word(fold(gcm, (1, 0)), word),
    lambda gcm, word: fold_word(fold(gcm, (1, 0)), word),
], ids=["reduced_word", "element_of", "act", "is_in_w_tilde",
        "demazure_character", "demazure_subspaces", "twining_character",
        "unfold_word", "fold_word"])
@pytest.mark.parametrize("word", [(True, 0), (1.0,), ("1",)], ids=["bool", "float", "str"])
def test_word_of_non_integers_is_rejected(call, word):
    with pytest.raises(InvalidInput):
        call(cartan_matrix("A2"), word)


@pytest.mark.parametrize("call", [
    lambda gcm, entry: weyl.act(gcm, (0,), (entry, entry)),
    lambda gcm, entry: fold_weight(fold(gcm, (1, 0)), (entry, entry)),
    lambda gcm, entry: unfold_weight(fold(gcm, (1, 0)), (entry,)),
    lambda gcm, entry: weyl.is_in_w_tilde(gcm, (0,), (1, entry)),
    lambda gcm, entry: dominant_weight(gcm, (entry, 0)),
], ids=["act", "fold_weight", "unfold_weight", "is_in_w_tilde", "dominant_weight"])
@pytest.mark.parametrize("entry", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_weight_of_non_integers_is_rejected(call, entry):
    # a weight or permutation of the right size, one entry equal to an integer but not one:
    # a float would walk to a float weight, a str or a float index would escape as TypeError
    with pytest.raises(InvalidInput):
        call(cartan_matrix("A2"), entry)


@pytest.mark.parametrize("call", [
    lambda gcm, value: demazure_character(gcm, value, (0,)),
    lambda gcm, value: demazure_character(gcm, (1, 0), value),
    lambda gcm, value: diagram_permutation(gcm, value),
    lambda gcm, value: twining_character(gcm, (1, 1), (), value),
    lambda gcm, value: validate_gcm(value),
], ids=["weight", "word", "automorphism", "twining_automorphism", "matrix"])
@pytest.mark.parametrize("value", [{1: "x", 0: "y"}, {1, 0}, frozenset({1, 0}),
                                   {(2, -1): 0, (-1, 2): 0}],
                         ids=["dict", "set", "frozenset", "dict_of_rows"])
def test_unordered_containers_are_rejected(call, value):
    # a dict would pass as its keys (the dict of rows as the A2 matrix) and a set
    # in its own order
    with pytest.raises(InvalidInput):
        call(cartan_matrix("A2"), value)


def set_based_int_tuple(values, what):
    """Oracle: ``int_tuple`` as it stood before its list fast path, one set per test."""
    if type(values) is tuple:
        out = values
    elif isinstance(values, (dict, set, frozenset)):
        raise InvalidInput(f"{what} {values!r} is unordered, not a list")
    else:
        try:
            out = tuple(values)
        except TypeError:
            raise InvalidInput(f"{what} {values!r} is not a list") from None
    if {int, *map(type, out)} != {int}:
        raise InvalidInput(f"{what} {list(out)} has a non-integer entry")
    return out


class ListSubclass(list):
    pass


ATOMS = st.one_of(st.integers(), st.booleans(), st.floats(), st.text(max_size=2), st.none())
ENTRIES = st.one_of(ATOMS, st.lists(st.integers(), max_size=2))
# each kind builds its input afresh from the drawn entries: a generator is read once
CONTAINERS = {
    "list": list, "tuple": tuple, "list subclass": ListSubclass,
    "generator": lambda entries: (x for x in entries), "iterator": iter,
    "dict": dict.fromkeys, "set": set, "frozenset": frozenset,
}


def _outcome(function, values):
    try:
        return "ok", function(values, "field 'w'")
    except InvalidInput as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CONTAINERS)), st.lists(ENTRIES, max_size=4),
       st.lists(ATOMS, max_size=4),
       st.one_of(st.integers(), st.floats(allow_nan=False), st.none(), st.binary(max_size=3)))
def test_int_tuple_accepts_and_rejects_as_the_set_based_check(kind, entries, hashable,
                                                               scalar):
    # lists, tuples and generators of any entries, nested lists and empty inputs; dicts,
    # sets and frozensets (of hashable entries); non-iterables, and bytes, which iterate
    # as ints: the result or the InvalidInput message is the oracle's
    build = CONTAINERS[kind]
    drawn = hashable if kind in ("dict", "set", "frozenset") else entries
    assert _outcome(int_tuple, build(drawn)) == _outcome(set_based_int_tuple, build(drawn))
    assert _outcome(int_tuple, scalar) == _outcome(set_based_int_tuple, scalar)


def _map_is_symmetric_weight(lam, perm):
    """Oracle: ``is_symmetric_weight`` as it stood before it read the weight by ``itemgetter``."""
    return len(lam) == len(perm) and tuple(map(lam.__getitem__, perm)) == tuple(lam)


def test_is_symmetric_weight_agrees_with_the_map_definition():
    # itemgetter of one index returns the entry itself, so rank 1 takes its own branch
    for n in range(5):
        for perm in permutations(range(n)):
            for lam in weight_box(n, 0, 2):
                assert is_symmetric_weight(lam, perm) == _map_is_symmetric_weight(lam, perm)
    # rank 1, a list weight, and weights of the wrong length
    for lam, perm, fixed in [((3,), (0,), True), ([1, 0, 1], (2, 1, 0), True),
                             ([1, 0, 0], (2, 1, 0), False), ((1, 1), (2, 1, 0), False),
                             ((1, 1, 1, 1), (2, 1, 0), False), ((1,), (1, 0), False)]:
        assert is_symmetric_weight(lam, perm) is _map_is_symmetric_weight(lam, perm) is fixed
