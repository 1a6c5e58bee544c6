"""Instance files, the verifier, the battery runner and the CLI."""

import ast
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import pkgutil
import re
import sys
import time
from collections import Counter
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinchar
from twinchar import characters, errors, folding, harness, root_data, weyl, word_model
from twinchar.characters import canonical_serialize, demazure_character, map_character
from twinchar.cli import main
from twinchar.errors import (
    ExtremalVectorMismatch,
    InvalidInput,
    NotDiagramAutomorphism,
    NotDominant,
    NotGCM,
    NotInWTilde,
    NotSymmetricWeight,
    TooLarge,
    TwiningError,
)
from twinchar.folding import fold
from twinchar.linalg import exact_quotient
from twinchar.root_data import (
    MAX_CATALOG_RANK,
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    cartan_matrix,
    validate_gcm,
    weight_box,
)
from twinchar.weyl import enumerate_weyl
from twinchar.word_model import demazure_subspaces, twining_character

from oracles import (
    AFFINE_FAMILIES,
    FOLDED,
    freudenthal_character,
    leading_principal_minors,
    small_fold_counts,
    stress_threads,
    weight_space,
    without_ms,
)


def test_instance_parsing_requires_exactly_one_side():
    with pytest.raises(InvalidInput):
        harness.parse_instance({"gcm": "A2", "automorphism": [1, 0]})
    with pytest.raises(InvalidInput):
        harness.parse_instance({"gcm": "A2", "automorphism": [1, 0],
                                "lambda": [1, 1], "lambda_hat": [1], "w_hat": [0]})
    with pytest.raises(InvalidInput):
        harness.parse_instance({"gcm": "A2", "automorphism": [1, 0],
                                "lambda_hat": [1], "w_hat": [0], "w": []})
    with pytest.raises(InvalidInput):
        harness.parse_instance({"gcm": "A2", "automorphism": [1, 0],
                                "lambda_hat": [1], "w_hat": [0], "extra": 1})


def test_prepare_cross_consistency():
    prep = harness.prepare(harness.parse_instance(
        {"gcm": "A2", "automorphism": [1, 0], "lambda": [2, 2], "w": [0, 1, 0]}))
    assert prep.lambda_hat == (2,)
    assert prep.w_hat == (0,)
    prep2 = harness.prepare(harness.parse_instance(
        {"gcm": "A2", "automorphism": [1, 0], "lambda_hat": [2], "w_hat": [0]}))
    assert prep2.lam == (2, 2)
    assert prep2.w == (0, 1, 0)


def test_prepare_rejects_asymmetric_lambda():
    with pytest.raises(NotSymmetricWeight):
        harness.prepare(harness.parse_instance(
            {"gcm": "A2", "automorphism": [1, 0], "lambda": [2, 1], "w_hat": [0]}))


def test_verify_basic_instances():
    report = harness.verify({"gcm": "A2", "automorphism": [1, 0],
                             "lambda_hat": [1], "w_hat": [0]})
    assert report.equal
    assert canonical_serialize(report.lhs) == "1*e[1,1]\n1*e[-1,-1]"
    assert canonical_serialize(report.rhs) == "1*e[1,1]\n1*e[-1,-1]"
    trivial = harness.verify({"gcm": "A2", "automorphism": [1, 0],
                              "lambda_hat": [1], "w_hat": []})
    assert trivial.equal and canonical_serialize(trivial.lhs) == "1*e[1,1]"


def test_verify_accepts_matrix_gcm_and_unfolded_side():
    report = harness.verify({"gcm": [[2, -1], [-1, 2]], "automorphism": [1, 0],
                             "lambda": [1, 1], "w": [1, 0, 1]})
    assert report.equal


def test_report_round_trip_is_deterministic():
    instance = {"gcm": "A3", "automorphism": [2, 1, 0],
                "lambda_hat": [1, 1], "w_hat": [0, 1]}
    first = harness.verify(instance)
    blob = json.dumps(first.to_dict(), sort_keys=True)
    second = harness.verify(harness.parse_instance(
        json.loads(json.dumps(instance))))
    blob2 = json.dumps(second.to_dict(), sort_keys=True)
    # timing may differ; everything else must be byte-identical
    d1, d2 = without_ms(json.loads(blob)), without_ms(json.loads(blob2))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_time_is_float_milliseconds():
    # a warm instance takes well under 1 ms and must still read above 0
    instance = {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}
    harness.verify(instance)
    report = harness.verify(instance)
    assert type(report.ms) is float and 0 < report.ms == round(report.ms, 3)
    assert f"elapsed: {report.ms:.3f} ms" in harness.format_report(report)


def test_battery_small_config_runs_clean():
    config = harness.BatteryConfig(
        families=(harness.BatteryFamily("A2-flip", "A2", (1, 0), ((0,), (1,), (2,))),))
    summary = harness.run_battery(config)
    assert summary.counts == {"equal": 6, "unequal": 0, "skipped": 0}
    assert summary.exit_code == 0


def test_battery_empty_config():
    config = harness.BatteryConfig(
        families=(harness.BatteryFamily("empty", "A2", (1, 0), ()),))
    summary = harness.run_battery(config)
    assert summary.records == [] and summary.exit_code == 0


def test_battery_word_cap_skips():
    config = harness.BatteryConfig(
        families=(harness.BatteryFamily("A2-flip", "A2", (1, 0), ((3,),)),),
        word_cap=50)
    summary = harness.run_battery(config)
    assert summary.counts["skipped"] == 1
    assert summary.exit_code == 0


def test_battery_exit_code_flags_falsification():
    summary = harness.BatterySummary([
        {"key": "a", "status": "equal", "ms": 1},
        {"key": "b", "status": "unequal", "ms": 1},
    ])
    assert summary.exit_code == 1
    assert harness.BatterySummary([{"key": "a", "status": "equal", "ms": 1}]).exit_code == 0


def test_battery_lambda_box_sweep():
    config = harness.BatteryConfig(
        families=(harness.BatteryFamily("A2-flip", "A2", (1, 0), ((0,),)),),
        lambda_box=2, max_word_len=1)
    summary = harness.run_battery(config)
    # 3 folded weights x 2 words, the fixed weight list is replaced by the box
    assert summary.counts == {"equal": 6, "unequal": 0, "skipped": 0}
    # sweep sizes must be true ints: 0.5 and True would pass as a range bound
    for sizes in ({"lambda_box": 0.5}, {"lambda_box": True}, {"max_word_len": 1.5},
                  {"max_word_len": True}, {"lambda_box": 1, "max_word_len": "1"}):
        with pytest.raises(InvalidInput):
            harness.run_battery(config._replace(**sizes))


def test_battery_decides_every_fold_of_the_small_matrices():
    # every fold of a GCM of rank at most 3 by a non-identity automorphism, at lambda
    # box 1 and folded words up to length 3: the routes agree on finite, singular and
    # indefinite matrices; the skips are modules over the default cap
    assert small_fold_counts(3) == {
        "finite": {"folds": 13, "equal": 196, "unequal": 0, "skipped": 0},
        "singular": {"folds": 9, "equal": 249, "unequal": 0, "skipped": 3},
        "indefinite": {"folds": 42, "equal": 1095, "unequal": 0, "skipped": 81},
    }


def test_battery_instances_are_built_lazily(monkeypatch):
    built = []
    original = harness.Instance
    monkeypatch.setattr(harness, "Instance",
                        lambda **fields: built.append(fields) or original(**fields))
    key, instance = next(iter(harness.battery_instances(harness.BatteryConfig(lambda_box=12))))
    assert key == "A2-flip lambda_hat=[0] w_hat=[]"
    assert instance == original(gcm="A2", automorphism=(1, 0), lambda_hat=(0,), w_hat=())
    assert len(built) == 1


def test_default_battery_folds_once_per_family(monkeypatch):
    # the family cache is the one cache that holds matrices: a first pass builds each
    # family's matrix and its folded matrix once, and a second pass builds none
    harness._family.cache_clear()
    folds, builds = [], []
    real_fold, real_validate = harness.fold, root_data.validate_gcm
    monkeypatch.setattr(harness, "fold",
                        lambda gcm, perm: folds.append(perm) or real_fold(gcm, perm))
    for info in pkgutil.iter_modules(twinchar.__path__):
        module = importlib.import_module(f"twinchar.{info.name}")
        if getattr(module, "validate_gcm", None) is real_validate:
            monkeypatch.setattr(module, "validate_gcm",
                                lambda matrix: builds.append(matrix) or real_validate(matrix))
    summary = harness.run_battery()
    assert summary.counts == {"equal": 104, "unequal": 0, "skipped": 0}
    assert len(folds) == len(harness.default_families()) == 5
    assert len(builds) == 2 * len(folds)
    folds.clear()
    builds.clear()
    assert harness.run_battery().counts == summary.counts
    assert folds == builds == []


def test_cached_family_equals_a_fresh_fold():
    harness._family.cache_clear()
    for family in harness.default_families():
        cached = harness._folding(family.gcm, family.automorphism)
        assert cached == fold(harness.build_gcm(family.gcm), family.automorphism)
        assert harness._folding(family.gcm, list(family.automorphism)) is cached
    # a matrix given as lists is unhashable, but its strict-int rows are a key
    a2 = harness.Instance(gcm=[[2, -1], [-1, 2]], automorphism=[1, 0],
                          lambda_hat=(1,), w_hat=(0,))
    assert harness.verify(a2).equal


@pytest.mark.parametrize("auto, error", [
    ((True, False), InvalidInput),
    ((1.0, 0), InvalidInput),
    ((0, 0), NotDiagramAutomorphism),
], ids=["bool", "float", "not_a_bijection"])
def test_family_cache_keeps_validating(tmp_path, auto, error):
    # (True, False) == (1, 0) and hashes alike, so a key on raw fields would let it through
    harness._family.cache_clear()
    assert harness.verify({"gcm": "A2", "automorphism": [1, 0],
                           "lambda_hat": [1], "w_hat": [0]}).equal
    with pytest.raises(error):
        harness.verify(harness.Instance(gcm="A2", automorphism=auto,
                                        lambda_hat=(1,), w_hat=(0,)))
    path = write_instance(tmp_path, {"gcm": "A2", "automorphism": list(auto),
                                     "lambda_hat": [1], "w_hat": [0]})
    assert main(["verify", "-i", path]) == 2


@pytest.mark.parametrize("rows", [((2, False), (False, 2)), [[2.0, 0], [0, 2]],
                                  ((2, 0), [0, 2.0])], ids=["bool", "float", "float-tuple"])
def test_matrix_cache_keeps_validating(rows):
    # each equals the rows of the cached integer family and hashes alike once made a
    # tuple, so a family key on raw rows would let it through
    harness._family.cache_clear()
    cached = harness._folding([[2, 0], [0, 2]], (1, 0))
    assert harness._folding(((2, 0), (0, 2)), [1, 0]) is cached
    integer = harness.Instance(gcm=[[2, 0], [0, 2]], automorphism=(1, 0),
                               lambda_hat=(1,), w_hat=())
    assert harness.prepare(integer).folding is cached
    assert harness.verify(integer).equal
    assert tuple(map(tuple, rows)) == cached.gcm.entries
    with pytest.raises(InvalidInput):
        harness.build_gcm(rows)
    with pytest.raises(InvalidInput):
        harness._folding(rows, (1, 0))
    with pytest.raises(InvalidInput):
        harness.verify(harness.Instance(gcm=rows, automorphism=(1, 0),
                                        lambda_hat=(1,), w_hat=()))


BOX_1 = harness.BatteryConfig(lambda_box=1, max_word_len=3)


def _through_verify(instance):
    report = harness.verify(instance)
    return report.lhs, report.rhs


def _through_public_entries(instance):
    prep = harness.prepare(instance)
    lhs = twining_character(prep.gcm, prep.lam, prep.w, prep.auto.perm)
    folded = demazure_character(prep.folding.folded, prep.lambda_hat, prep.w_hat)
    return lhs, map_character(prep.folding, folded)


@pytest.mark.parametrize("config", [harness.BatteryConfig(), BOX_1], ids=["default", "box-1"])
def test_harness_path_equals_public_path(config):
    # verify runs the route cores on prepared data, the public entries check their
    # arguments first: both paths give the same characters, each run cold and warm
    instances = [instance for _, instance in harness.battery_instances(config)]
    for cold, warm in ((_through_verify, _through_public_entries),
                       (_through_public_entries, _through_verify)):
        word_model._modules.cache_clear()
        characters._characters.cache_clear()
        first = [cold(instance) for instance in instances]
        assert [warm(instance) for instance in instances] == first


A2_FLIP = {"gcm": "A2", "automorphism": [1, 0], "lambda_hat": [1], "w_hat": [0]}


@pytest.mark.parametrize("changes, word_cap, error", [
    ({"lambda_hat": [-1]}, 650, NotDominant),
    ({"lambda_hat": None, "lambda": [1, 1, 1]}, 650, InvalidInput),
    ({"w_hat": None, "w": [2]}, 650, InvalidInput),
    ({"w_hat": [1]}, 650, InvalidInput),
    ({"w_hat": None, "w": [0]}, 650, NotInWTilde),
    ({"automorphism": [0, 0]}, 650, NotDiagramAutomorphism),
    ({"gcm": AFFINE_FAMILIES["A1^(1)"].gcm, "automorphism": [0, 1], "lambda_hat": [1, -1]}, 650,
     NotDominant),
    ({}, 0, InvalidInput),
    ({}, True, InvalidInput),
    ({"lambda_hat": [-1], "w_hat": [1]}, 650, InvalidInput),
], ids=["not-dominant", "lambda-size", "w-letter", "w_hat-letter", "not-commuting",
        "not-an-automorphism", "affine-not-dominant", "word-cap-0", "word-cap-True",
        "not-dominant-and-w_hat-letter"])
def test_harness_path_keeps_every_error_class(changes, word_cap, error):
    # the exact class: NotDominant is an InvalidInput too, and of two faults the
    # word is reported first
    payload = {k: v for k, v in {**A2_FLIP, **changes}.items() if v is not None}
    with pytest.raises(error) as raised:
        harness.verify(payload, word_cap=word_cap)
    assert raised.type is error


def test_warm_path_keeps_its_checks(monkeypatch):
    # after a warm pass the modules below are cache hits, and each call still raises
    # the first of its faults, in the order the parse, prepare and route core check them
    harness.run_battery()
    payload = {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [0, 1], "w_hat": [1, 0]}
    prep = harness.prepare(harness.parse_instance(payload))
    gcm, lam, w, perm = prep.gcm, prep.lam, prep.w, prep.auto.perm
    u = w + (0,)   # w s_0 fixes lam as lam_0 = 0, but does not commute with the flip
    skewed = (1, 1, 0)
    demazure_subspaces(gcm, skewed, w)
    for key in [(gcm, lam, word_model._walked(gcm, lam, u)[0]),
                (gcm, skewed, word_model._walked(gcm, skewed, w)[0])]:
        assert key in word_model._modules
    module = word_model._modules[gcm, lam, word_model._walked(gcm, lam, w)[0]]
    dim = module.dimension
    unfolded = {"gcm": "A3", "automorphism": [2, 1, 0], "lambda": list(lam), "w": list(w)}
    with monkeypatch.context() as patched:
        # a warm hit compares w(lam) with the weight the module keeps: break that weight
        patched.setattr(module, "weight", lam)
        for args, error in [
            ((gcm, skewed, u, perm, dim - 1), NotSymmetricWeight),
            ((gcm, lam, u, perm, dim - 1), NotInWTilde),
            ((gcm, lam, w, perm, 0), InvalidInput),
            ((gcm, lam, w, perm, dim - 1), TooLarge),
            ((gcm, lam, w, perm, dim), ExtremalVectorMismatch),
        ]:
            with pytest.raises(error) as raised:
                word_model.twining_core(*args)
            assert raised.type is error
        for changes, word_cap, error in [
            ({"lambda": list(skewed), "w": list(u)}, dim - 1, NotSymmetricWeight),
            ({"w": list(u)}, dim - 1, NotInWTilde),
            ({}, dim - 1, TooLarge),
            ({}, dim, ExtremalVectorMismatch),
        ]:
            with pytest.raises(error) as raised:
                harness.verify({**unfolded, **changes}, word_cap=word_cap)
            assert raised.type is error
    assert harness.verify(unfolded, word_cap=dim).equal
    word_model._modules.cache_clear()


def test_every_cached_module_keeps_its_extremal_weight():
    # the weight a module keeps is lam minus the content that keys it in the cache
    word_model._modules.cache_clear()
    harness.run_battery()
    harness.run_battery(BOX_1)
    assert word_model._modules
    for (gcm, lam, beta), module in word_model._modules.items():
        assert module.weight == word_model.weight_below(gcm, lam, beta)


def test_a_warm_verify_computes_no_root_weight(monkeypatch):
    # a warm hit compares the walk's w(lam) with the weight its module keeps, so no
    # lam - A beta is summed again; the cold pass shows the count sees the calls
    instances = [instance for _, instance in harness.battery_instances(harness.BatteryConfig())]
    weight_of_root, calls = GeneralizedCartanMatrix.weight_of_root, []

    def counting(gcm, beta):
        calls.append(beta)
        return weight_of_root(gcm, beta)

    word_model._modules.cache_clear()
    characters._characters.cache_clear()
    monkeypatch.setattr(GeneralizedCartanMatrix, "weight_of_root", counting)
    assert all(harness.verify(instance).equal for instance in instances)
    assert calls
    calls.clear()
    assert all(harness.verify(instance).equal for instance in instances)
    assert calls == []


# one fault per entry, in the order verify meets them: the types of the fields
# (Instance), then the values (prepare), dominance last; each with the error it raises
# alone, as the instance-file path reported it before Instance checked types
FAULTS = {   # name: (field, changes to TWO_SIDED, error class, message)
    "float-row": ("gcm", {"gcm": [[2, -1, 0], [-1, 2.0, -1], [0, -1, 2]]},
                  InvalidInput, "gcm row [-1, 2.0, -1] has a non-integer entry"),
    "bool": ("automorphism", {"automorphism": [2, True, 0]},
             InvalidInput, "field 'automorphism' [2, True, 0] has a non-integer entry"),
    "float": ("weight", {"lambda_hat": [1.0, 1]},
              InvalidInput, "field 'lambda_hat' [1.0, 1] has a non-integer entry"),
    "str": ("word", {"w_hat": ["0", 1]},
            InvalidInput, "field 'w_hat' ['0', 1] has a non-integer entry"),
    "label": ("gcm", {"gcm": "Z3"}, InvalidInput, "unknown Cartan type label 'Z3'"),
    "not-gcm": ("gcm", {"gcm": [[2, 1, 0], [1, 2, -1], [0, -1, 2]]},
                NotGCM, "off-diagonal entry a[0][1] = 1 must be <= 0"),
    "not-bijective": ("automorphism", {"automorphism": [0, 0, 1]},
                      NotDiagramAutomorphism, "[0, 0, 1] is not a bijection of 0..2"),
    "size": ("weight", {"lambda_hat": [1, 1, 1]},
             InvalidInput, "folded weight (1, 1, 1) has wrong size 3"),
    "asymmetric": ("weight", {"lambda_hat": None, "lambda": [1, 0, 0]}, NotSymmetricWeight,
                   "weight (1, 0, 0) is not constant on orbits ((0, 2), (1,))"),
    "letter": ("word", {"w_hat": [0, 5]},
               InvalidInput, "word (0, 5) has a letter out of range for rank 2"),
    "not-commuting": ("word", {"w_hat": None, "w": [0]},
                      NotInWTilde, "word (0,) does not commute with the automorphism"),
    "not-dominant": ("weight", {"lambda_hat": [-1, 1]},
                     NotDominant, "weight (-1, 1, -1) is not dominant"),
}
TWO_SIDED = {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0, 1]}


def _as_tuples(value):
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


@pytest.mark.parametrize("path", ["file", "direct"])
def test_first_error_of_two_faults(path):
    # of two faults in different fields the one met first is reported, by class and
    # message; an Instance built from tuples reports what the instance file does
    def first_error(*names):
        payload = dict(TWO_SIDED)
        for name in names:
            payload.update(FAULTS[name][1])
        fields = {("lam" if k == "lambda" else k): _as_tuples(v)
                  for k, v in payload.items() if v is not None}
        try:
            harness.verify(payload if path == "file" else harness.Instance(**fields))
        except TwiningError as exc:
            return type(exc), str(exc)
        return None

    grid = [(name,) for name in FAULTS]
    grid += [pair for pair in combinations(FAULTS, 2) if FAULTS[pair[0]][0] != FAULTS[pair[1]][0]]
    assert len(grid) == 12 + 53
    wrong = [(names, got) for names in grid
             if (got := first_error(*names)) != FAULTS[names[0]][2:]]
    assert wrong == []


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_instance_replace_and_make_check_types(bad):
    # _replace builds through _make, and both go through the checks of Instance
    instance = harness.parse_instance(TWO_SIDED)
    for changes in [{"gcm": ((2, -1, 0), (-1, bad, -1), (0, -1, 2))},
                    {"automorphism": (2, bad, 0)}, {"lambda_hat": (bad, 1)},
                    {"lambda_hat": None, "lam": (bad, 1, 1)}, {"w_hat": (0, bad)},
                    {"w_hat": None, "w": (bad,)}]:
        with pytest.raises(InvalidInput, match="non-integer entry"):
            instance._replace(**changes)
        with pytest.raises(InvalidInput, match="non-integer entry"):
            harness.Instance._make({**instance._asdict(), **changes}.values())
    with pytest.raises(InvalidInput, match="exactly one"):
        instance._replace(lam=(1, 1, 1))
    moved = instance._replace(w_hat=[1, 0])
    assert type(moved) is harness.Instance and moved.w_hat == (1, 0)
    assert harness.Instance._make(instance) == instance


def _int_tuple_calls(call):
    """The number of int_tuple calls that call makes, and its result."""
    return _calls(root_data.int_tuple, call)


def _calls(function, call):
    """The number of calls of function that call makes, and its result."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is function.__code__:
            calls.append(frame.f_lineno)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return len(calls), result


@pytest.mark.parametrize("payload, lists", [
    (TWO_SIDED, 3),
    ({"gcm": [[2, -1], [-1, 2]], "automorphism": [1, 0], "lambda": [1, 1], "w": [0, 1, 0]}, 5),
], ids=["label-folded", "rows-unfolded"])
def test_warm_verify_checks_each_list_once(payload, lists):
    # a matrix row, the automorphism, the weight and the word are each checked once, by
    # Instance; prepare checks values only
    harness.verify(payload)
    calls, report = _int_tuple_calls(lambda: harness.verify(payload))
    assert report.equal and calls == lists
    calls, instance = _int_tuple_calls(lambda: harness.parse_instance(payload))
    assert calls == lists
    assert _int_tuple_calls(lambda: harness.prepare(instance)) == (0, harness.prepare(instance))


def test_warm_verify_keeps_the_lift():
    # the lift of each folded character is kept in the character cache: a warm pass
    # over the default battery lifts nothing, and after the cache is emptied it lifts
    harness.run_battery()
    calls, summary = _calls(map_character, harness.run_battery)
    assert calls == 0 and summary.counts == {"equal": 104, "unequal": 0, "skipped": 0}
    characters._characters.cache_clear()
    calls, summary = _calls(map_character, harness.run_battery)
    assert calls >= 1 and summary.counts == {"equal": 104, "unequal": 0, "skipped": 0}


def _battery_json(config):
    """The battery JSON as twinchar battery --json prints it, without the timings."""
    return json.dumps(without_ms(harness.run_battery(config).to_dict()))


@pytest.mark.parametrize("config", [harness.BatteryConfig(), BOX_1], ids=["default", "box-1"])
def test_warm_battery_prepares_nothing(config):
    # a second pass serves every prepared instance from the cache: it unfolds no word
    # and checks no dominance again, and prints the same battery
    harness._prepared.cache_clear()
    calls, first = _calls(folding.unfold_word, lambda: _battery_json(config))
    assert calls >= 1
    assert _calls(folding.unfold_word, lambda: _battery_json(config)) == (0, first)
    assert _calls(root_data.dominant_weight, lambda: _battery_json(config)) == (0, first)


def test_warm_battery_keeps_every_fault():
    # a failed prepare stores nothing, so after a warm pass each faulty instance still
    # raises its first fault, by class and message, on every call
    harness.run_battery()
    for name, (_, changes, error, message) in FAULTS.items():
        for _ in range(2):
            with pytest.raises(error) as raised:
                harness.verify({**TWO_SIDED, **changes})
            assert (raised.type, str(raised.value)) == (error, message), name


def test_cleared_family_refolds_the_prepared_instance():
    # a hit is served only while its folding data is the family's: clearing the family
    # makes the next prepare refold and store a new record
    instance = harness.parse_instance(TWO_SIDED)
    prep = harness.prepare(instance)
    assert harness.prepare(instance) is prep
    harness._family.cache_clear()
    again = harness.prepare(instance)
    assert again is not prep and again.folding is not prep.folding
    assert again.folding is harness._family(instance.gcm, instance.automorphism)
    assert harness.prepare(instance) is again and again == prep


A2_CACHED = harness.Instance(gcm="A2", automorphism=(1, 0), lambda_hat=(1,), w_hat=(0,))


@pytest.mark.parametrize("bad", [
    [*A2_CACHED], None, ("A2", (True, False), (1,), None, (0,), None),
    harness._InstanceFields(*A2_CACHED),
], ids=["list", "None", "tuple", "fields"])
def test_only_an_instance_is_prepared(bad):
    # verify parses whatever is not an Instance, and prepare refuses it, even a tuple
    # equal to a cached instance and hashing alike
    assert harness.verify(A2_CACHED).equal
    assert A2_CACHED in harness._prepared
    if isinstance(bad, tuple):
        assert bad in harness._prepared
    with pytest.raises(InvalidInput, match="^instance must be a JSON object$") as raised:
        harness.verify(bad)
    assert raised.type is InvalidInput
    with pytest.raises(InvalidInput, match="^prepare needs an Instance") as raised:
        harness.prepare(bad)
    assert raised.type is InvalidInput


def test_threads_share_the_prepared_cache(monkeypatch):
    # a cache so small that records drop while other threads read them, and one thread
    # that keeps clearing the family cache: every verify gives its sequential result
    monkeypatch.setattr(harness._prepared, "limit", 3)
    family = harness.BatteryFamily("A3-flip", "A3", (2, 1, 0), ((1, 1), (1, 0)))
    instances = [inst for _, inst in harness.battery_instances(
        harness.BatteryConfig(families=(family,)))]
    expected = [(report.lhs, report.rhs) for report in map(harness.verify, instances)]
    results = []

    def work(offset):
        for k in range(5 * len(instances)):
            j = (k + offset) % len(instances)
            if offset == 0 and k % 7 == 0:
                harness._family.cache_clear()
            report = harness.verify(instances[j])
            results.append((report.lhs, report.rhs) == expected[j])

    stress_threads(work)
    assert len(results) == 4 * 5 * len(instances) and all(results)
    assert harness._prepared.held == len(harness._prepared) <= 3
    harness._prepared.cache_clear()


def test_battery_reports_are_frozen():
    # every report of the default battery as verify --json prints it, without ms, and
    # its dims: the lift keeps coefficients, so the folded Demazure dimension is the
    # coefficient sum of the right side
    reports, totals = [], Counter()
    for _, instance in harness.battery_instances(harness.BatteryConfig()):
        prep = harness.prepare(instance)
        report = harness.verify(instance)
        folded = demazure_character(prep.folding.folded, prep.lambda_hat, prep.w_hat)
        assert report.dims == {"folded_demazure_dim": folded.coefficient_sum(),
                               "lhs_terms": len(report.lhs), "rhs_terms": len(report.rhs)}
        totals.update(report.dims)
        reports.append(without_ms(report.to_dict()))
    assert totals == {"folded_demazure_dim": 378, "lhs_terms": 367, "rhs_terms": 367}
    assert (hashlib.sha256(json.dumps(reports).encode()).hexdigest()
            == "94bd8bf4f4b3f4c45d357ffc30b7b8ad5862dcc4bbc69d627cae9418f79b5848")


@pytest.mark.parametrize("config", [harness.BatteryConfig(), BOX_1], ids=["default", "box-1"])
def test_direct_lift_and_report_instance(config):
    # map_character builds its term dict directly: it must equal the lift through the
    # merging constructor, and the report keeps the instance it was given
    for _, instance in harness.battery_instances(config):
        prep = harness.prepare(instance)
        folded = demazure_character(prep.folding.folded, prep.lambda_hat, prep.w_hat)
        node_orbit = prep.folding.node_orbit
        merged = CharacterPolynomial(prep.gcm.n, [
            (tuple(mu[k] for k in node_orbit), c) for mu, c in folded.sorted_terms()])
        lifted = map_character(prep.folding, folded)
        assert lifted == merged and lifted.sorted_terms() == merged.sorted_terms()
        payload = instance.to_dict()
        report = harness.verify(payload)
        assert report.instance == report.to_dict()["instance"] == payload
        assert payload == harness.parse_instance(payload).to_dict()


@pytest.mark.parametrize("config, digest", [
    (harness.BatteryConfig(),
     "d317415ceef8324cbc91764e18e6365b5b4888f7f54b7fdc22c8dfb3e806f881"),
    (BOX_1, "2a56ac3c6748b493f19761efabaeacb1f4abe0874ef4c63fa2de696dcc1654a0"),
], ids=["default", "box-1"])
def test_battery_output_is_frozen(config, digest):
    # the battery JSON as twinchar battery --json prints it, without the timings
    assert hashlib.sha256(_battery_json(config).encode()).hexdigest() == digest


def _affine_box_1(name):
    return harness.BatteryConfig(families=(AFFINE_FAMILIES[name],), lambda_box=1,
                                 max_word_len=3)


@pytest.mark.parametrize("name, equal, skipped", [
    ("A1^(1)", 28, 0), ("A2^(1)", 27, 1), ("C2^(1)", 28, 0),
    ("A3^(1)", 136, 0), ("D4^(1)", 496, 0), ("B3^(1)", 136, 0),
    ("A1^(1) identity", 28, 0), ("A2^(1) identity", 152, 0), ("C2^(1) identity", 136, 0),
    ("A3^(1) identity", 560, 0), ("D4^(1) identity", 1664, 0), ("B3^(1) identity", 496, 0),
    ("A2^(2) identity", 28, 0),
])
def test_affine_families_verify(name, equal, skipped):
    # the identity over symmetrizable Kac-Moody algebras, beyond finite type; with
    # a singular matrix both sides are compared modulo delta
    minors = leading_principal_minors(validate_gcm(AFFINE_FAMILIES[name].gcm).entries)
    assert minors[-1] == 0 and all(m > 0 for m in minors[:-1])
    counts = harness.run_battery(_affine_box_1(name)).counts
    assert counts == {"equal": equal, "unequal": 0, "skipped": skipped}


def test_weight_of_root_read_by_columns_is_caught_by_affine_folds(monkeypatch):
    # every unfolded matrix of the default battery is symmetric, so reading the
    # columns of the matrix for its rows passes it; the unfolded C2^(1) and B3^(1)
    # matrices are not symmetric, and the extremal weight check refuses the mutant
    def by_columns(gcm, beta):
        return tuple(sum(map(mul, column, beta)) for column in zip(*gcm.entries))

    try:
        with monkeypatch.context() as patched:
            patched.setattr(GeneralizedCartanMatrix, "weight_of_root", by_columns)
            word_model._modules.cache_clear()
            characters._characters.cache_clear()
            assert harness.run_battery().counts == {"equal": 104, "unequal": 0, "skipped": 0}
            for name in ("C2^(1)", "B3^(1)"):
                with pytest.raises(ExtremalVectorMismatch):
                    harness.run_battery(_affine_box_1(name))
    finally:
        word_model._modules.cache_clear()
        characters._characters.cache_clear()


def test_affine_instance_gives_one_verdict_by_either_word():
    # reduced words and fold_word take any symmetrizable matrix, so an affine
    # instance may state its word on either side
    c2 = AFFINE_FAMILIES["C2^(1)"]
    for lambda_hat in weight_box(2, 0, 1):
        by_w_hat = harness.Instance(c2.gcm, c2.automorphism, lambda_hat=lambda_hat,
                                    w_hat=(1, 0, 1, 0))
        prep = harness.prepare(by_w_hat)
        by_w = by_w_hat._replace(w_hat=None, w=prep.w)
        assert harness.prepare(by_w).w_hat == prep.w_hat
        first, second = harness.verify(by_w_hat), harness.verify(by_w)
        assert first.equal and (first.lhs, first.rhs) == (second.lhs, second.rhs)


def test_family_cache_does_not_hide_construction_checks(tmp_path, monkeypatch, capsys):
    inst = write_instance(tmp_path, {"gcm": "A3", "automorphism": [2, 1, 0],
                                     "lambda_hat": [1, 1], "w_hat": [0]})
    assert main(["verify", "-i", inst]) == 0
    harness._family.cache_clear()
    monkeypatch.setattr(weyl, "is_in_w_tilde", lambda gcm, word, perm: False)
    assert main(["verify", "-i", inst]) == 4
    assert "does not commute" in capsys.readouterr().err


def test_corrupted_folded_matrix_is_detected():
    # mutate one entry of the folded matrix; some battery instance must flip
    bad_folded = validate_gcm([[2, -1], [-1, 2]])
    true_folded = validate_gcm(FOLDED["A3-flip"])
    statuses = []
    for what, _ in enumerate_weyl(true_folded):
        prep = harness.prepare(harness.parse_instance(
            {"gcm": "A3", "automorphism": [2, 1, 0],
             "lambda_hat": [1, 1], "w_hat": list(what)}))
        bad = prep._replace(folding=prep.folding._replace(folded=bad_folded))
        statuses.append(harness.verify_prepared(bad).equal)
    assert not all(statuses)


def test_corrupted_orbit_word_is_detected():
    # swap the expansion of the first folded letter for a commuting word
    prep = harness.prepare(harness.parse_instance(
        {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}))
    bad = prep._replace(w=(1,))  # s_1 commutes with the flip but is the wrong lift
    report = harness.verify_prepared(bad)
    assert not report.equal
    assert report.differing_terms


def _with_corrupted_folded_matrix(prep):
    return prep._replace(folding=prep.folding._replace(
        folded=validate_gcm([[2, -1], [-1, 2]])))


def test_unequal_report_prints_its_differing_terms():
    prep = harness.prepare(harness.parse_instance(
        {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}))
    report = harness.verify_prepared(_with_corrupted_folded_matrix(prep))
    lines = harness.format_report(report).splitlines()
    assert lines[0] == "verdict: UNEQUAL"
    assert lines[lines.index("differing terms (weight, lhs, rhs):"):] == [
        "differing terms (weight, lhs, rhs):",
        "  [-1, 3, -1]: 1 vs 0",
        "  [-1, 2, -1]: 0 vs 1",
    ]


def test_battery_keeps_the_report_of_an_unequal_instance(monkeypatch):
    real_prepare = harness.prepare
    monkeypatch.setattr(harness, "prepare",
                        lambda instance: _with_corrupted_folded_matrix(real_prepare(instance)))
    config = harness.BatteryConfig(
        families=(harness.BatteryFamily("A3-flip", "A3", (2, 1, 0), ((1, 1),)),))
    summary = harness.run_battery(config)
    assert summary.counts == {"equal": 2, "unequal": 6, "skipped": 0}
    assert summary.exit_code == 1
    for (key, instance), record in zip(harness.battery_instances(config), summary.records):
        assert record["key"] == key
        if record["status"] == "equal":
            assert set(record) == {"key", "status", "ms"}
            continue
        assert set(record) == {"key", "status", "ms", "report"}
        report = record["report"]
        assert report["instance"] == instance.to_dict() and report["equal"] is False
        expected = harness.verify_prepared(harness.prepare(instance)).to_dict()
        assert without_ms(dict(report)) == without_ms(expected)


def test_report_keeps_an_instance_given_on_the_unfolded_side():
    # the instance file whose verify --json report CI pins
    path = Path(__file__).resolve().parent / "data" / "a3-flip-unfolded.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == {"gcm": "A3", "automorphism": [2, 1, 0],
                       "lambda": [1, 0, 1], "w": [1, 0, 2, 1]}
    data = harness.verify(harness.load_instance(str(path))).to_dict()
    assert data["instance"] == payload and list(data["instance"]) == list(payload)
    assert data["equal"] and data["dims"] == {"folded_demazure_dim": 4,
                                              "lhs_terms": 4, "rhs_terms": 4}


def write_instance(tmp_path, payload):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    good = write_instance(tmp_path, {"gcm": "A2", "automorphism": [1, 0],
                                     "lambda_hat": [1], "w_hat": [0]})
    assert main(["verify", "-i", good]) == 0
    out = capsys.readouterr().out
    assert "verdict: equal" in out and "1*e[1,1]" in out

    assert main(["verify", "-i", good, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True
    assert payload["lhs"] == [[1, [1, 1]], [1, [-1, -1]]]


def test_cli_validate_rejects_non_automorphism(tmp_path, capsys):
    bad = write_instance(tmp_path, {"gcm": "B2", "automorphism": [1, 0],
                                    "lambda_hat": [1], "w_hat": []})
    assert main(["validate", "-i", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_validate_linking_failure_is_unsupported(tmp_path, capsys):
    bad = write_instance(tmp_path, {
        "gcm": AFFINE_FAMILIES["A2^(1)"].gcm,
        "automorphism": [1, 2, 0], "lambda_hat": [0], "w_hat": []})
    assert main(["validate", "-i", bad]) == 3
    capsys.readouterr()


def test_cli_validate_agrees_with_verify(tmp_path, capsys):
    # validate runs prepare, the one check layer of verify, so it refuses a weight that
    # is not dominant, and both accept an affine matrix
    bad = write_instance(tmp_path, {"gcm": "A2", "automorphism": [1, 0],
                                    "lambda_hat": [-1], "w_hat": [0]})
    for command in ("validate", "verify"):
        assert main([command, "-i", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "weight (-1, -1) is not dominant" in captured.err
    affine = write_instance(tmp_path, {"gcm": AFFINE_FAMILIES["A1^(1)"].gcm,
                                       "automorphism": [0, 1], "lambda_hat": [1, 0],
                                       "w_hat": [0, 1]})
    assert main(["validate", "-i", affine]) == 0
    assert main(["fold", "-i", affine]) == 0
    assert main(["verify", "-i", affine]) == 0
    capsys.readouterr()


FOLD_OUTPUT = {
    "A2-flip": (
        "folded: [[2]]\n"
        "orbits: {0,1} s=1 c=2\n"
        "lift: [[1], [1]]\n"
        "words: {0,1}->0,1,0\n",
        '{"folded": [[2]], "orbits": [[0, 1]], "row_sums": [1], "scales": ["2"], '
        '"weight_lift": [[1], [1]], "orbit_words": [[0, 1, 0]]}\n',
        "gcm: rank 2, symmetrizer [1, 1]\n"
        "automorphism: [1, 0] (order 2)\n"
        "lambda: [1, 1]  lambda_hat: [1]\n"
        "w: 0,1,0  w_hat: 0\n"
        "valid\n"),
    "A3-flip": (
        "folded: [[2, -1], [-2, 2]]\n"
        "orbits: {0,2} s=2 c=1 ; {1} s=2 c=1\n"
        "lift: [[1, 0], [0, 1], [1, 0]]\n"
        "words: {0,2}->0,2 ; {1}->1\n",
        '{"folded": [[2, -1], [-2, 2]], "orbits": [[0, 2], [1]], "row_sums": [2, 2], '
        '"scales": ["1", "1"], "weight_lift": [[1, 0], [0, 1], [1, 0]], '
        '"orbit_words": [[0, 2], [1]]}\n',
        "gcm: rank 3, symmetrizer [1, 1, 1]\n"
        "automorphism: [2, 1, 0] (order 2)\n"
        "lambda: [1, 1, 1]  lambda_hat: [1, 1]\n"
        "w: 0,2,1  w_hat: 0,1\n"
        "valid\n"),
    "A4-flip": (
        "folded: [[2, -2], [-1, 2]]\n"
        "orbits: {0,3} s=2 c=1 ; {1,2} s=1 c=2\n"
        "lift: [[1, 0], [0, 1], [0, 1], [1, 0]]\n"
        "words: {0,3}->0,3 ; {1,2}->1,2,1\n",
        '{"folded": [[2, -2], [-1, 2]], "orbits": [[0, 3], [1, 2]], "row_sums": [2, 1], '
        '"scales": ["1", "2"], "weight_lift": [[1, 0], [0, 1], [0, 1], [1, 0]], '
        '"orbit_words": [[0, 3], [1, 2, 1]]}\n',
        "gcm: rank 4, symmetrizer [1, 1, 1, 1]\n"
        "automorphism: [3, 2, 1, 0] (order 2)\n"
        "lambda: [1, 1, 1, 1]  lambda_hat: [1, 1]\n"
        "w: 0,3,1,2,1  w_hat: 0,1\n"
        "valid\n"),
    "D4-triality": (
        "folded: [[2, -1], [-3, 2]]\n"
        "orbits: {0,2,3} s=2 c=1 ; {1} s=2 c=1\n"
        "lift: [[1, 0], [0, 1], [1, 0], [1, 0]]\n"
        "words: {0,2,3}->0,2,3 ; {1}->1\n",
        '{"folded": [[2, -1], [-3, 2]], "orbits": [[0, 2, 3], [1]], "row_sums": [2, 2], '
        '"scales": ["1", "1"], "weight_lift": [[1, 0], [0, 1], [1, 0], [1, 0]], '
        '"orbit_words": [[0, 2, 3], [1]]}\n',
        "gcm: rank 4, symmetrizer [1, 1, 1, 1]\n"
        "automorphism: [2, 1, 3, 0] (order 3)\n"
        "lambda: [1, 1, 1, 1]  lambda_hat: [1, 1]\n"
        "w: 0,2,3,1  w_hat: 0,1\n"
        "valid\n"),
    "D4-swap": (
        "folded: [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]\n"
        "orbits: {0} s=2 c=1 ; {1} s=2 c=1 ; {2,3} s=2 c=1\n"
        "lift: [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]\n"
        "words: {0}->0 ; {1}->1 ; {2,3}->2,3\n",
        '{"folded": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "orbits": [[0], [1], [2, 3]], '
        '"row_sums": [2, 2, 2], "scales": ["1", "1", "1"], '
        '"weight_lift": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]], '
        '"orbit_words": [[0], [1], [2, 3]]}\n',
        "gcm: rank 4, symmetrizer [1, 1, 1, 1]\n"
        "automorphism: [0, 1, 3, 2] (order 2)\n"
        "lambda: [1, 1, 1, 1]  lambda_hat: [1, 1, 1]\n"
        "w: 0,1,2,3  w_hat: 0,1,2\n"
        "valid\n"),
}


@pytest.mark.parametrize("family", harness.default_families(), ids=lambda f: f.name)
def test_cli_fold_output(tmp_path, capsys, family):
    # full text of fold, fold --json and validate for each default family, at
    # lambda_hat = (1, ..., 1) and w_hat = (0, 1, ..., n_folded - 1)
    n_folded = len(family.lambda_hats[0])
    inst = write_instance(tmp_path, {"gcm": family.gcm,
                                     "automorphism": list(family.automorphism),
                                     "lambda_hat": [1] * n_folded,
                                     "w_hat": list(range(n_folded))})
    outputs = []
    for argv in (["fold", "-i", inst], ["fold", "-i", inst, "--json"], ["validate", "-i", inst]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert tuple(outputs) == FOLD_OUTPUT[family.name]


def test_cli_character_and_demazure(capsys):
    # the longest word gives the full character, which the Freudenthal oracle computes
    oracle = freudenthal_character(cartan_matrix("A2"), (1, 1))
    assert oracle.coefficient_sum() == 8
    assert main(["demazure", "--gcm", "A2", "--lambda", "1,1", "--word", "0,1,0"]) == 0
    assert capsys.readouterr().out == canonical_serialize(oracle) + "\n"
    assert main(["demazure", "--gcm", "A2", "--lambda", "1,1", "--word", "0,1,0", "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)
    assert terms == [[c, list(w)] for w, c in oracle.sorted_terms()]
    # the third route is a test oracle only, and the full character is a Demazure
    # character: the CLI offers neither the flag nor a command of its own
    with pytest.raises(SystemExit) as exit_info:
        main(["demazure", "--gcm", "A2", "--lambda", "1,1", "--word", "0,1,0", "--freudenthal"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --freudenthal" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["character", "--gcm", "A2", "--lambda", "1,1"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'character'" in capsys.readouterr().err
    assert main(["demazure", "--gcm", "A2", "--lambda", "1,1", "--word", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1*e[1,1]\n1*e[-1,2]"
    assert main(["demazure", "--gcm", "A2", "--lambda", "1,1", "--word", ""]) == 0
    assert capsys.readouterr().out.strip() == "1*e[1,1]"


def test_cli_twining(capsys):
    assert main(["twining", "--gcm", "A2", "--auto", "1,0", "--lambda", "1,1",
                 "--word", "0,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "1*e[1,1]\n1*e[-1,-1]"
    # non-commuting word is invalid input
    assert main(["twining", "--gcm", "A2", "--auto", "1,0", "--lambda", "1,1",
                 "--word", "0"]) == 2
    capsys.readouterr()


def test_cli_battery_tiny(capsys):
    assert main(["battery", "--max-word-len", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["unequal"] == 0
    assert payload["counts"]["equal"] > 0


def test_cli_battery_text(capsys):
    # one line per record, a skipped one with its reason in brackets, then the totals
    assert main(["battery", "--max-word-len", "1", "--word-cap", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = harness.run_battery(harness.BatteryConfig(word_cap=1, max_word_len=1)).records
    assert len(lines) == len(records) + 1
    for line, record in zip(lines, records):
        if record["status"] == "skipped":
            assert line == f"skipped  {record['key']} [{record['reason']}]"
        else:
            assert re.fullmatch(re.escape(f"equal    {record['key']} (") + r"\d+\.\d{3} ms\)",
                                line), line
    assert lines[3] == ("skipped  A2-flip lambda_hat=[1] w_hat=[0] [the Demazure module of "
                        "(0, 1, 0) at (1, 1) has more than 1 basis vectors]")
    assert lines[-1] == "total: 24 equal, 0 unequal, 12 skipped"


def test_cli_word_cap_is_unsupported(tmp_path, capsys):
    inst = write_instance(tmp_path, {"gcm": "A2", "automorphism": [1, 0],
                                     "lambda_hat": [3], "w_hat": [0]})
    assert main(["verify", "-i", inst, "--word-cap", "10"]) == 3
    capsys.readouterr()


def test_cli_missing_file(capsys):
    assert main(["verify", "-i", "/nonexistent/instance.json"]) == 2
    capsys.readouterr()


def test_cli_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "-i", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", [[1.7], [True], ["x"]], ids=["float", "bool", "str"])
def test_instance_parsing_rejects_non_integers(tmp_path, capsys, bad):
    base = {"gcm": "A2", "automorphism": [1, 0], "lambda_hat": [1], "w_hat": [0]}
    for field in ("lambda_hat", "w_hat", "automorphism"):
        with pytest.raises(InvalidInput):
            harness.parse_instance({**base, field: bad})
    for gcm in ([[2, -1], [-1] + bad], bad, 5):
        with pytest.raises(InvalidInput):
            harness.parse_instance({**base, "gcm": gcm})
    inst = write_instance(tmp_path, {**base, "lambda_hat": bad})
    assert main(["verify", "-i", inst]) == 2
    assert capsys.readouterr().err.startswith("error:")


WORD_CAP_COMMANDS = (
    ["battery", "--max-word-len", "1"],
    ["verify", "-i", "{tmp_path}/instance.json"],
    ["twining", "--gcm", "A2", "--auto", "1,0", "--lambda", "1,1", "--word", "0,1,0"],
)


@pytest.mark.parametrize("argv", [
    ["demazure", "--gcm", "A2", "--lambda", "a,b", "--word", "0,1,0"],
    ["demazure", "--gcm", "A2", "--lambda", "1,1,1", "--word", "0,1,0"],
    ["demazure", "--gcm", "A2", "--lambda", "1,1,1", "--word", "0"],
    ["twining", "--gcm", "A2", "--auto", "1,0", "--lambda", "1", "--word", "0,1,0"],
    ["twining", "--gcm", "A2", "--auto", "1,0,2", "--lambda", "1,1", "--word", "0,1,0"],
    ["verify", "-i", "{tmp_path}"],
    ["twining", "--gcm", "A2", "--auto", "0,0", "--lambda", "1,1", "--word", "0,1,0"],
    ["twining", "--gcm", "B2", "--auto", "1,0", "--lambda", "1,1", "--word", ""],
    ["verify", "-i", "{tmp_path}/undecodable.json"],
    ["battery", "--lambda-box", "-1"],
    ["battery", "--max-word-len", "-1"],
    *([*command, "--word-cap", cap] for command in WORD_CAP_COMMANDS for cap in ("0", "-1")),
], ids=["unparsable-weight", "long-weight", "demazure-long-weight", "twining-short-weight",
        "twining-long-automorphism", "directory-instance", "twining-not-a-bijection",
        "twining-not-preserving", "undecodable-instance", "battery-negative-lambda-box",
        "battery-negative-max-word-len",
        *(f"{command[0]}-word-cap-{cap}" for command in WORD_CAP_COMMANDS
          for cap in ("0", "-1"))])
def test_cli_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe")
    write_instance(tmp_path, {"gcm": "A2", "automorphism": [1, 0],
                              "lambda_hat": [1], "w_hat": [0]})
    argv = [a.replace("{tmp_path}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("label, rank", [("A5", 5), ("E6", 6)])
@pytest.mark.parametrize("argv, message", [
    (["validate", "-i", "{instance}"], "[1, 0] is not a bijection of 0..{last}"),
    (["fold", "-i", "{instance}"], "[1, 0] is not a bijection of 0..{last}"),
    (["verify", "-i", "{instance}"], "[1, 0] is not a bijection of 0..{last}"),
    (["demazure", "--gcm", "{label}", "--lambda", "1", "--word", "0"],
     "weight (1,) has size 1, expected {rank}"),
    (["twining", "--gcm", "{label}", "--auto", "1,0", "--lambda", "1", "--word", "0"],
     "weight (1,) has size 1, expected {rank}"),
], ids=["validate", "fold", "verify", "demazure", "twining"])
def test_a_label_of_another_rank_builds_no_matrix(tmp_path, monkeypatch, capsys, label, rank,
                                                  argv, message):
    # the rank of a label is compared with the size of the automorphism or the weight
    # before its matrix is built, so a short instance cannot build a huge matrix; the
    # error is the one that the check after the build gives
    builds = []
    real = root_data.validate_gcm
    monkeypatch.setattr(root_data, "validate_gcm", lambda m: builds.append(len(m)) or real(m))
    instance = write_instance(tmp_path, {"gcm": label, "automorphism": [1, 0],
                                         "lambda_hat": [0], "w_hat": []})
    harness._family.cache_clear()
    fields = {"instance": instance, "label": label, "rank": rank, "last": rank - 1}
    assert main([a.format(**fields) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**fields)}\n"
    assert builds == []
    harness.build_gcm(label)   # the spy sees a catalog build
    assert builds == [rank]


def test_a_label_above_the_catalog_rank_is_too_large(tmp_path, monkeypatch, capsys):
    # A30000 with an automorphism of its rank passes the rank check, and would build
    # and check 900 million entries; the rank bound refuses it before any matrix
    builds = []
    real = root_data.validate_gcm
    monkeypatch.setattr(root_data, "validate_gcm", lambda m: builds.append(len(m)) or real(m))
    instance = write_instance(tmp_path, {"gcm": "A30000", "automorphism": list(range(30000))[::-1],
                                         "lambda_hat": [0] * 15000, "w_hat": []})
    harness._family.cache_clear()
    start = time.perf_counter()
    assert main(["validate", "-i", instance]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: type A needs rank <= {MAX_CATALOG_RANK}\n"
    assert builds == []
    assert root_data.parse_label(f"A{MAX_CATALOG_RANK}") == ("A", MAX_CATALOG_RANK)
    assert root_data.parse_label(f"d000{MAX_CATALOG_RANK}") == ("D", MAX_CATALOG_RANK)
    # a rank past int()'s 4,300 digits is too large too, and a superscript digit is no rank
    for label, error in [(f"A{MAX_CATALOG_RANK + 1}", TooLarge), ("B" + "9" * 5000, TooLarge),
                         ("A\u00b2", InvalidInput)]:
        with pytest.raises(error):
            cartan_matrix(label)


@pytest.mark.parametrize("label", ["A5", "E6"])
def test_a_label_of_another_rank_raises_the_message_of_the_built_check(capsys, label):
    # the checks before the build restate a message of root_data each; the one that
    # fold or dominant_weight gives once the matrix is built is the reference
    gcm = cartan_matrix(label)
    with pytest.raises(NotDiagramAutomorphism) as late:
        root_data.diagram_permutation(gcm, (1, 0))
    harness._family.cache_clear()
    with pytest.raises(NotDiagramAutomorphism) as early:
        harness._family(label, (1, 0))
    assert str(early.value) == str(late.value)
    with pytest.raises(InvalidInput) as late:
        root_data.dominant_weight(gcm, (1,))
    assert main(["demazure", "--gcm", label, "--lambda", "1", "--word", "0"]) == 2
    assert capsys.readouterr().err == f"error: {late.value}\n"


def test_twining_character_rejects_non_automorphism():
    for label, perm in [("A2", (0, 0)), ("B2", (1, 0))]:
        with pytest.raises(NotDiagramAutomorphism):
            twining_character(cartan_matrix(label), (1, 1), (), perm)


def test_word_cap_below_one_is_rejected_by_the_api():
    a2 = cartan_matrix("A2")
    with pytest.raises(InvalidInput):
        harness.run_battery(harness.BatteryConfig(word_cap=0, max_word_len=1))
    with pytest.raises(InvalidInput):
        demazure_subspaces(a2, (1, 1), (), word_cap=-1)
    with pytest.raises(InvalidInput):
        weight_space(a2, (1, 1), (0, 0), word_cap=0)
    with pytest.raises(InvalidInput):
        demazure_subspaces(a2, (1, 1), (), word_cap=True)


# every Python file under src/, as verifybench/run.py::source_size reads them
SRC_FILES = sorted((Path(__file__).resolve().parent.parent / "src").rglob("*.py"))
# the standing budget of src/: a change that adds lines to it removes as many
SRC_LINE_BUDGET = 2225


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC_FILES)
    assert lines <= SRC_LINE_BUDGET, lines


def test_library_has_no_assert_statements():
    # invariants must survive python -O, so they raise named errors instead; the tier-1
    # run under -O cannot show that none asserts, as a stripped assert passes there
    found = [f"{path.name}:{node.lineno}" for path in SRC_FILES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_import_is_read():
    # stands in for a linter: a name that a module imports and never reads is dead
    root = Path(__file__).resolve().parent.parent
    unread = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {e.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
                 for e in n.value.elts}
        unread += [f"{path.relative_to(root)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unread == []


def test_every_cache_is_bounded():
    # an unbounded cache grows for the life of the process, as a long battery does; the
    # whole inventory is pinned, so a new cache comes with an edit here
    lru, bounded = [], []
    for info in pkgutil.iter_modules(twinchar.__path__):
        module = importlib.import_module(f"twinchar.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                lru.append((info.name, name, value.cache_info().maxsize))
            elif isinstance(value, root_data.BoundedCache):
                bounded.append((info.name, name, value.limit))
    assert lru == [("harness", "_family", 64)]
    assert bounded == [("characters", "_characters", characters.CACHE_CHARACTERS),
                       ("harness", "_prepared", harness.CACHE_PREPARED),
                       ("word_model", "_modules", word_model.CACHE_VECTORS)]


def test_only_a_record_with_a_field_out_of_equality_is_a_dataclass():
    # a record whose fields all take part in equality is a NamedTuple, changed with
    # _replace; a dataclass is kept only where a field must stay out of equality, and
    # GeneralizedCartanMatrix is the one record that does
    kept, plain = set(), []
    for info in pkgutil.iter_modules(twinchar.__path__):
        module = importlib.import_module(f"twinchar.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                if all(f.compare for f in dataclasses.fields(value)):
                    plain.append(f"{info.name}.{name}")
                kept.add(f"{info.name}.{name}")
    assert plain == []
    assert kept == {"root_data.GeneralizedCartanMatrix"}


def test_no_error_claims_the_falsification_exit_code():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TwiningError)]
    assert all(c.exit_code in (2, 3, 4) for c in classes)
    for name in ("NoDescentFound", "InexactDivision", "ExtremalVectorMismatch",
                 "NotIntertwining"):
        assert getattr(errors, name).exit_code == 4


def test_inexact_division_raises():
    assert exact_quotient(6, 3, "six") == 2
    with pytest.raises(errors.InexactDivision):
        exact_quotient(7, 3, "seven")


def test_broken_invariants_exit_4(tmp_path, monkeypatch, capsys):
    payload = {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}
    inst = write_instance(tmp_path, payload)
    word_model._modules.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(word_model, "weight_below", lambda gcm, lam, beta: lam)
        assert main(["verify", "-i", inst]) == 4
    assert "extremal vector" in capsys.readouterr().err
    # the weight space of w(lam) must be one line: report a second basis vector there,
    # in the module that the cache then serves
    word_model._modules.cache_clear()
    prep = harness.prepare(harness.parse_instance(payload))
    top, mu = word_model._walked(prep.gcm, prep.lam, prep.w)[:2]
    module = word_model._module(prep.gcm, prep.lam, prep.w, word_model.DEFAULT_WORD_CAP,
                                (top, mu), prep.auto.perm)
    with monkeypatch.context() as patched:
        patched.setitem(module.sizes, top, 2)
        assert main(["verify", "-i", inst]) == 4
    assert "extremal vector" in capsys.readouterr().err
    # fold reads the family cache, which the verify runs above filled
    harness._family.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(weyl, "is_in_w_tilde", lambda gcm, word, perm: False)
        assert main(["fold", "-i", inst]) == 4
    assert "does not commute" in capsys.readouterr().err


JUNK = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                 st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3))
FUZZ_LABELS = {1: ["A1"], 2: ["A2", "B2", "G2"], 3: ["A3", "B3", "C3"]}


@st.composite
def fuzz_instances(draw):
    """A near-valid instance of rank <= 3, with at most one field replaced by junk."""
    n = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
        lambda flat: [[2 if i == j else flat[i * n + j] for j in range(n)] for i in range(n)])
    payload = {
        "gcm": draw(st.one_of(st.sampled_from(FUZZ_LABELS[n]), entries)),
        "automorphism": draw(st.one_of(st.permutations(list(range(n))),
                                       st.lists(st.integers(-1, n), max_size=n + 1))),
        draw(st.sampled_from(["lambda_hat", "lambda"])):
            draw(st.lists(st.integers(-1, 2), min_size=1, max_size=n)),
        draw(st.sampled_from(["w_hat", "w"])): draw(st.lists(st.integers(-1, n), max_size=4)),
    }
    spoiled = draw(st.sampled_from([None, "gcm", "automorphism", "lambda_hat", "lambda",
                                    "w_hat", "w", "unknown", "whole"]))
    if spoiled == "whole":
        return draw(JUNK)
    if spoiled is not None:
        payload[spoiled] = draw(JUNK)
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=fuzz_instances())
def test_cli_fuzzed_instances_never_escape(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(payload))
    for argv in (["validate"], ["fold"], ["verify", "--word-cap", "2000"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "-i", str(path)])
        assert code in (0, 2, 3), (argv, payload, err.getvalue())
