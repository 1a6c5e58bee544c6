"""Instance files, the verifier, the battery runner and the CLI."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinchar
from twinchar import characters, errors, harness, weyl, word_model
from twinchar.characters import canonical_serialize, demazure_character, map_character
from twinchar.cli import main
from twinchar.errors import (
    InvalidInput,
    NotDiagramAutomorphism,
    NotDominant,
    NotFiniteType,
    NotInWTilde,
    NotSymmetricWeight,
)
from twinchar.folding import fold
from twinchar.linalg import exact_quotient
from twinchar.root_data import cartan_matrix, validate_gcm
from twinchar.weyl import enumerate_weyl
from twinchar.word_model import demazure_subspaces, twining_character

from oracles import freudenthal_character, weight_space


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
    d1, d2 = json.loads(blob), json.loads(blob2)
    d1.pop("ms"), d2.pop("ms")
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
            harness.run_battery(replace(config, **sizes))


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
    harness._family.cache_clear()
    calls = []
    real_fold = harness.fold
    monkeypatch.setattr(harness, "fold",
                        lambda gcm, perm: calls.append(perm) or real_fold(gcm, perm))
    summary = harness.run_battery()
    assert summary.counts == {"equal": 104, "unequal": 0, "skipped": 0}
    assert len(calls) == len(harness.default_families()) == 5


def test_cached_family_equals_a_fresh_fold():
    harness._family.cache_clear()
    for family in harness.default_families():
        cached = harness._folding(family.gcm, family.automorphism)
        assert cached == fold(harness.build_gcm(family.gcm), family.automorphism)
        assert harness._folding(family.gcm, list(family.automorphism)) is cached
    # a matrix given as lists is unhashable, but its validated form is a key
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
    # each equals the cached integer matrix and hashes alike once made a tuple, so a
    # key on raw rows would let it through
    harness._matrix.cache_clear()
    cached = harness.build_gcm([[2, 0], [0, 2]])
    assert harness.build_gcm(((2, 0), (0, 2))) is cached
    assert tuple(map(tuple, rows)) == cached.entries
    with pytest.raises(InvalidInput):
        harness.build_gcm(rows)
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
    ({"gcm": [[2, -2], [-2, 2]], "automorphism": [0, 1], "lambda_hat": [1, 0]}, 650,
     NotFiniteType),
    ({}, 0, InvalidInput),
    ({}, True, InvalidInput),
    ({"lambda_hat": [-1], "w_hat": [1]}, 650, InvalidInput),
], ids=["not-dominant", "lambda-size", "w-letter", "w_hat-letter", "not-commuting",
        "not-an-automorphism", "affine", "word-cap-0", "word-cap-True",
        "not-dominant-and-w_hat-letter"])
def test_harness_path_keeps_every_error_class(changes, word_cap, error):
    # the exact class: NotDominant is an InvalidInput too, and of two faults the
    # word is reported first
    payload = {k: v for k, v in {**A2_FLIP, **changes}.items() if v is not None}
    with pytest.raises(error) as raised:
        harness.verify(payload, word_cap=word_cap)
    assert raised.type is error


@pytest.mark.parametrize("config, digest", [
    (harness.BatteryConfig(),
     "d317415ceef8324cbc91764e18e6365b5b4888f7f54b7fdc22c8dfb3e806f881"),
    (BOX_1, "2a56ac3c6748b493f19761efabaeacb1f4abe0874ef4c63fa2de696dcc1654a0"),
], ids=["default", "box-1"])
def test_battery_output_is_frozen(config, digest):
    # the battery JSON as twinchar battery --json prints it, without the timings
    data = harness.run_battery(config).to_dict()
    for record in data["records"]:
        record.pop("ms", None)
        record.get("report", {}).pop("ms", None)
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == digest


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
    true_folded = validate_gcm([[2, -1], [-2, 2]])
    statuses = []
    for what, _ in enumerate_weyl(true_folded):
        prep = harness.prepare(harness.parse_instance(
            {"gcm": "A3", "automorphism": [2, 1, 0],
             "lambda_hat": [1, 1], "w_hat": list(what)}))
        bad = replace(prep, folding=replace(prep.folding, folded=bad_folded))
        statuses.append(harness.verify_prepared(bad).equal)
    assert not all(statuses)


def test_corrupted_orbit_word_is_detected():
    # swap the expansion of the first folded letter for a commuting word
    prep = harness.prepare(harness.parse_instance(
        {"gcm": "A3", "automorphism": [2, 1, 0], "lambda_hat": [1, 1], "w_hat": [0]}))
    bad = replace(prep, w=(1,))  # s_1 commutes with the flip but is the wrong lift
    report = harness.verify_prepared(bad)
    assert not report.equal
    assert report.differing_terms


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
        "gcm": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        "automorphism": [1, 2, 0], "lambda_hat": [0], "w_hat": []})
    assert main(["validate", "-i", bad]) == 3
    capsys.readouterr()


def test_cli_validate_agrees_with_verify(tmp_path, capsys):
    # validate runs prepare, the one check layer of verify, so it refuses a weight that
    # is not dominant; finite type is a check of the word model, not of the input
    bad = write_instance(tmp_path, {"gcm": "A2", "automorphism": [1, 0],
                                    "lambda_hat": [-1], "w_hat": [0]})
    for command in ("validate", "verify"):
        assert main([command, "-i", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "weight (-1, -1) is not dominant" in captured.err
    affine = write_instance(tmp_path, {"gcm": [[2, -2], [-2, 2]], "automorphism": [0, 1],
                                       "lambda_hat": [1, 0], "w_hat": [0, 1]})
    assert main(["validate", "-i", affine]) == 0
    assert main(["fold", "-i", affine]) == 0
    assert main(["verify", "-i", affine]) == 3
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
    assert main(["character", "--gcm", "A2", "--lambda", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "# dim 8" in out
    assert main(["character", "--gcm", "A2", "--lambda", "1,1", "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)
    oracle = freudenthal_character(cartan_matrix("A2"), (1, 1))
    assert terms == [[c, list(w)] for w, c in oracle.sorted_terms()]
    # the third route is a test oracle only: the CLI no longer offers it
    with pytest.raises(SystemExit) as exit_info:
        main(["character", "--gcm", "A2", "--lambda", "1,1", "--freudenthal"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --freudenthal" in capsys.readouterr().err
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
    ["character", "--gcm", "A2", "--lambda", "a,b"],
    ["character", "--gcm", "A2", "--lambda", "1,1,1"],
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


def test_library_has_no_assert_statements():
    # invariants must survive python -O, so they raise named errors instead
    src = Path(__file__).resolve().parent.parent / "src" / "twinchar"
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == [], path.name


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
    # an unbounded lru_cache grows for the life of the process, as a long battery does
    caches = []
    for info in pkgutil.iter_modules(twinchar.__path__):
        module = importlib.import_module(f"twinchar.{info.name}")
        caches += [(info.name, name, value.cache_info().maxsize)
                   for name, value in vars(module).items() if hasattr(value, "cache_info")]
    assert ("harness", "_family", 64) in caches
    assert ("harness", "_matrix", 64) in caches
    assert [c for c in caches if c[2] is None] == []


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
    top, _ = word_model._content(prep.gcm, prep.lam, prep.w)
    module = word_model._module(prep.gcm, prep.lam, prep.w, word_model.DEFAULT_WORD_CAP)
    with monkeypatch.context() as patched:
        patched.setitem(module.sizes, top, 2)
        assert main(["verify", "-i", inst]) == 4
    assert "extremal vector" in capsys.readouterr().err
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
