"""Instance files, the verifier, the battery runner and the CLI."""

import json
from dataclasses import replace

import pytest

from twinchar import harness
from twinchar.characters import canonical_serialize
from twinchar.cli import main
from twinchar.errors import InvalidInput, NotSymmetricWeight
from twinchar.root_data import validate_gcm
from twinchar.weyl import enumerate_weyl


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
        word_cap=100)
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


def test_cli_fold_output(tmp_path, capsys):
    inst = write_instance(tmp_path, {"gcm": "A3", "automorphism": [2, 1, 0],
                                     "lambda_hat": [0, 0], "w_hat": []})
    assert main(["fold", "-i", inst]) == 0
    out = capsys.readouterr().out
    assert "[[2, -1], [-2, 2]]" in out
    assert "{0,2}->0,2" in out and "{1}->1" in out


def test_cli_character_and_demazure(capsys):
    assert main(["character", "--gcm", "A2", "--lambda", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "# dim 8" in out
    assert main(["character", "--gcm", "A2", "--lambda", "1,1", "--freudenthal",
                 "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)
    assert sum(c for c, _ in terms) == 8
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


@pytest.mark.parametrize("argv", [
    ["character", "--gcm", "A2", "--lambda", "a,b"],
    ["character", "--gcm", "A2", "--lambda", "1,1,1"],
    ["demazure", "--gcm", "A2", "--lambda", "1,1,1", "--word", "0"],
    ["twining", "--gcm", "A2", "--auto", "1,0", "--lambda", "1", "--word", "0,1,0"],
    ["twining", "--gcm", "A2", "--auto", "1,0,2", "--lambda", "1,1", "--word", "0,1,0"],
    ["verify", "-i", "{tmp_path}"],
], ids=["unparsable-weight", "long-weight", "demazure-long-weight", "twining-short-weight",
        "twining-long-automorphism", "directory-instance"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "{tmp_path}" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
