"""The pinned batteries and digests, run by ``pytest -m pins``.

Each test pins the counts of a battery, or the SHA-256 of what a command
prints with its ms timing fields removed.  A command runs as a separate
process, ``python -m twinchar.cli``, and its JSON is hashed as
``json.dumps`` of the stripped dict plus a newline, the bytes that
``print`` writes.  The families beside the default battery come from
``oracles`` and run in this process.  The default test run deselects the
marker (``addopts`` in pyproject.toml): the pins take about half a minute,
nearly half of it the box-2 battery with its cap lifted.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twinchar import harness

from oracles import A2XA2_CYCLE, AFFINE_FAMILIES, E6_FLIP, small_fold_counts, without_ms

pytestmark = pytest.mark.pins

ROOT = Path(__file__).resolve().parent.parent
BOX_1 = ("--lambda-box", "1", "--max-word-len", "3")
BOX_2 = ("--lambda-box", "2", "--max-word-len", "3")


def _cli_json(*argv, hash_seed=None):
    """What ``twinchar <argv>`` prints, parsed, from a run with PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    run = subprocess.run([sys.executable, "-m", "twinchar.cli", *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _printed(data):
    """The bytes that print(json.dumps(data)) writes once the ms fields are removed."""
    return (json.dumps(without_ms(data)) + "\n").encode()


def _sha256(data):
    return hashlib.sha256(_printed(data)).hexdigest()


@pytest.mark.parametrize("argv", [(), BOX_1], ids=["default", "box-1"])
def test_battery_decides_every_instance(argv):
    counts = _cli_json("battery", "--json", *argv)["counts"]
    assert counts["unequal"] == 0 and counts["skipped"] == 0


def test_box_2_battery_skips_its_13_modules_over_the_cap():
    # the cap counts dim V_w, which does not depend on the run, so the skips are exact
    data = _cli_json("battery", "--json", *BOX_2)
    assert data["counts"]["unequal"] == 0 and data["counts"]["skipped"] == 13
    assert _sha256(data) == "db0b3c0a2638ef3456eee3c458638825227dfcdc43b63993ee94561dccff1ffa"


def test_box_2_battery_with_the_cap_lifted_decides_all_627_instances():
    # the only run of the 13 large modules: up to 17,589 vectors and multiplicity 54
    data = _cli_json("battery", "--json", *BOX_2, "--word-cap", "20000")
    assert data["counts"] == {"equal": 627, "unequal": 0, "skipped": 0}
    assert _sha256(data) == "0fcfffe4da7bab8e51a68c14b798e39cc61906855c1a3dccffd7d2ebd6c7322a"


@pytest.mark.parametrize("path, digest", [
    ("tests/data/d4-triality.json",
     "32e2fd0ae89db57b503729663dc757625228740a24cf1047db089f87c981af94"),
    # lambda and w are given on the unfolded side, so fold_weight, fold_word and the
    # lambda and w fields of the report run end to end
    ("tests/data/a3-flip-unfolded.json",
     "9f5aa62ba84906501149a0ecd9357c35c3b2e73aabc3890a6be4f11926e259e6"),
], ids=["d4-triality", "a3-flip-unfolded"])
def test_verify_json_prints_the_committed_report(path, digest):
    assert _sha256(_cli_json("verify", "--json", "-i", path)) == digest


@pytest.mark.parametrize("argv, digest", [
    ((), "82b414a0144516088607c43ee1ba5e0a99837438e83c15dcce6ef80fa88e6941"),
    (BOX_1, "bbd46cbe978f1d51b45f169e3ba910aee01b8f37248d3558b500b243c8b02140"),
], ids=["default", "box-1"])
def test_battery_json_does_not_depend_on_the_hash_seed(argv, digest):
    # a cache whose insertion or eviction order leaked into the output would differ
    # between two hash seeds; the box-1 battery runs the family and module caches over
    # more weights, and the weight of every term comes from GeneralizedCartanMatrix.coroots
    first, second = (_printed(_cli_json("battery", "--json", *argv, hash_seed=seed))
                     for seed in (1, 2))
    assert first == second
    assert hashlib.sha256(first).hexdigest() == digest


@pytest.mark.parametrize("lambda_hat", [(0, 1, 0, 0), (1, 0, 0, 0)])
def test_e6_flip_decides_its_whole_folded_f4_group(lambda_hat):
    family = E6_FLIP._replace(lambda_hats=(lambda_hat,))
    counts = harness.run_battery(harness.BatteryConfig(families=(family,))).counts
    assert counts == {"equal": 1152, "unequal": 0, "skipped": 0}


def test_a2xa2_cycle_decides_its_box_3_battery():
    # one orbit folding to A1; tau^2 is not 1 on every weight space of a moved content
    # orbit of size 2 here
    config = harness.BatteryConfig(families=(A2XA2_CYCLE,), lambda_box=3, word_cap=20000)
    assert harness.run_battery(config).counts == {"equal": 8, "unequal": 0, "skipped": 0}


@pytest.mark.parametrize("name, equal, skipped", [
    ("A1^(1)", 36, 0), ("A2^(1)", 32, 4), ("C2^(1)", 36, 0),
    ("A3^(1)", 224, 0), ("D4^(1)", 944, 0), ("B3^(1)", 224, 0),
])
def test_affine_families_decide_at_box_1_with_words_up_to_length_4(name, equal, skipped):
    config = harness.BatteryConfig(families=(AFFINE_FAMILIES[name],), lambda_box=1,
                                   max_word_len=4)
    counts = harness.run_battery(config).counts
    assert counts == {"equal": equal, "unequal": 0, "skipped": skipped}


def test_every_fold_of_the_small_matrices_decides_with_words_up_to_length_4():
    # the GCMs of rank at most 3 with off-diagonal entries in {0, -1, -2, -3}, by type
    counts = small_fold_counts(4)
    assert {kind: (c["folds"], c["equal"], c["skipped"]) for kind, c in counts.items()} == {
        "finite": (13, 208, 0), "singular": (9, 309, 15), "indefinite": (42, 1236, 276)}
    assert all(c["unequal"] == 0 for c in counts.values())
