#!/usr/bin/env python3
"""Regenerate the committed instance pools of the verification benchmark.

    python3 verifybench/make_pools.py

Each pool is the list of instance dicts (the ``parse_instance`` schema)
that the library decides as ``equal`` under the workload's word cap, with
the SHA-256 digest of the canonical serialization of the verified
character and, where ``w_hat`` is the longest folded element, the Weyl
dimension of the folded module.  The pools are frozen on purpose: later
changes to ``battery_instances`` or the default families must not move a
workload, so only a change that redefines the benchmark reruns this.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from twinchar import harness, weyl  # noqa: E402
from twinchar.characters import canonical_serialize  # noqa: E402
from twinchar.errors import TooLarge  # noqa: E402
from twinchar.root_data import weyl_dimension  # noqa: E402

D5_SWAP = harness.BatteryFamily(
    "D5-swap", "D5", (0, 1, 2, 4, 3),
    ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)), max_word_len=6)

# Skipped by the default cap but cheap once it is lifted.
CAP_SKIPPED_EXTRAS = (
    {"gcm": "A4", "automorphism": [3, 2, 1, 0], "lambda_hat": [0, 1], "w_hat": [1, 0, 1]},
    {"gcm": "A4", "automorphism": [3, 2, 1, 0], "lambda_hat": [0, 1], "w_hat": [0, 1, 0, 1]},
    {"gcm": "D4", "automorphism": [2, 1, 3, 0], "lambda_hat": [1, 0], "w_hat": [0, 1, 0]},
    {"gcm": "D4", "automorphism": [2, 1, 3, 0], "lambda_hat": [1, 0], "w_hat": [0, 1, 0, 1]},
)

WORKLOADS = {
    "battery_default": {
        "definition": "twinchar battery: the default families at the default "
                      "word cap, the instances the cap skips left out",
        "config": harness.BatteryConfig(),
        "lift_word_cap": False,
        "extras": (),
    },
    "word_model_heavy": {
        "definition": "twinchar battery --lambda-box 2 --max-word-len 3, the "
                      "instances the default cap decides, plus four "
                      "cap-skipped default-battery instances; word cap lifted",
        "config": harness.BatteryConfig(lambda_box=2, max_word_len=3),
        "lift_word_cap": True,
        "extras": CAP_SKIPPED_EXTRAS,
    },
    "weyl_fold_heavy": {
        "definition": "D5 with the swap automorphism (0,1,2,4,3), folded words "
                      "of length <= 6, lambda_hat in {(0,0,0,0), (1,0,0,0), "
                      "(0,0,0,1)}, at the default word cap, the instances the "
                      "cap skips left out",
        "config": harness.BatteryConfig(families=(D5_SWAP,)),
        "lift_word_cap": False,
        "extras": (),
    },
}


def decided(instance: dict) -> bool:
    """True when the library decides the instance at the default word cap."""
    try:
        harness.verify(instance)
    except TooLarge:
        return False
    return True


def entry_of(instance: dict, lift_word_cap: bool) -> dict:
    """Pool entry for one instance: the instance, its digest, its Weyl dimension."""
    kwargs = {"word_cap": sys.maxsize} if lift_word_cap else {}
    report = harness.verify(instance, **kwargs)
    text = canonical_serialize(report.lhs)
    if not report.equal or canonical_serialize(report.rhs) != text:
        raise SystemExit(f"instance {instance} is not verified; refusing to freeze it")
    entry = {"instance": instance,
             "digest": hashlib.sha256(text.encode()).hexdigest()}
    prep = harness.prepare(harness.parse_instance(instance))
    folded = prep.folding.folded
    longest = weyl.element_of(folded, weyl.longest_element(folded))
    if weyl.element_of(folded, prep.w_hat) == longest:
        entry["weyl_dim"] = weyl_dimension(folded, prep.lambda_hat)
    return entry


def main() -> None:
    for name, spec in WORKLOADS.items():
        candidates = [inst.to_dict() for _, inst in harness.battery_instances(spec["config"])]
        chosen = [i for i in candidates if decided(i)] + list(spec["extras"])
        entries = [entry_of(i, spec["lift_word_cap"]) for i in chosen]
        pool = {"workload": name, "definition": spec["definition"],
                "lift_word_cap": spec["lift_word_cap"], "instances": entries}
        path = HERE / "pools" / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(pool, separators=(",", ":")).replace(
                '{"instance"', '\n{"instance"') + "\n")
        longest = sum("weyl_dim" in e for e in entries)
        print(f"{name}: {len(entries)} instances, {longest} longest-element checks")


if __name__ == "__main__":
    main()
