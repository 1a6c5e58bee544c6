"""Instance files, the two-route verifier and the battery runner.

An instance pins a Cartan matrix, a diagram automorphism, a weight and a
Weyl word, each given on either the folded or the unfolded side.  The
verifier computes the twining character directly in the word model (left
side) and the folded Demazure character pushed through the weight lift
(right side) and compares them exactly; a mismatch is a report, not a
crash, so the harness doubles as a falsification tool.

``parse_instance`` checks the types of an instance and ``prepare`` checks
the rest, once; ``verify_prepared`` then runs the route cores, which keep
every mathematical check.  Each (matrix, automorphism) family is folded
once per process, in a bounded cache keyed on the validated matrix and the
strict-int permutation, never on raw fields: ``fold`` checks the
permutation on a miss, and a failed fold is not cached.  A matrix given by
its rows is validated once per process the same way: the cache key is the
rows after the strict integer check, never the raw rows.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from . import weyl, word_model
from .characters import canonical_serialize, demazure_core, map_character
from .errors import InvalidInput, TooLarge
from .folding import (
    DiagramAutomorphism,
    FoldingData,
    fold,
    fold_weight,
    fold_word,
    unfold_weight,
    unfold_word,
)
from .root_data import (
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    Weight,
    _sequence,
    cartan_matrix,
    dominant_weight,
    int_at_least,
    int_tuple,
    validate_gcm,
    weight_box,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """One verification problem as found in an instance file."""

    gcm: object                      # catalog label (str) or integer matrix
    automorphism: tuple[int, ...]
    lambda_hat: Weight | None = None
    lam: Weight | None = None
    w_hat: Word | None = None
    w: Word | None = None

    def __post_init__(self):
        if (self.lambda_hat is None) == (self.lam is None):
            raise InvalidInput("exactly one of lambda_hat / lambda must be given")
        if (self.w_hat is None) == (self.w is None):
            raise InvalidInput("exactly one of w_hat / w must be given")

    def to_dict(self) -> dict:
        out: dict = {"gcm": self.gcm if isinstance(self.gcm, str)
                     else [list(r) for r in self.gcm],
                     "automorphism": list(self.automorphism)}
        if self.lambda_hat is not None:
            out["lambda_hat"] = list(self.lambda_hat)
        if self.lam is not None:
            out["lambda"] = list(self.lam)
        if self.w_hat is not None:
            out["w_hat"] = list(self.w_hat)
        if self.w is not None:
            out["w"] = list(self.w)
        return out


def parse_instance(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InvalidInput("instance must be a JSON object")
    known = {"gcm", "automorphism", "lambda_hat", "lambda", "w_hat", "w"}
    unknown = set(data) - known
    if unknown:
        raise InvalidInput(f"unknown instance fields: {sorted(unknown)}")
    if "gcm" not in data or "automorphism" not in data:
        raise InvalidInput("instance needs 'gcm' and 'automorphism'")

    def as_tuple(key):
        value = data.get(key)
        return None if value is None else int_tuple(value, f"field {key!r}")

    gcm = data["gcm"]
    if not isinstance(gcm, str):
        if not isinstance(gcm, list):
            raise InvalidInput("field 'gcm' must be a catalog label or a list of rows")
        gcm = tuple(int_tuple(row, "gcm row") for row in gcm)
    return Instance(gcm=gcm,
                    automorphism=int_tuple(data["automorphism"], "field 'automorphism'"),
                    lambda_hat=as_tuple("lambda_hat"),
                    lam=as_tuple("lambda"),
                    w_hat=as_tuple("w_hat"),
                    w=as_tuple("w"))


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as handle:
        return parse_instance(json.load(handle))


@dataclass(frozen=True)
class PreparedInstance:
    """Instance with both the folded and unfolded data filled in."""

    folding: FoldingData
    lam: Weight
    lambda_hat: Weight
    w: Word
    w_hat: Word
    source: Instance

    @property
    def gcm(self) -> GeneralizedCartanMatrix:
        return self.folding.gcm

    @property
    def auto(self) -> DiagramAutomorphism:
        return self.folding.auto


def build_gcm(source) -> GeneralizedCartanMatrix:
    if isinstance(source, str):
        return cartan_matrix(source)
    return _matrix(tuple(int_tuple(row, "matrix row") for row in _sequence(source, "matrix")))


@lru_cache(maxsize=64)
def _matrix(rows: tuple[tuple[int, ...], ...]) -> GeneralizedCartanMatrix:
    # keyed on rows through int_tuple only: (True, False) == (1, 0) and both hash alike
    return validate_gcm(rows)


@lru_cache(maxsize=64)
def _family(gcm: GeneralizedCartanMatrix, perm: tuple[int, ...]) -> FoldingData:
    # strict ints only, as (True, False) == (1, 0) hashes alike; fold checks perm on a miss
    return fold(gcm, perm)


def _folding(gcm_source, automorphism) -> FoldingData:
    """The folding data of a family, folded and checked once."""
    return _family(build_gcm(gcm_source), int_tuple(automorphism, "automorphism"))


def prepare(instance: Instance) -> PreparedInstance:
    """Check an instance once (the one check layer of ``verify``) and convert it to both sides.

    Dominance comes last, so the first error of an instance with two faults stays the same.
    """
    data = _folding(instance.gcm, instance.automorphism)
    if instance.lam is not None:
        lam = instance.lam
        lambda_hat = fold_weight(data, lam)
    else:
        lambda_hat = instance.lambda_hat
        lam = unfold_weight(data, lambda_hat)
    if instance.w is not None:
        w = instance.w
        w_hat = fold_word(data, w)
    else:
        w_hat = instance.w_hat
        w = unfold_word(data, w_hat)
    return PreparedInstance(data, dominant_weight(data.gcm, lam), tuple(lambda_hat), tuple(w),
                            tuple(w_hat), instance)


@dataclass(frozen=True)
class VerificationReport:
    instance: dict
    lhs: CharacterPolynomial
    rhs: CharacterPolynomial
    equal: bool
    ms: float                        # wall time of both routes, ms to 3 decimals
    dims: dict

    @property
    def differing_terms(self) -> list:
        weights = sorted(self.lhs.support() | self.rhs.support(), reverse=True)
        return [(w, self.lhs.coefficient(w), self.rhs.coefficient(w))
                for w in weights
                if self.lhs.coefficient(w) != self.rhs.coefficient(w)]

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "lhs": [[c, list(w)] for w, c in self.lhs.sorted_terms()],
            "rhs": [[c, list(w)] for w, c in self.rhs.sorted_terms()],
            "equal": self.equal,
            "ms": self.ms,
            "dims": self.dims,
        }


def verify_prepared(prep: PreparedInstance,
                    word_cap: int = word_model.DEFAULT_WORD_CAP) -> VerificationReport:
    """Run both routes on prepared data; shared code stops at the root layer.

    Trusts a ``PreparedInstance`` made by ``prepare`` and runs the route
    cores, which keep every mathematical check.  The left side never
    touches the folding data, the right side never touches the word model.
    """
    start = time.perf_counter_ns()
    lhs = word_model.twining_core(prep.gcm, prep.lam, prep.w, prep.auto.perm, word_cap)
    folded_char = demazure_core(prep.folding.folded, prep.lambda_hat, prep.w_hat)
    rhs = map_character(prep.folding, folded_char)
    ms = round((time.perf_counter_ns() - start) / 1e6, 3)
    dims = {
        "folded_demazure_dim": folded_char.coefficient_sum(),
        "lhs_terms": len(lhs),
        "rhs_terms": len(rhs),
    }
    return VerificationReport(prep.source.to_dict(), lhs, rhs, lhs == rhs, ms, dims)


def verify(instance: Instance | dict,
           word_cap: int = word_model.DEFAULT_WORD_CAP) -> VerificationReport:
    if isinstance(instance, dict):
        instance = parse_instance(instance)
    return verify_prepared(prepare(instance), word_cap)


@dataclass(frozen=True)
class BatteryFamily:
    """One (matrix, automorphism) family of the battery with its sweeps."""

    name: str
    gcm: object
    automorphism: tuple[int, ...]
    lambda_hats: tuple[Weight, ...]
    max_word_len: int | None = None   # None sweeps the whole folded Weyl group


def default_families() -> tuple[BatteryFamily, ...]:
    return (
        BatteryFamily("A2-flip", "A2", (1, 0),
                      tuple((m,) for m in range(4))),
        BatteryFamily("A3-flip", "A3", (2, 1, 0),
                      tuple((a, b) for a in range(2) for b in range(2))),
        BatteryFamily("A4-flip", "A4", (3, 2, 1, 0), ((1, 0), (0, 1))),
        BatteryFamily("D4-triality", "D4", (2, 1, 3, 0), ((1, 0), (0, 1))),
        BatteryFamily("D4-swap", "D4", (0, 1, 3, 2), ((0, 1, 0),), max_word_len=4),
    )


@dataclass(frozen=True)
class BatteryConfig:
    families: tuple[BatteryFamily, ...] = ()
    word_cap: int = word_model.DEFAULT_WORD_CAP
    max_word_len: int | None = None   # overrides every family sweep when set
    lambda_box: int | None = None     # sweep lambda_hat over {0..box}^n instead


def battery_instances(config: BatteryConfig) -> Iterator[tuple[str, Instance]]:
    """Yield the (key, instance) pairs of the battery config, deterministically.

    Instances are built one at a time, so a wide ``lambda_box`` sweep starts
    verifying before the rest of it exists.
    """
    if config.lambda_box is not None:
        int_at_least(config.lambda_box, 0, "lambda box")
    for family in config.families or default_families():
        data = _folding(family.gcm, family.automorphism)
        max_word_len = (family.max_word_len if config.max_word_len is None
                        else config.max_word_len)
        words = [w for w, _ in weyl.enumerate_weyl(data.folded, max_word_len)]
        if config.lambda_box is not None:
            lambda_hats = weight_box(data.folded.n, 0, config.lambda_box)  # already ascending
        else:
            lambda_hats = family.lambda_hats
        for lambda_hat in lambda_hats:
            for w_hat in words:
                key = (f"{family.name} lambda_hat={list(lambda_hat)} "
                       f"w_hat={list(w_hat)}")
                yield key, Instance(gcm=family.gcm,
                                    automorphism=family.automorphism,
                                    lambda_hat=tuple(lambda_hat),
                                    w_hat=tuple(w_hat))


@dataclass
class BatterySummary:
    records: list[dict]

    @property
    def counts(self) -> dict:
        out = {"equal": 0, "unequal": 0, "skipped": 0}
        for record in self.records:
            out[record["status"]] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.counts["unequal"] else 0

    def to_dict(self) -> dict:
        return {"counts": self.counts, "records": self.records}


def run_battery(config: BatteryConfig | None = None) -> BatterySummary:
    """Verify every battery instance; instances over the word cap are skipped."""
    config = config or BatteryConfig()
    records = []
    for key, instance in battery_instances(config):
        try:
            report = verify(instance, word_cap=config.word_cap)
        except TooLarge as exc:
            records.append({"key": key, "status": "skipped", "reason": str(exc)})
            continue
        record = {"key": key, "status": "equal" if report.equal else "unequal",
                  "ms": report.ms}
        if not report.equal:
            record["report"] = report.to_dict()
        records.append(record)
    return BatterySummary(records)


def format_report(report: VerificationReport) -> str:
    lines = [f"verdict: {'equal' if report.equal else 'UNEQUAL'}",
             f"elapsed: {report.ms:.3f} ms",
             f"dims: {report.dims}",
             "lhs:"]
    lines.extend("  " + line for line in canonical_serialize(report.lhs).splitlines())
    lines.append("rhs:")
    lines.extend("  " + line for line in canonical_serialize(report.rhs).splitlines())
    if not report.equal:
        lines.append("differing terms (weight, lhs, rhs):")
        lines.extend(f"  {list(w)}: {a} vs {b}" for w, a, b in report.differing_terms)
    return "\n".join(lines)
