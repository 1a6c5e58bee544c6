"""Instance files, the two-route verifier and the battery runner.

An instance pins a Cartan matrix, a diagram automorphism, a weight and a
Weyl word, each given on either the folded or the unfolded side.  The
verifier computes the twining character directly in the word model (left
side) and the folded Demazure character pushed through the weight lift
(right side) and compares them exactly; a mismatch is a report, not a
crash, so the harness doubles as a falsification tool.

Each type check runs once per ``Instance`` built, however it is built, and
each value check once per distinct instance while its family is cached.
``parse_instance`` adds only the checks of the dict's keys.  ``prepare``
checks the values and keeps the prepared record, and ``verify_prepared``
runs the route cores, which keep every mathematical check on every call.
Every record here is a NamedTuple (``Instance``, ``PreparedInstance``,
``VerificationReport``, ``BatteryFamily``, ``BatteryConfig`` and
``BatterySummary``): immutable, changed with ``_replace``, which for an
``Instance`` checks as its constructor does.  Each family, one matrix with
one automorphism, is built and folded once per process, in the one bounded
cache ``_family``.  Its key is the catalog label or the strict-int rows and
the strict-int permutation, never raw fields: ``Instance`` makes that key
for ``prepare``, and ``_folding`` makes it for a battery family.  On a miss
the matrix is built and ``fold`` checks the permutation; a failed build or
fold is not cached, and neither is a failed ``prepare``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import lru_cache
from time import perf_counter_ns
from typing import NamedTuple

from . import weyl, word_model
from .characters import canonical_serialize, lifted_core
from .errors import InvalidInput, NotDiagramAutomorphism, TooLarge
from .folding import (
    DiagramAutomorphism,
    FoldingData,
    _fold_letters,
    _unfold_letters,
    fold,
    fold_weight,
    unfold_weight,
)
from .root_data import (
    BoundedCache,
    CharacterPolynomial,
    GeneralizedCartanMatrix,
    Weight,
    _dominant,
    _letters,
    _sequence,
    cartan_matrix,
    int_at_least,
    int_tuple,
    parse_label,
    validate_gcm,
    weight_box,
)

Word = tuple[int, ...]
# builds a NamedTuple record in C, past the Python __new__ that NamedTuple generates
_record = tuple.__new__


class _InstanceFields(NamedTuple):
    gcm: object                      # catalog label (str) or integer matrix
    automorphism: tuple[int, ...]
    lambda_hat: Weight | None = None
    lam: Weight | None = None
    w_hat: Word | None = None
    w: Word | None = None


class Instance(_InstanceFields):
    """One verification problem as found in an instance file.

    Building one checks the types, however it is built: directly, by
    ``parse_instance``, or by ``_make`` and ``_replace``, which go through
    the constructor.  The matrix is a label or rows, and the rows and every
    list field become tuples of ints (``int_tuple``: a bool, float or str
    entry is invalid input); exactly one of each pair of sides is given.
    """

    __slots__ = ()

    def __new__(cls, gcm, automorphism, lambda_hat=None, lam=None, w_hat=None, w=None):
        if not isinstance(gcm, str):
            if not isinstance(gcm, (list, tuple)):
                raise InvalidInput("field 'gcm' must be a catalog label or a list of rows")
            gcm = tuple(int_tuple(row, "gcm row") for row in gcm)
        automorphism = int_tuple(automorphism, "field 'automorphism'")
        if lambda_hat is not None:
            lambda_hat = int_tuple(lambda_hat, "field 'lambda_hat'")
        if lam is not None:
            lam = int_tuple(lam, "field 'lambda'")
        if w_hat is not None:
            w_hat = int_tuple(w_hat, "field 'w_hat'")
        if w is not None:
            w = int_tuple(w, "field 'w'")
        if (lambda_hat is None) == (lam is None):
            raise InvalidInput("exactly one of lambda_hat / lambda must be given")
        if (w_hat is None) == (w is None):
            raise InvalidInput("exactly one of w_hat / w must be given")
        return _record(cls, (gcm, automorphism, lambda_hat, lam, w_hat, w))

    @classmethod
    def _make(cls, iterable) -> "Instance":
        return cls(*iterable)

    def to_dict(self) -> dict:
        out: dict = {"gcm": self.gcm if isinstance(self.gcm, str)
                     else [list(r) for r in self.gcm]}
        for key, value in zip(("automorphism", "lambda_hat", "lambda", "w_hat", "w"), self[1:]):
            if value is not None:
                out[key] = list(value)
        return out


_INSTANCE_KEYS = frozenset({"gcm", "automorphism", "lambda_hat", "lambda", "w_hat", "w"})


def parse_instance(data: dict) -> Instance:
    """The instance of a dict read from an instance file.

    Checks the shape of the dict, its keys; ``Instance`` checks the types.
    """
    if not isinstance(data, dict):
        raise InvalidInput("instance must be a JSON object")
    if not _INSTANCE_KEYS.issuperset(data):
        raise InvalidInput(f"unknown instance fields: {sorted(data.keys() - _INSTANCE_KEYS)}")
    if "gcm" not in data or "automorphism" not in data:
        raise InvalidInput("instance needs 'gcm' and 'automorphism'")
    return Instance(data["gcm"], data["automorphism"], data.get("lambda_hat"),
                    data.get("lambda"), data.get("w_hat"), data.get("w"))


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as handle:
        return parse_instance(json.load(handle))


class PreparedInstance(NamedTuple):
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
    """The matrix of a catalog label or of rows, checked on every call."""
    return cartan_matrix(source) if isinstance(source, str) else validate_gcm(source)


@lru_cache(maxsize=64)
def _family(source, perm: tuple[int, ...]) -> FoldingData:
    # keyed on a label or strict-int rows and a strict-int perm, as (True, False) == (1, 0)
    # hashes alike; the matrix is built and fold checks perm on a miss, but a label of
    # another rank than perm raises as fold would before its matrix is built
    if isinstance(source, str) and (n := parse_label(source)[1]) != len(perm):
        raise NotDiagramAutomorphism(f"{list(perm)} is not a bijection of 0..{n - 1}")
    return fold(build_gcm(source), perm)


def _folding(gcm_source, automorphism) -> FoldingData:
    """The folding data of a battery family, folded and checked once."""
    key = gcm_source if isinstance(gcm_source, str) else tuple(
        int_tuple(row, "matrix row") for row in _sequence(gcm_source, "matrix"))
    return _family(key, int_tuple(automorphism, "automorphism"))


# prepared instances kept before the oldest drops; no benchmark pool has more than 563
CACHE_PREPARED = 1024
_prepared = BoundedCache(CACHE_PREPARED)


def prepare(instance: Instance) -> PreparedInstance:
    """Check the values of an instance once and convert it to both sides.

    ``Instance`` has checked the types, so the cache keys are strict ints;
    anything else, even an equal tuple, is refused.  This is the one value
    check of ``verify``: the matrix and the automorphism, the size and
    symmetry of the weight, the letters of the word and, last, the
    dominance of the weight, so the first of two faults is reported.  The
    record is served again while ``_family`` holds its folding data.
    """
    if not isinstance(instance, Instance):
        raise InvalidInput(f"prepare needs an Instance, not {type(instance).__name__}")
    data = _family(instance.gcm, instance.automorphism)
    if (prep := _prepared.get(instance)) is not None and prep.folding is data:
        return prep
    if instance.lam is not None:
        lam = instance.lam
        lambda_hat = fold_weight(data, lam)
    else:
        lambda_hat = instance.lambda_hat
        lam = unfold_weight(data, lambda_hat)
    if instance.w is not None:
        w = _letters(data.gcm, instance.w)
        w_hat = _fold_letters(data, w)
    else:
        w_hat = _letters(data.folded, instance.w_hat)
        w = _unfold_letters(data, w_hat)
    prep = _record(PreparedInstance, (data, _dominant(data.gcm, lam), lambda_hat, w, w_hat,
                                      instance))
    _prepared.add(instance, prep)
    return prep


class VerificationReport(NamedTuple):
    source: Instance
    lhs: CharacterPolynomial
    rhs: CharacterPolynomial
    equal: bool
    ms: float                        # wall time of both routes, ms to 3 decimals

    @property
    def instance(self) -> dict:
        return self.source.to_dict()

    @property
    def dims(self) -> dict:
        # the lift keeps coefficients, so rhs sums to the folded Demazure dimension
        return {"folded_demazure_dim": self.rhs.coefficient_sum(),
                "lhs_terms": len(self.lhs),
                "rhs_terms": len(self.rhs)}

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
    folding = prep.folding
    start = perf_counter_ns()
    lhs = word_model.twining_core(folding.gcm, prep.lam, prep.w, folding.auto.perm, word_cap)
    rhs = lifted_core(folding, prep.lambda_hat, prep.w_hat)
    ms = round((perf_counter_ns() - start) / 1e6, 3)
    return _record(VerificationReport, (prep.source, lhs, rhs, lhs == rhs, ms))


def verify(instance: Instance | dict,
           word_cap: int = word_model.DEFAULT_WORD_CAP) -> VerificationReport:
    """Check one instance by both routes and report both sides.

    Takes an ``Instance`` or a dict as read from an instance file; anything
    else goes through ``parse_instance``, which refuses it as invalid input.
    """
    if not isinstance(instance, Instance):
        instance = parse_instance(instance)
    return verify_prepared(prepare(instance), word_cap)


class BatteryFamily(NamedTuple):
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


class BatteryConfig(NamedTuple):
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


class BatterySummary(NamedTuple):
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
             f"dims: {report.dims}"]
    for side, poly in (("lhs", report.lhs), ("rhs", report.rhs)):
        lines.append(f"{side}:")
        lines.extend("  " + line for line in canonical_serialize(poly).splitlines())
    if not report.equal:
        lines.append("differing terms (weight, lhs, rhs):")
        lines.extend(f"  {list(w)}: {a} vs {b}" for w, a, b in report.differing_terms)
    return "\n".join(lines)
