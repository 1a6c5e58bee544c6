#!/usr/bin/env python3
"""Verification benchmark of twinchar: fixed instance pools through ``verify``.

    python3 verifybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from ``src/``
of that checkout; nothing is installed or built.  One process runs one
workload, single-threaded.

Untraced run (``--trace 0``): run whole passes over the pool, each in a
seeded order, until ``--seconds`` have passed, timing every
``harness.verify(instance_dict)`` call.  The latency percentiles are taken
over the instances of the pool, each at its fastest time in the run, and
the throughput is the pool size over the sum of those fastest times: the
speed of a shared machine drifts by tens of percent over seconds to
minutes, and the fastest times are the figures that drift disturbs least.
Set up ``SETUP_REPS`` times, spread over the run, and report the median
as ``setup_s``.  A set-up imports ``twinchar`` afresh, parses the
committed pool and makes a warm-up pass over one instance per family,
which fills the ``lru_cache``s; the warm-up counts toward ``setup_s``,
not toward the verify timings.

Traced run (``--trace 1``): set up once, then alternate an untraced pass
and a traced pass until ``--seconds`` have passed (at least two of each).
The traced pass drives the stages of ``verify`` itself and wraps, at run
time, the module attributes the library looks up (see ``TRACED``), so the
per-layer self times come from spans recorded here; no library file is
edited.  Spans are written to ``verifybench/out/`` when the run ends.

Every output is checked: verdict ``equal``, the SHA-256 of the canonical
serialization of both sides equal to the committed digest, and, where
``w_hat`` is the longest folded element, ``lhs.coefficient_sum()`` equal
to the committed Weyl dimension.  The traced run also checks that its
outputs equal the untraced ones, that the exact counters repeat across
traced passes, and that the layer self times sum to ``harness.verify_s``
within the measured tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import importlib
import inspect
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOLS = HERE / "pools"
OUT = HERE / "out"

WORKLOADS = ("battery_default", "word_model_heavy", "weyl_fold_heavy")
SETUP_REPS = 15
MIN_TRACED_PAIRS = 2
# The overhead ratio of a few passes is itself uncertain by about this share,
# so the consistency check allows it on top of the measured overhead.
RATIO_NOISE = 0.01
LIB_MODULES = ("harness", "folding", "weyl", "word_model", "characters")

# span name -> (module, attribute) pairs that callers look up at call time
TRACED = {
    "folding.fold": (("harness", "fold"), ("folding", "fold")),
    "folding.word": (("harness", "unfold_word"), ("harness", "fold_word"),
                     ("folding", "unfold_word"), ("folding", "fold_word")),
    "weyl.reduced_word": (("weyl", "reduced_word"),),
    "weyl.element_of": (("weyl", "element_of"),),
    "weyl.is_in_w_tilde": (("weyl", "is_in_w_tilde"),),
    "word_model.demazure_subspaces": (("word_model", "demazure_subspaces"),),
    "word_model.extremal_vector": (("word_model", "extremal_vector"),),
    "word_model.twining_trace": (("word_model", "twining_trace"),),
}

# per-layer metric -> span whose self time (or call count) it reports
SELF_TIMES = {
    "harness.parse_s": "harness.parse",
    "harness.prepare_s": "harness.prepare",
    "folding.fold_s": "folding.fold",
    "folding.word_s": "folding.word",
    "weyl.reduced_word_s": "weyl.reduced_word",
    "weyl.element_of_s": "weyl.element_of",
    "weyl.is_in_w_tilde_s": "weyl.is_in_w_tilde",
    "word_model.twining_s": "word_model.twining",
    "word_model.dp_self_s": "word_model.demazure_subspaces",
    "word_model.extremal_s": "word_model.extremal_vector",
    "word_model.trace_s": "word_model.twining_trace",
    "characters.demazure_s": "characters.demazure",
    "characters.lift_s": "characters.lift",
    "harness.compare_s": "harness.compare",
}
CALLS = {
    "folding.fold_calls": "folding.fold",
    "weyl.reduced_word_calls": "weyl.reduced_word",
    "weyl.element_of_calls": "weyl.element_of",
    "weyl.is_in_w_tilde_calls": "weyl.is_in_w_tilde",
}
INCLUSIVE = ("harness.prepare", "folding.fold", "word_model.twining",
             "characters.demazure")
COUNTS = ("word_model.contents", "word_model.dim_total", "word_model.stored_pairings",
          "word_model.max_row_pairings", "word_model.span_offered",
          "characters.demazure_terms")


class Library:
    """The twinchar modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "twinchar" or m.startswith("twinchar.")]:
            del sys.modules[name]
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"twinchar.{name}"))


class Pool:
    """A committed instance pool and the keyword arguments it runs with."""

    def __init__(self, lib: Library, workload: str):
        with open(POOLS / f"{workload}.json", encoding="utf-8") as handle:
            data = json.load(handle)
        self.entries = data["instances"]
        for entry in self.entries:
            lib.harness.parse_instance(entry["instance"])
        self.warmup = warmup_order(self.entries)
        lift = data["lift_word_cap"]
        self.verify_kwargs = cap_kwargs(lib.harness.verify, lift)
        self.twining_kwargs = cap_kwargs(lib.word_model.twining_character, lift)


def warmup_order(entries) -> list[int]:
    """One instance per (gcm, automorphism) family: the smallest weight, longest word.

    Its verification builds every ``lru_cache`` entry the family needs (the
    Cartan matrices, positive roots, reflection matrices and the Cartan
    inverse used by ``reduced_word``) at the least word-model cost.
    """
    best: dict[str, tuple] = {}
    for idx, entry in enumerate(entries):
        inst = entry["instance"]
        family = json.dumps([inst["gcm"], inst["automorphism"]])
        key = (sum(inst["lambda_hat"]), -len(inst["w_hat"]), idx)
        best[family] = min(best.get(family, key), key)
    return sorted(key[2] for key in best.values())


def cap_kwargs(function, lift: bool) -> dict:
    """``word_cap`` lifted, when the workload asks for it and the keyword exists."""
    if lift and "word_cap" in inspect.signature(function).parameters:
        return {"word_cap": sys.maxsize}
    return {}


def digest(lib: Library, poly) -> str:
    return hashlib.sha256(lib.characters.canonical_serialize(poly).encode()).hexdigest()


def check(lib: Library, entry: dict, outcome) -> str | None:
    """None when the outcome is correct, else the reason it is not."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    lhs, rhs, equal = outcome
    if not equal:
        return "unequal verdict"
    if digest(lib, lhs) != entry["digest"] or digest(lib, rhs) != entry["digest"]:
        return "digest mismatch"
    if "weyl_dim" in entry and lhs.coefficient_sum() != entry["weyl_dim"]:
        return f"coefficient sum {lhs.coefficient_sum()} != Weyl dimension {entry['weyl_dim']}"
    return None


class Checks:
    """Output checks over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, lib: Library, pool: Pool, order, outcomes, counted: bool = True) -> None:
        """Check each outcome; ``counted`` passes add to attempted and failed."""
        for idx, outcome in zip(order, outcomes):
            reason = check(lib, pool.entries[idx], outcome)
            if counted:
                self.attempted += 1
                self.failed += reason is not None
            if reason:
                prefix = "" if counted else "warm-up: "
                self.problems.append(f"{prefix}{pool.entries[idx]['instance']}: {reason}")


def untraced_pass(lib: Library, pool: Pool, order) -> tuple[int, list[int], list]:
    """Time ``harness.verify`` on every instance; return wall, samples, outcomes."""
    verify = lib.harness.verify
    kwargs = pool.verify_kwargs
    entries = pool.entries
    samples, outcomes = [], []
    start = perf_counter_ns()
    for idx in order:
        t0 = perf_counter_ns()
        try:
            report = verify(entries[idx]["instance"], **kwargs)
            outcome = (report.lhs, report.rhs, report.equal)
        except Exception as exc:  # counted as a failed instance
            outcome = exc
        samples.append(perf_counter_ns() - t0)
        outcomes.append(outcome)
    return perf_counter_ns() - start, samples, outcomes


def set_up(workload: str, checks: Checks):
    """Fresh import, pool parse and the warm-up pass; return (seconds, lib, pool)."""
    gc.collect()
    start = perf_counter()
    lib = Library()
    pool = Pool(lib, workload)
    _, _, outcomes = untraced_pass(lib, pool, pool.warmup)
    seconds = perf_counter() - start
    checks.record(lib, pool, pool.warmup, outcomes, counted=False)
    return seconds, lib, pool


def shuffled(pool: Pool, rng: random.Random) -> list[int]:
    order = list(range(len(pool.entries)))
    rng.shuffle(order)
    return order


# -- traced run ---------------------------------------------------------------

def traced_verify(lib: Library, tracer, pool: Pool, instance: dict):
    """The stages of ``harness.verify``, each under its own span."""
    h, wm, ch = lib.harness, lib.word_model, lib.characters
    with tracer.span("harness.verify"):
        with tracer.span("harness.parse"):
            parsed = h.parse_instance(instance)
        with tracer.span("harness.prepare"):
            prep = h.prepare(parsed)
        with tracer.span("word_model.twining"):
            lhs = wm.twining_character(prep.gcm, prep.lam, prep.w, prep.auto.perm,
                                       **pool.twining_kwargs)
        with tracer.span("characters.demazure"):
            folded_char = ch.demazure_character(prep.folding.folded, prep.lambda_hat,
                                                prep.w_hat)
        with tracer.span("characters.lift"):
            rhs = ch.map_character(prep.folding, folded_char)
        with tracer.span("harness.compare"):
            equal = lhs == rhs
    return lhs, rhs, equal, folded_char


def add_counts(counts: dict, subspace_dicts, folded_char) -> None:
    """Exact word-model and Demazure counts, read from returned values.

    ``span_offered`` counts every raising image the DP forms: the
    extremal line, plus, for each returned content above another, one
    image per row and per letter it can raise away.
    """
    for subspaces in subspace_dicts:
        for content, sub in subspaces.items():
            dim = len(sub.rows)
            counts["word_model.contents"] += 1
            counts["word_model.dim_total"] += dim
            for row in sub.rows:
                counts["word_model.stored_pairings"] += len(row.coords)
                counts["word_model.max_row_pairings"] = max(
                    counts["word_model.max_row_pairings"], len(row.coords))
            counts["word_model.span_offered"] += dim * sum(1 for c in content if c)
        counts["word_model.span_offered"] += 1
    counts["characters.demazure_terms"] += len(folded_char)


def traced_pass(lib: Library, tracer, pool: Pool, order):
    """One traced pass; return (wall_ns without counting, outcomes, summary, counts)."""
    tracer.spans = []
    counts = dict.fromkeys(COUNTS, 0)
    outcomes = []
    counting_ns = 0
    gc.collect()
    start = perf_counter_ns()
    for request, idx in enumerate(order):
        tracer.request = request
        try:
            lhs, rhs, equal, folded_char = traced_verify(
                lib, tracer, pool, pool.entries[idx]["instance"])
            outcome = (lhs, rhs, equal)
        except Exception as exc:  # counted as a failed instance
            outcome = exc
            folded_char = ()
        t0 = perf_counter_ns()
        try:
            add_counts(counts, tracer.take_results("word_model.demazure_subspaces"),
                       folded_char)
        except (AttributeError, TypeError):  # the subspace layout changed
            tracer.absent.add("word_model subspace rows and coords")
        counting_ns += perf_counter_ns() - t0
        outcomes.append(outcome)
    wall = perf_counter_ns() - start - counting_ns
    return wall, outcomes, tracer.summary(), counts


def traced_run(workload: str, seed: int, seconds: float):
    rng = random.Random(seed)
    checks = Checks()
    _, lib, pool = set_up(workload, checks)
    untraced_ns, traced_ns = [], []
    summaries, counters, digests = [], [], []
    deadline = perf_counter() + seconds
    tracer = Tracer()
    while len(traced_ns) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        order = shuffled(pool, rng)
        gc.collect()
        wall, _, outcomes = untraced_pass(lib, pool, order)
        untraced_ns.append(wall)
        checks.record(lib, pool, order, outcomes)
        plain = outcome_digests(lib, order, outcomes)

        order = shuffled(pool, rng)
        for name, targets in TRACED.items():
            tracer.wrap(name, [(getattr(lib, m), a) for m, a in targets],
                        keep_result=name == "word_model.demazure_subspaces")
        try:
            wall, outcomes, summary, counts = traced_pass(lib, tracer, pool, order)
        finally:
            tracer.unwrap()
        traced_ns.append(wall)
        checks.record(lib, pool, order, outcomes)
        summaries.append(summary)
        counters.append((counts, {n: s["calls"] for n, s in summary.items()}))
        traced = outcome_digests(lib, order, outcomes)
        if traced != plain:
            checks.problems.append("traced outputs differ from untraced outputs")
        digests.append(traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json")

    if any(c != counters[0] for c in counters[1:]):
        checks.problems.append("exact counters differ between traced passes")
    if any(d != digests[0] for d in digests[1:]):
        checks.problems.append("output digests differ between traced passes")
    return layer_metrics(summaries, counters[0][0], sum(traced_ns) / sum(untraced_ns),
                         checks, sorted(tracer.absent)), checks


def outcome_digests(lib: Library, order, outcomes) -> dict:
    return {idx: (digest(lib, o[0]), digest(lib, o[1]), o[2])
            for idx, o in zip(order, outcomes) if not isinstance(o, Exception)}


def layer_metrics(summaries, counts, overhead: float, checks: Checks, absent) -> dict:
    passes = len(summaries)

    def mean_s(span: str, field: str) -> float:
        return sum(s.get(span, {}).get(field, 0) for s in summaries) / passes / 1e9

    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = (mean_s(span, "self_ns"), "s")
    for metric, span in CALLS.items():
        metrics[metric] = (summaries[0].get(span, {}).get("calls", 0), "count")
    for metric in COUNTS:
        metrics[metric] = (counts[metric], "count")
    offered = counts["word_model.span_offered"]
    metrics["word_model.span_yield"] = (
        counts["word_model.dim_total"] / offered if offered else 0.0, "ratio")
    verify_s = mean_s("harness.verify", "total_ns")
    metrics["harness.verify_s"] = (verify_s, "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    lines, asserts = source_size()
    metrics["src.lines"] = (lines, "count")
    metrics["src.asserts"] = (asserts, "count")

    layers_s = sum(v for m, (v, _) in metrics.items() if m in SELF_TIMES)
    unattributed = verify_s - layers_s
    allowed = max(overhead - 1.0, 0.0) + RATIO_NOISE
    print(f"# consistency: layer self times {layers_s:.6f} s, verify {verify_s:.6f} s, "
          f"unattributed share {unattributed / verify_s:.4%} (allowed {allowed:.4%})")
    if not 0 <= unattributed <= allowed * verify_s:
        checks.problems.append(
            f"layer self times {layers_s:.6f} s do not sum to harness.verify_s "
            f"{verify_s:.6f} s within overhead ratio {overhead:.4f}")
    print_shares(metrics, verify_s, {span: mean_s(span, "total_ns") for span in INCLUSIVE})
    for name in absent:
        print(f"# absent: {name} (its metrics read 0)")
    return metrics


def print_shares(metrics: dict, verify_s: float, inclusive: dict) -> None:
    shares = sorted(((metrics[m][0] / verify_s, m) for m in SELF_TIMES), reverse=True)
    print("# self-time shares of harness.verify_s: "
          + ", ".join(f"{m[:-2]} {s:.1%}" for s, m in shares))
    groups: dict[str, float] = {}
    for metric in SELF_TIMES:
        layer = metric.split(".")[0]
        groups[layer] = groups.get(layer, 0.0) + metrics[metric][0] / verify_s
    print("# layer shares: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(groups.items(), key=lambda kv: -kv[1])))
    print("# inclusive shares: " + ", ".join(
        f"{span} {total / verify_s:.1%}" for span, total in inclusive.items()))


def source_size() -> tuple[int, int]:
    """Line count of ``src/`` Python files and the number of ``assert`` statements."""
    lines = asserts = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        asserts += sum(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(text)))
    return lines, asserts


# -- untraced run -------------------------------------------------------------

def untraced_run(workload: str, seed: int, seconds: float):
    rng = random.Random(seed)
    checks = Checks()
    setups: list[float] = []
    fastest: dict[int, int] = {}
    calls = 0
    passes = 0
    start = perf_counter()
    while not passes or perf_counter() < start + seconds:
        # Set-ups are spread over the run, so that they meet the same
        # machine load as the passes; later passes use the newest import.
        due = start + len(setups) * seconds / SETUP_REPS
        if len(setups) < SETUP_REPS and perf_counter() >= due:
            elapsed, lib, pool = set_up(workload, checks)
            setups.append(elapsed)
        order = shuffled(pool, rng)
        gc.collect()
        _, times, outcomes = untraced_pass(lib, pool, order)
        passes += 1
        calls += len(times)
        for idx, t in zip(order, times):
            fastest[idx] = min(t, fastest.get(idx, t))
        checks.record(lib, pool, order, outcomes)
    while len(setups) < SETUP_REPS:
        setups.append(set_up(workload, checks)[0])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = [t / 1e6 for t in fastest.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verify_ms_p50": (statistics.median(ms), "ms"),
        "verify_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "instances_per_s": (len(fastest) / (sum(fastest.values()) / 1e9), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "decided_ratio": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
    }
    lines, asserts = source_size()
    print(f"# samples: {len(ms)} instances, each timed {passes} times; "
          f"{calls} verify calls; setup runs (s): "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"# src: {lines} lines, {asserts} library asserts (informational)")
    return metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "twinchar" / "__init__.py").is_file():
        print(f"error: no twinchar package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        metrics, checks = traced_run(args.workload, args.seed, args.seconds)
    else:
        metrics, checks = untraced_run(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    for text in checks.problems[:20]:
        print(f"# FAILED CHECK: {text}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
