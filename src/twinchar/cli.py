"""Command-line interface.

Exit codes: 0 success / verified, 1 falsification, 2 invalid input,
3 unsupported (linking condition failed, non-finite type, instance too
large), 4 internal invariant violated (a library bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, weyl, word_model
from .characters import canonical_serialize, demazure_character
from .errors import TwiningError
from .folding import fold
from .root_data import weyl_dimension
from .weyl import format_word, parse_word


def _print_poly(poly, as_json: bool) -> None:
    if as_json:
        print(json.dumps([[c, list(w)] for w, c in poly.sorted_terms()]))
    else:
        print(canonical_serialize(poly))


def _cmd_validate(args) -> int:
    prep = harness.prepare(harness.load_instance(args.instance))
    print(f"gcm: rank {prep.gcm.n}, symmetrizer {list(prep.gcm.symmetrizer)}")
    print(f"automorphism: {list(prep.auto.perm)} (order {prep.auto.order})")
    print(f"lambda: {list(prep.lam)}  lambda_hat: {list(prep.lambda_hat)}")
    print(f"w: {format_word(prep.w) or '()'}  w_hat: {format_word(prep.w_hat) or '()'}")
    print("valid")
    return 0


def _cmd_fold(args) -> int:
    instance = harness.load_instance(args.instance)
    data = fold(harness.build_gcm(instance.gcm), instance.automorphism)
    lift = [[1 if k == o else 0 for k in range(data.n_folded)] for o in data.node_orbit]
    if args.json:
        print(json.dumps({
            "folded": [list(r) for r in data.folded.entries],
            "orbits": [list(o) for o in data.orbits],
            "row_sums": list(data.row_sums),
            "scales": [str(2 // s) for s in data.row_sums],
            "weight_lift": lift,
            "orbit_words": [list(w) for w in data.orbit_words],
        }))
        return 0
    print("folded: " + json.dumps([list(r) for r in data.folded.entries]))
    print("orbits: " + " ; ".join(
        "{%s} s=%d c=%d" % (",".join(map(str, o)), s, 2 // s)
        for o, s in zip(data.orbits, data.row_sums)))
    print("lift: " + json.dumps(lift))
    print("words: " + " ; ".join(
        "{%s}->%s" % (",".join(map(str, o)), format_word(w))
        for o, w in zip(data.orbits, data.orbit_words)))
    return 0


def _cmd_character(args) -> int:
    gcm = harness.build_gcm(args.gcm)
    lam = parse_word(args.lam)
    poly = demazure_character(gcm, lam, weyl.longest_element(gcm))
    _print_poly(poly, args.json)
    if not args.json:
        print(f"# dim {poly.coefficient_sum()} (weyl {weyl_dimension(gcm, lam)})")
    return 0


def _cmd_demazure(args) -> int:
    gcm = harness.build_gcm(args.gcm)
    poly = demazure_character(gcm, parse_word(args.lam), parse_word(args.word))
    _print_poly(poly, args.json)
    return 0


def _cmd_twining(args) -> int:
    gcm = harness.build_gcm(args.gcm)
    poly = word_model.twining_character(
        gcm, parse_word(args.lam), parse_word(args.word), parse_word(args.auto),
        word_cap=args.word_cap)
    _print_poly(poly, args.json)
    return 0


def _cmd_verify(args) -> int:
    report = harness.verify(harness.load_instance(args.instance),
                            word_cap=args.word_cap)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(harness.format_report(report))
    return 0 if report.equal else 1


def _cmd_battery(args) -> int:
    config = harness.BatteryConfig(word_cap=args.word_cap,
                                   max_word_len=args.max_word_len,
                                   lambda_box=args.lambda_box)
    summary = harness.run_battery(config)
    if args.json:
        print(json.dumps(summary.to_dict()))
    else:
        for record in summary.records:
            extra = f" ({record['ms']:.3f} ms)" if "ms" in record else ""
            reason = f" [{record['reason']}]" if record["status"] == "skipped" else ""
            print(f"{record['status']:8s} {record['key']}{extra}{reason}")
        counts = summary.counts
        print(f"total: {counts['equal']} equal, {counts['unequal']} unequal, "
              f"{counts['skipped']} skipped")
    return summary.exit_code


def _word_cap_argument(p) -> None:
    p.add_argument("--word-cap", type=int, default=word_model.DEFAULT_WORD_CAP,
                   help="most basis vectors, dim V_w(lambda), of a Demazure module to build; "
                        "a larger one exits 3, or is skipped by battery (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinchar",
        description="Exact two-route verification of twining characters "
                    "of Demazure modules over folded Cartan data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("-i", "--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fold", help="print the folded data of an instance file")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("character", help="full irreducible character")
    p.add_argument("--gcm", required=True, help="catalog label, e.g. A2")
    p.add_argument("--lambda", dest="lam", required=True, help="weight CSV, e.g. 1,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("demazure", help="Demazure character for a word")
    p.add_argument("--gcm", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--word", required=True, help="word CSV, e.g. 0,1,0 ('' = identity)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demazure)

    p = sub.add_parser("twining", help="twining character from the word model")
    p.add_argument("--gcm", required=True)
    p.add_argument("--auto", required=True, help="automorphism image CSV, e.g. 1,0")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--word", required=True)
    _word_cap_argument(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_twining)

    p = sub.add_parser("verify", help="verify one instance file by both routes")
    p.add_argument("-i", "--instance", required=True)
    _word_cap_argument(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("battery", help="run the verification battery")
    p.add_argument("--max-word-len", type=int, default=None)
    p.add_argument("--lambda-box", type=int, default=None)
    _word_cap_argument(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_battery)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TwiningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
