"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite fails (or the term
budget aborts a computation), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, guard
from .discrete import discrete_area_tree, load_timeseries, signature_pwl
from .errors import TermBudgetExceeded
from .expr import evaluate_text
from .hall import hall_set
from .span import areas_generate_check, leftbracket_span_check, special_tree_reduction
from .tensor import format_word
from .trees import format_tree, parse_tree, rho_hall


_BASIS_KINDS = {"lyndon": "lyndon", "hall": "standard_hall"}


def _print_table_text(rows):
    for row in rows:
        print(
            "%-8s  P = %-40s  S = %-30s  zeta = %s"
            % (row["hall_word"], row["p"], row["s"], row["zeta"])
        )


def cmd_eval(args):
    elem = evaluate_text(args.expression, args.d)
    if args.format == "json":
        print(json.dumps(elem.to_json_obj()))
    else:
        print(elem)
    return 0


def cmd_tables(args):
    basis = hall_set(args.d, args.level, _BASIS_KINDS[args.basis])
    rows = list(basis.table_rows())
    if args.format == "json":
        payload = [
            {
                "hall_word": row["hall_word"],
                "bracketing": row["bracketing"],
                "p": row["p"].to_json_obj(),
                "s": row["s"].to_json_obj(),
                "zeta": row["zeta"].to_json_obj(),
            }
            for row in rows
        ]
        print(json.dumps(payload))
    else:
        _print_table_text(rows)
    return 0


def cmd_rho_table(args):
    basis = hall_set(args.d, args.level, _BASIS_KINDS[args.basis])
    rows = []
    for h in basis.all_hall_words():
        value = rho_hall(basis, h)
        rows.append((format_word(h.word, h.dim), value))
    if args.format == "json":
        print(
            json.dumps(
                [{"hall_word": w, "rho": v.to_json_obj()} for w, v in rows]
            )
        )
    else:
        for w, v in rows:
            print("%-8s  %s" % (w, v))
    return 0


def cmd_discrete_area(args):
    with open(args.csv, "rb") as handle:
        series = load_timeseries(handle.read())
    tree = parse_tree(args.tree)
    result = discrete_area_tree(tree, series)
    if args.format == "json":
        print(json.dumps(result.to_json_obj()))
    else:
        print("tree: %s" % format_tree(tree))
        print("series: %s" % " ".join(str(v) for v in result.values))
        print("final: %s" % result.final())
    return 0


def cmd_signature(args):
    with open(args.csv, "rb") as handle:
        series = load_timeseries(handle.read())
    sig = signature_pwl(series, args.level)
    if args.format == "json":
        print(json.dumps(sig.to_json_obj()))
    else:
        print(sig)
    return 0


def cmd_span_check(args):
    if args.which == "areas":
        report = areas_generate_check(args.d, args.level)
    elif args.which == "leftbracket":
        report = leftbracket_span_check(args.d, args.level)
    else:
        report = special_tree_reduction(args.level, args.d)
    print(report.to_json())
    if args.which == "leftbracket" and args.d == 2 and not report.full_rank:
        return 1
    if args.which == "areas" and not report.full_rank:
        return 1
    return 0


def cmd_verify(args):
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        results, notes = checks.SUITES[name](args.d, args.level)
        for note in notes:
            print("# %s" % note)
        for check, passed in results:
            print("%s - [%s] %s" % ("ok  " if passed else "FAIL", name, check))
            if not passed:
                failures += 1
    if failures:
        print("%d check(s) failed" % failures)
        return 1
    print("all checks passed")
    return 0


def _positive(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="areasig",
        description="Exact shuffle/tensor algebra with area operators and "
        "discrete path signatures.",
    )
    parser.add_argument(
        "--term-budget",
        type=int,
        default=None,
        help="override the term-count ceiling (default %d or "
        "AREASIG_TERM_BUDGET)" % guard.DEFAULT_TERM_BUDGET,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expression")
    p.add_argument("--d", type=_positive, default=2)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tables", help="emit hall-basis tables (P, S, zeta)")
    p.add_argument("--basis", choices=list(_BASIS_KINDS), default="lyndon")
    p.add_argument("--d", type=_positive, default=2)
    p.add_argument("--level", type=_positive, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("rho-table", help="emit rho of the dual basis elements")
    p.add_argument("--basis", choices=list(_BASIS_KINDS), default="lyndon")
    p.add_argument("--d", type=_positive, default=2)
    p.add_argument("--level", type=_positive, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_rho_table)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument(
        "--suite",
        choices=sorted(checks.SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--d", type=_positive, default=2)
    p.add_argument("--level", type=_positive, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discrete-area", help="iterate discrete areas over a tree")
    p.add_argument("--csv", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_discrete_area)

    p = sub.add_parser("signature", help="signature of a csv path")
    p.add_argument("--csv", required=True)
    p.add_argument("--level", type=_positive, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("span-check", help="rank reports for generating sets")
    p.add_argument("which", choices=["areas", "leftbracket", "special"])
    p.add_argument("--d", type=_positive, default=2)
    p.add_argument("--level", type=_positive, default=4)
    p.set_defaults(func=cmd_span_check)

    return parser


def main(argv=None) -> int:
    previous_budget = guard.get_term_budget()
    try:
        guard.budget_from_env()
        args = build_parser().parse_args(argv)
        if args.term_budget is not None:
            guard.set_term_budget(args.term_budget)
        return args.func(args)
    except TermBudgetExceeded as exc:
        print("aborted: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        # the parsers reject deeper text; this catches input that parses
        # just under the limit and then overflows a recursive walker
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    finally:
        guard.set_term_budget(previous_budget)


if __name__ == "__main__":
    sys.exit(main())
