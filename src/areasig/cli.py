"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite fails (or the term
budget aborts a computation), 2 on usage errors.

Each option is one row of _OPTIONS and each subcommand one row of _COMMANDS.
A command with --format returns two functions, giving its JSON value and its
text lines, and main calls the one --format names; verify and span-check
print as they go and return their exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, guard
from .discrete import discrete_area_tree, load_timeseries, signature_pwl
from .errors import TermBudgetExceeded, _parse_int
from .expr import evaluate_text
from .hall import hall_set
from .span import areas_generate_check, leftbracket_span_check, special_tree_reduction
from .tensor import format_word
from .trees import format_tree, parse_tree, rho_hall


_BASIS_KINDS = {"lyndon": "lyndon", "hall": "standard_hall"}


def _basis(args):
    return hall_set(args.d, args.level, _BASIS_KINDS[args.basis])


def _csv_series(args):
    with open(args.csv, "rb") as handle:
        return load_timeseries(handle.read())


def cmd_eval(args):
    elem = evaluate_text(args.expression, args.d)
    return elem.to_json_obj, lambda: [elem]


def cmd_tables(args):
    rows = list(_basis(args).table_rows())
    return (
        lambda: [dict(row, **{k: row[k].to_json_obj() for k in ("p", "s", "zeta")})
                 for row in rows],
        lambda: ["%-8s  P = %-40s  S = %-30s  zeta = %s"
                 % (row["hall_word"], row["p"], row["s"], row["zeta"]) for row in rows],
    )


def cmd_rho_table(args):
    basis = _basis(args)
    rows = [(format_word(h.word, h.dim), rho_hall(basis, h)) for h in basis.all_hall_words()]
    return (
        lambda: [{"hall_word": w, "rho": v.to_json_obj()} for w, v in rows],
        lambda: ["%-8s  %s" % row for row in rows],
    )


def cmd_discrete_area(args):
    series = _csv_series(args)
    tree = parse_tree(args.tree)
    obj = discrete_area_tree(tree, series).to_json_obj()
    values = obj["values"]  # the text lines read the strings of the JSON
    return lambda: obj, lambda: [
        "tree: %s" % format_tree(tree),
        "series: %s" % " ".join(values),
        "final: %s" % values[-1],
    ]


def cmd_signature(args):
    sig = signature_pwl(_csv_series(args), args.level)
    return sig.to_json_obj, lambda: [sig]


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


def _integer(text, message="invalid int value: %r", least=None):
    """An argparse type: an int in ASCII digits, at least `least` if given
    (the default message is the one argparse gives for type=int)."""
    value = _parse_int(text)
    if value is None or least is not None and value < least:
        raise argparse.ArgumentTypeError(message % text)
    return value


def _positive(text):
    return _integer(text, "must be an integer >= 1, got %r", 1)


# every option once: its flag (or positional name) and add_argument keywords,
# keyed by the name a subcommand gives it in _COMMANDS
_OPTIONS = {flag.lstrip("-"): (flag, keywords) for flag, keywords in (
    ("expression", {}),
    ("which", {"choices": ["areas", "leftbracket", "special"]}),
    ("--suite", {"choices": sorted(checks.SUITES) + ["all"], "default": "all"}),
    ("--basis", {"choices": list(_BASIS_KINDS), "default": "lyndon"}),
    ("--csv", {"required": True}),
    ("--tree", {"required": True}),
    ("--d", {"type": _positive, "default": 2}),
    ("--level", {"type": _positive, "default": 5}),
    ("--format", {"choices": ["text", "json"], "default": "text"}),
)}

# subcommand: (help, the options it takes in order, defaults it overrides)
_COMMANDS = {
    "eval": ("evaluate an expression", "expression d format", {}),
    "tables": ("emit hall-basis tables (P, S, zeta)", "basis d level format", {}),
    "rho-table": ("emit rho of the dual basis elements", "basis d level format", {}),
    "verify": ("run identity verification suites", "suite d level", {"level": 4}),
    "discrete-area": ("iterate discrete areas over a tree", "csv tree format", {}),
    "signature": ("signature of a csv path", "csv level format", {}),
    "span-check": ("rank reports for generating sets", "which d level", {"level": 4}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="areasig",
        description="Exact shuffle/tensor algebra with area operators and "
        "discrete path signatures.",
    )
    parser.add_argument(
        "--term-budget",
        type=_integer,
        default=None,
        help="override the term-count ceiling (default %d or "
        "AREASIG_TERM_BUDGET)" % guard.DEFAULT_TERM_BUDGET,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            flag, keywords = _OPTIONS[option]
            p.add_argument(flag, **keywords)
        # looked up by name here, not held in the table, so that a wrapped
        # cmd_* (as a tracer installs) is the one called
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")], **defaults)
    return parser


def main(argv=None) -> int:
    previous_budget = guard.get_term_budget()
    try:
        guard.budget_from_env()
        args = build_parser().parse_args(argv)
        if args.term_budget is not None:
            guard.set_term_budget(args.term_budget)
        if "format" not in args:  # verify and span-check
            return args.func(args)
        to_json, to_lines = args.func(args)
        if args.format == "json":
            print(json.dumps(to_json()))
        else:
            for line in to_lines():
                print(line)
        return 0
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
