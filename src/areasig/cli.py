"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite fails (or the term
budget aborts a computation), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import guard
from .discrete import (
    TimeSeries,
    discrete_area,
    discrete_area_tree,
    discrete_integral,
    load_timeseries,
    signature_pwl,
)
from .double_tensor import (
    d_hat,
    exp_box,
    lambda_element,
    pre_lie,
    pre_lie_sym,
    r_element,
    s_element,
    tensor_pair,
    zero_double,
)
from .errors import TermBudgetExceeded
from .expr import evaluate_text
from .hall import hall_set
from .span import (
    area_span_basis,
    area_span_membership,
    areas_generate_check,
    leftbracket_span_check,
    rho_permutation,
    special_tree_reduction,
    tortkara_check,
    vol_n,
    volume_invariant,
)
from .tensor import (
    TensorElem,
    antipode,
    area,
    dynkin_r,
    exp_conc,
    grading_d,
    half_shuffle,
    is_grouplike,
    letter_elem,
    log_conc,
    pairing,
    rho,
    shuffle,
    word_elem,
    words_of_length,
)
from .trees import (
    area_eval,
    enumerate_trees,
    format_tree,
    lambda_via_trees,
    parse_tree,
    r_via_trees,
    rho_hall,
    zeta_via_trees,
)


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
    kind = "lyndon" if args.basis == "lyndon" else "standard_hall"
    basis = hall_set(args.d, args.level, kind)
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
    kind = "lyndon" if args.basis == "lyndon" else "standard_hall"
    basis = hall_set(args.d, args.level, kind)
    rows = []
    for h in basis.all_hall_words():
        value = rho_hall(basis, h, "recursion")
        rows.append(("".join(map(str, h.word)), value))
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


# -- verification suites -------------------------------------------------------


def _random_elem(rng, d, max_deg, empty_free=True):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1 if empty_free else 0, max_deg)
        word = tuple(rng.randint(1, d) for _ in range(n))
        terms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return TensorElem(d, terms)


def suite_core(d, level):
    rng = random.Random(2024)
    checks = []
    for i in range(8):
        a = _random_elem(rng, d, 3)
        b = _random_elem(rng, d, 3)
        c = _random_elem(rng, d, 3)
        checks.append(("shuffle commutative #%d" % i, shuffle(a, b) == shuffle(b, a)))
        checks.append(
            (
                "shuffle associative #%d" % i,
                shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c)),
            )
        )
        checks.append(
            (
                "halfshuffle splits shuffle #%d" % i,
                shuffle(a, b) == half_shuffle(a, b) + half_shuffle(b, a),
            )
        )
        # zinbiel law in the orientation of this half-shuffle (last letter
        # from the right factor): a > (b > c) = (a > b) > c + (b > a) > c
        checks.append(
            (
                "zinbiel #%d" % i,
                half_shuffle(a, half_shuffle(b, c))
                == half_shuffle(half_shuffle(a, b), c)
                + half_shuffle(half_shuffle(b, a), c),
            )
        )
        checks.append(("antipode involution #%d" % i, antipode(antipode(a)) == a))
    one = letter_elem(1, d)
    two = letter_elem(2, d) if d >= 2 else one
    checks.append(
        (
            "word = half sum of area and shuffle",
            (area(one, two) + shuffle(one, two)) * Fraction(1, 2)
            == word_elem((1, 2) if d >= 2 else (1, 1), d)
            if d >= 2
            else True,
        )
    )
    x = _random_elem(rng, d, level, empty_free=True)
    checks.append(
        ("exp/log round trip", log_conc(exp_conc(x, level), level) == x.truncate(level))
    )
    return checks


def suite_dynkin(d, level):
    checks = []
    basis = hall_set(d, level)
    ok = True
    for h in basis.all_hall_words():
        p = basis.bracketing(h)
        if dynkin_r(p) != grading_d(p):
            ok = False
    checks.append(("dynkin criterion on hall elements", ok))
    ok = True
    for n in range(1, min(level, 4) + 1):
        for u in words_of_length(d, n):
            for v in words_of_length(d, n):
                ue, ve = word_elem(u, d), word_elem(v, d)
                if pairing(rho(ue), ve) != pairing(ue, dynkin_r(ve)):
                    ok = False
    checks.append(("rho adjoint to r", ok))
    ok = True
    for n in range(1, level + 1):
        for w in words_of_length(d, n):
            we = word_elem(w, d)
            total = TensorElem(d, {})
            for cut in range(1, n + 1):
                u, v = w[:cut], w[cut:]
                total = total + shuffle(rho(word_elem(u, d)), word_elem(v, d))
            if total != grading_d(we):
                ok = False
    checks.append(("grading identity", ok))
    ok = True
    for n in range(1, level + 1):
        for w in words_of_length(d, n):
            we = word_elem(w, d)
            a = rho(we)
            if a != rho(we, "via_d_identity") or a != rho_permutation(w, d):
                ok = False
    checks.append(("rho three ways", ok))
    big_r = r_element(d, level)
    checks.append(("r element recursion", big_r == r_element(d, level, "recursion")))
    lhs = d_hat(big_r) - big_r
    checks.append(("quadratic fixed point", lhs == pre_lie(big_r, big_r, level)))
    checks.append(
        (
            "symmetrized fixed point",
            lhs == pre_lie_sym(big_r, big_r, level) * Fraction(1, 2),
        )
    )
    ok = True
    for n in range(1, min(level, 4) + 1):
        if r_via_trees(d, n) != big_r.proj_right(n):
            ok = False
    checks.append(("tree expansion of r element", ok))
    return checks


def suite_lambda(d, level):
    checks = []
    lam = lambda_element(d, level)
    checks.append(
        ("lambda recursion", lam == lambda_element(d, level, "recursion"))
    )
    ok = True
    for n in range(1, min(level, 4) + 1):
        if lambda_via_trees(d, n) != lam.proj_right(n):
            ok = False
    checks.append(("lambda tree expansion", ok))
    basis = hall_set(d, level)
    combined = zero_double(d, level)
    for h in basis.all_hall_words():
        combined = combined + tensor_pair(basis.zeta(h), basis.bracketing(h), level)
    checks.append(("lambda = sum of zeta x bracketing", lam == combined))
    checks.append(
        ("exponential reproduces diagonal", exp_box(combined, level) == s_element(d, level))
    )
    ok = True
    for h in basis.all_hall_words(min(level, 4)):
        if zeta_via_trees(basis, h) != basis.zeta(h):
            ok = False
    checks.append(("zeta via trees", ok))
    ok = True
    for h in basis.all_hall_words():
        direct = rho(basis.dual_pbw(h))
        if rho_hall(basis, h, "recursion") != direct:
            ok = False
        if len(h) <= min(level, 4) and rho_hall(basis, h, "q_trees") != direct:
            ok = False
    checks.append(("rho on dual elements", ok))
    return checks


def suite_tortkara(d, level):
    del level
    rng = random.Random(99)
    checks = []
    dim = max(d, 3)
    letters = [letter_elem(i, dim) for i in range(1, dim + 1)]
    ok = all(
        tortkara_check(a, b, c)
        for a in letters
        for b in letters
        for c in letters
    )
    checks.append(("tortkara on letter triples", ok))
    ok = True
    for _ in range(25):
        a = _random_elem(rng, dim, 2)
        b = _random_elem(rng, dim, 2)
        c = _random_elem(rng, dim, 2)
        e = _random_elem(rng, dim, 2)
        if not tortkara_check(a, b, c) or not tortkara_check(a, b, c, e):
            ok = False
    checks.append(("tortkara on random elements", ok))
    checks.append(
        (
            "vol of letters is the alternating invariant",
            vol_n(letters[:3]) == volume_invariant(dim, 3),
        )
    )
    ok = True
    for _ in range(10):
        basis_elems = area_span_basis(dim, rng.randint(2, 3))
        x = basis_elems[rng.randrange(len(basis_elems))]
        y = basis_elems[rng.randrange(len(basis_elems))]
        if area_span_membership(area(x, y)) is None:
            ok = False
    checks.append(("span closed under area", ok))
    return checks


def _witness_noniterating_integral():
    """A 2-segment path in d=3 where the trapezoid rule fails to iterate."""
    for x1 in range(-1, 2):
        for y1 in range(-1, 2):
            for z1 in range(-1, 2):
                for x2 in range(-1, 2):
                    for y2 in range(-1, 2):
                        for z2 in range(-1, 2):
                            pts = [(0, 0, 0), (x1, y1, z1), (x1 + x2, y1 + y2, z1 + z2)]
                            ts = TimeSeries(pts)
                            sig = signature_pwl(ts, 3)
                            direct = pairing(word_elem((1, 2, 3), 3), sig)
                            iterated = discrete_integral(
                                discrete_integral(ts.coordinate(1), ts.coordinate(2)),
                                ts.coordinate(3),
                            ).final()
                            if direct != iterated:
                                return ts, direct, iterated
    return None


def suite_pwl(d, level):
    del d
    rng = random.Random(5)
    checks = []
    lpath = TimeSeries([(0, 0), (1, 0), (1, 1)])
    ar = area(letter_elem(1, 2), letter_elem(2, 2))
    checks.append(
        (
            "L-path area",
            discrete_area(lpath.coordinate(1), lpath.coordinate(2)).final() == 1
            and pairing(ar, signature_pwl(lpath, 2)) == 1,
        )
    )
    square = TimeSeries([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    checks.append(
        (
            "unit square loop encloses area 2",
            discrete_area(square.coordinate(1), square.coordinate(2)).final() == 2,
        )
    )
    trees = []
    for n in range(1, 5):
        trees.extend(enumerate_trees(2, n))
    ok = True
    chen_ok = True
    for _ in range(10):
        pts = [(Fraction(0), Fraction(0))]
        for _seg in range(rng.randint(2, 5)):
            pts.append(
                (
                    pts[-1][0] + Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    pts[-1][1] + Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
            )
        ts = TimeSeries(pts)
        sig = signature_pwl(ts, min(level, 4))
        if not is_grouplike(sig, min(level, 4)):
            chen_ok = False
        for tree in trees:
            phi = area_eval(tree, 2)
            if phi.degree() > min(level, 4):
                continue
            if discrete_area_tree(tree, ts).final() != pairing(phi, sig):
                ok = False
        if (
            discrete_integral(ts.coordinate(1), ts.coordinate(2)).final()
            != pairing(word_elem((1, 2), 2), sig)
        ):
            ok = False
    checks.append(("discrete areas match signature pairings", ok))
    checks.append(("signatures are grouplike", chen_ok))
    witness = _witness_noniterating_integral()
    checks.append(("trapezoid rule does not iterate", witness is not None))
    if witness is not None:
        ts, direct, iterated = witness
        print(
            "# witness path %s: <123, S> = %s but iterated trapezoid = %s"
            % ([tuple(map(str, p)) for p in ts.points], direct, iterated)
        )
    return checks


SUITES = {
    "core": suite_core,
    "dynkin": suite_dynkin,
    "lambda": suite_lambda,
    "tortkara": suite_tortkara,
    "pwl": suite_pwl,
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for check, passed in SUITES[name](args.d, args.level):
            print("%s - [%s] %s" % ("ok  " if passed else "FAIL", name, check))
            if not passed:
                failures += 1
    if failures:
        print("%d check(s) failed" % failures)
        return 1
    print("all checks passed")
    return 0


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
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tables", help="emit hall-basis tables (P, S, zeta)")
    p.add_argument("--basis", choices=["lyndon", "hall"], default="lyndon")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("rho-table", help="emit rho of the dual basis elements")
    p.add_argument("--basis", choices=["lyndon", "hall"], default="lyndon")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_rho_table)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--level", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discrete-area", help="iterate discrete areas over a tree")
    p.add_argument("--csv", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_discrete_area)

    p = sub.add_parser("signature", help="signature of a csv path")
    p.add_argument("--csv", required=True)
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("span-check", help="rank reports for generating sets")
    p.add_argument("which", choices=["areas", "leftbracket", "special"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--level", type=int, default=4)
    p.set_defaults(func=cmd_span_check)

    return parser


def main(argv=None) -> int:
    previous_budget = guard.get_term_budget()
    guard.budget_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.term_budget is not None:
        guard.set_term_budget(args.term_budget)
    try:
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
