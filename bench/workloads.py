"""The benchmark's workloads: seeded inputs, declared set-up and fixed job lists.

Each workload function takes the seed and a size ("full" for measurement,
"tiny" for the benchmark's own tests), generates its inputs, does the
set-up the workload declares, and returns the job list.  A job returns its canonical
output as bytes, which the worker digests, and raises CheckFailed when two
constructions that must agree do not.

The program is reached only through module attributes (`A.pairing`, not a
name imported into this module), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Callable, NamedTuple

import areasig as A
from areasig import cli


class CheckFailed(Exception):
    """Two constructions that must be equal were not, or a CLI exit was not 0."""


class Job(NamedTuple):
    id: str
    seeded: bool  # its input depends on --seed
    run: Callable[[], bytes]


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _rational(rng):
    return "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9))


def path_csv(rng, dim, segments):
    """CSV text of an origin-anchored path with p/q coordinates, |p|, q <= 9."""
    rows = [",".join("0" for _ in range(dim))]
    for _ in range(segments):
        rows.append(",".join(_rational(rng) for _ in range(dim)))
    return "\n".join(rows) + "\n"


def run_cli(argv) -> bytes:
    """areasig.cli.main in-process with stdout captured; exit code 0 required."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise CheckFailed("areasig %s exited %d" % (" ".join(argv), code))
    return buf.getvalue().encode("utf-8")


# -- features: many small independent jobs ----------------------------------------


def features(seed, size):
    n_paths, segments, level = (120, 30, 5) if size == "full" else (3, 4, 4)
    dim = 2
    rng = random.Random(seed)
    texts = [path_csv(rng, dim, segments) for _ in range(n_paths)]
    basis = A.hall_set(dim, level, "lyndon")
    hall = list(basis.all_hall_words())
    duals = [basis.dual_pbw(h) for h in hall]
    zetas = [basis.zeta(h) for h in hall]
    trees = [t for n in (1, 2, 3) for t in A.enumerate_trees(dim, n)]
    trees.append(A.parse_tree("a(a(1,2),a(2,1))"))
    images = [A.area_eval(t, dim) for t in trees]

    def job(text):
        path = A.load_timeseries(text)
        sig = A.signature_pwl(path, level)
        log = A.log_conc(sig, level)
        coords = []
        for h, s_h, zeta_h in zip(hall, duals, zetas):
            value = A.pairing(s_h, log)
            if value != A.pairing(zeta_h, sig):
                raise CheckFailed("hall coordinate %s differs from zeta" % (h.word,))
            coords.append(str(value))
        areas = []
        for tree, image in zip(trees, images):
            value = A.discrete_area_tree(tree, path).final()
            if value != A.pairing(image, sig):
                raise CheckFailed("discrete area of %s" % A.format_tree(tree))
            areas.append(str(value))
        return canonical({"log": log.to_json_obj(), "hall": coords, "areas": areas})

    return [
        Job("features/path-%03d" % i, True, lambda text=text: job(text))
        for i, text in enumerate(texts)
    ]


# -- tables: a few large one-shot Hall-basis jobs ----------------------------------

TABLES_FULL = (
    (2, 7, "lyndon"),
    (3, 5, "lyndon"),
    (4, 4, "lyndon"),
    (2, 6, "standard_hall"),
    (3, 4, "standard_hall"),
)
TABLES_TINY = ((2, 4, "lyndon"), (2, 4, "standard_hall"))
RHO_LEVEL = 5


def tables(seed, size):
    del seed  # the inputs are the bases themselves
    specs = TABLES_FULL if size == "full" else TABLES_TINY

    def job(d, level, kind):
        basis = A.HallBasis(d, level, kind)
        rows = []
        for h in basis.all_hall_words():
            p_h = basis.bracketing(h)
            s_h = basis.dual_pbw(h)
            if A.pairing(s_h, p_h) != 1:
                raise CheckFailed("<S, P> != 1 for %s" % (h.word,))
            row = {
                "word": list(h.word),
                "p": p_h.to_json_obj(),
                "s": s_h.to_json_obj(),
                "zeta": basis.zeta(h).to_json_obj(),
            }
            if len(h) <= RHO_LEVEL:
                row["rho"] = A.rho_hall(basis, h, "recursion").to_json_obj()
            rows.append(row)
        return canonical(rows)

    return [
        Job("tables/%s-d%d-L%d" % (kind, d, level), False,
            lambda d=d, level=level, kind=kind: job(d, level, kind))
        for d, level, kind in specs
    ]


# -- identities: the CLI and the memo-heavy sparse side ------------------------------

# (value expression, the same value built another way as signed atoms);
# evaluating value - other must print 0.
EVAL_IDENTITIES = (
    ("area(A,B)", (("+", "hs(A,B)"), ("-", "hs(B,A)"))),
    ("sh(A,B)", (("+", "hs(A,B)"), ("+", "hs(B,A)"))),
    ("lie(A,B)", (("+", "cc(A,B)"), ("-", "cc(B,A)"))),
    ("D(lie(A,B))", (("+", "lie(D(A),B)"), ("+", "lie(A,D(B))"))),
    ("sh(A,sh(B,C))", (("+", "sh(sh(C,A),B)"),)),
    ("vol(A,B,C)", (("+", "area(area(A,B),C)"), ("+", "area(area(B,C),A)"),
                    ("+", "area(area(C,A),B)"))),
    ("hs(A,hs(B,C))", (("+", "hs(hs(A,B),C)"), ("+", "hs(hs(B,A),C)"))),
    ("Dinv(D(sh(A,B)))", (("+", "sh(A,B)"),)),
)


def random_operand(rng, dim):
    """A sum of two or three scaled words of length 1 or 2, no empty word."""
    terms = []
    for i in range(rng.randint(2, 3)):
        word = "".join(str(rng.randint(1, dim)) for _ in range(rng.randint(1, 2)))
        sign = "-" if rng.random() < 0.5 else ("" if i == 0 else "+")
        text = "%d/%d*w(%s)" % (rng.randint(1, 5), rng.randint(1, 4), word)
        terms.append((" %s " % sign if i else sign) + text)
    return "".join(terms).strip()


def eval_batch(rng, identities):
    """[(value text, identity text, dim)] with fresh random operands each."""
    batch = []
    for value, other in identities:
        dim = rng.choice((2, 3))
        operands = {name: random_operand(rng, dim) for name in "ABC"}

        def fill(text):
            return "".join(operands.get(ch, ch) for ch in text)

        flipped = "".join(
            " %s %s" % ("-" if sign == "+" else "+", fill(atom)) for sign, atom in other
        )
        batch.append((fill(value), fill(value) + flipped, dim))
    return batch


def identities(seed, size):
    full = size == "full"
    rng = random.Random(seed)
    batch = eval_batch(rng, EVAL_IDENTITIES if full else EVAL_IDENTITIES[:2])
    sig_level = 6 if full else 3
    texts = [path_csv(rng, 2, 6) for _ in range(3 if full else 1)]
    r_level, trees_level, lambda_level = (7, 6, 6) if full else (3, 3, 3)
    if full:
        cli_runs = [
            ("verify-d2-L5", ["verify", "--suite", "all", "--d", "2", "--level", "5"]),
            ("verify-d3-L4", ["verify", "--suite", "all", "--d", "3", "--level", "4"]),
            ("special-d2-L6", ["span-check", "special", "--d", "2", "--level", "6"]),
            ("special-d3-L4", ["span-check", "special", "--d", "3", "--level", "4"]),
            ("rho-table-d2-L6", ["rho-table", "--d", "2", "--level", "6"]),
        ]
    else:
        cli_runs = [
            ("verify-core-d2-L3", ["verify", "--suite", "core", "--d", "2", "--level", "3"]),
            ("special-d2-L4", ["span-check", "special", "--d", "2", "--level", "4"]),
            ("rho-table-d2-L3", ["rho-table", "--d", "2", "--level", "3"]),
        ]

    def cli_job(argv):
        out = run_cli(argv)
        if argv[0] == "span-check" and not json.loads(out)["full_rank"]:
            raise CheckFailed("special trees do not all reduce")
        return out

    def eval_job():
        outputs = []
        for value, identity, dim in batch:
            outputs.append(run_cli(["eval", value, "--d", str(dim), "--format", "json"]))
            zero = run_cli(["eval", identity, "--d", str(dim)])
            if zero != b"0\n":
                raise CheckFailed("%s evaluates to %r" % (identity, zero))
        return b"".join(outputs)

    def r_element_job():
        direct = A.r_element(2, r_level, "direct")
        if direct != A.r_element(2, r_level, "recursion"):
            raise CheckFailed("r_element direct != recursion")
        return canonical(direct.to_json_obj())

    def r_trees_job():
        total = A.r_via_trees(2, 1)
        for n in range(2, trees_level + 1):
            total = total + A.r_via_trees(2, n)
        if total != A.r_element(2, trees_level):
            raise CheckFailed("sum of r_via_trees != r_element")
        return canonical(total.to_json_obj())

    def lambda_job():
        via_log = A.lambda_element(2, lambda_level, "log_of_s")
        if via_log != A.lambda_element(2, lambda_level, "recursion"):
            raise CheckFailed("lambda_element log_of_s != recursion")
        return canonical(via_log.to_json_obj())

    def pi1_job():
        logs = []
        for text in texts:
            sig = A.signature_pwl(A.load_timeseries(text), sig_level)
            log = A.log_conc(sig, sig_level)
            if A.pi1(sig) != log:
                raise CheckFailed("pi1(sig) != log(sig)")
            logs.append(log.to_json_obj())
        return canonical(logs)

    jobs = [
        Job("identities/cli-" + name, False, lambda argv=argv: cli_job(argv))
        for name, argv in cli_runs
    ]
    jobs += [
        Job("identities/cli-eval-batch", True, eval_job),
        Job("identities/r-element-d2-L%d" % r_level, False, r_element_job),
        Job("identities/r-via-trees-d2-L%d" % trees_level, False, r_trees_job),
        Job("identities/lambda-d2-L%d" % lambda_level, False, lambda_job),
        Job("identities/pi1-log-d2-L%d" % sig_level, True, pi1_job),
    ]
    return jobs


WORKLOADS = {"features": features, "tables": tables, "identities": identities}
