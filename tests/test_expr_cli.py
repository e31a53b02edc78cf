import argparse
import json
import pathlib
import pickle
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from areasig import (
    TensorElem,
    evaluate_text,
    format_expression,
    parse_expression,
    word_elem,
)
from areasig import checks, cli
from areasig.cli import main
from areasig.errors import ExpressionSyntaxError, TermBudgetExceeded
from areasig.tensor import parse_word


def test_parse_basic_nodes():
    assert parse_expression("area(1,2)") == (
        "call",
        "area",
        (("word", (1,)), ("word", (2,))),
    )
    assert parse_expression("w(112)") == ("word", (1, 1, 2))
    assert parse_expression("3/4*w(12)") == ("scaled", Fraction(3, 4), ("word", (1, 2)))


def test_parse_reports_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("area(1,")
    assert err.value.position == 7
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("area(1)")  # arity
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("frob(1,2)")


# (text, message, offset) as parse_expression reported them before it moved
# onto the reader it shares with parse_tree
MALFORMED_EXPRESSIONS = [
    ('', 'expected an expression', 0),
    ('   ', 'expected an expression', 3),
    ('\t', 'expected an expression', 1),
    ('area(1,', 'expected an expression', 7),
    ('area(1)', 'function area takes 2 arguments, got 1', 0),
    ('frob(1,2)', "unknown function 'frob'", 0),
    ('3/', 'trailing input', 1),
    ('1/*1', 'expected a denominator', 2),
    ('1/0*1', 'zero denominator', 3),
    ('1/ 2*1', 'trailing input', 1),
    ('1//2*1', 'trailing input', 1),
    ('0', 'letters count from 1', 0),
    ('w()', 'expected letters', 2),
    ('w(102)', 'letters count from 1', 5),
    ('w(12', "expected ')'", 4),
    ('w12', "expected '('", 1),
    ('wx(1)', "expected '('", 1),
    ('- 3*1', 'expected an expression', 0),
    ('+1', 'expected an expression', 0),
    ('1 +', 'expected an expression', 3),
    ('1 2', 'trailing input', 2),
    ('sh(1)', 'function sh takes 2+ arguments, got 1', 0),
    ('vol(1,2)', 'function vol takes 3 arguments, got 2', 0),
    ('area(1,2,3)', 'function area takes 2 arguments, got 3', 0),
    ('area 1,2', "expected '('", 5),
    ('area(1;2)', "expected ')'", 6),
    ('r(1,2)', 'function r takes 1 arguments, got 2', 0),
    (')', 'expected an expression', 0),
    ('(1)', 'expected an expression', 0),
    ('3*', 'expected an expression', 2),
    ('3**1', 'expected an expression', 2),
    ('-1', 'expected an expression', 0),
    ('1 - ', 'expected an expression', 4),
    ('area(,1)', 'expected an expression', 5),
    ('w( )', 'expected letters', 3),
    ('w(0)', 'letters count from 1', 3),
    ('1/2*0', 'letters count from 1', 4),
    ('area(1,2))', 'trailing input', 9),
    ('area(1,2) x', 'trailing input', 10),
    ('Area(1,2)', "unknown function 'Area'", 0),
    ('D1(1)', "unknown function 'D1'", 0),
    ('w(1 2)', "expected ')'", 4),
    ('1/-2*1', 'trailing input', 1),
    ('2/3*w(1', "expected ')'", 7),
    ('sh(1,2', "expected ')'", 6),
    ('x', "unknown function 'x'", 0),
    ('1,2', 'trailing input', 1),
    ('w[12]', "expected '('", 1),
    ('3 / 4*1', 'trailing input', 2),
    ('12*', 'expected an expression', 3),
    ('12', 'trailing input', 1),
    ('sh(1,2)+', 'expected an expression', 8),
    ('5/0*1 + 1', 'zero denominator', 3),
    ('-0/0*1', 'zero denominator', 4),
    ('w(12)3', 'trailing input', 5),
    ('lie(1 2)', "expected ')'", 6),
    ('cc(1,2,)', 'expected an expression', 7),
    ('hs(1,2,3)', 'function hs takes 2 arguments, got 3', 0),
    ('vol(1,2,3,4)', 'function vol takes 3 arguments, got 4', 0),
    ('r()', 'expected an expression', 2),
    ('area(1,2)(3)', 'trailing input', 9),
    ('1/2/3*1', 'trailing input', 1),
    ('1/2 * ', 'expected an expression', 6),
    ('- - 1', 'expected an expression', 0),
    ('w(1)w(2)', 'trailing input', 4),
    ('w(1,2)', "expected ')'", 3),
    ('w[1]', "expected '('", 1),
    # not digits (str.isdigit holds, int() refuses): no offset before these
    ('\u00b2', 'expected an expression', 0),
    ('w(1\u00b2)', "expected ')'", 3),
]


@pytest.mark.parametrize("text, message, offset", MALFORMED_EXPRESSIONS)
def test_malformed_expression_message_and_offset(text, message, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text)
    assert str(err.value) == "%s at offset %d" % (message, offset)
    assert err.value.position == offset


def test_parse_blanks_signs_and_scalars():
    assert parse_expression("w (12)") == ("word", (1, 2))
    assert parse_expression("w( 12 )") == ("word", (1, 2))
    assert parse_expression("1*2") == ("scaled", Fraction(1), ("word", (2,)))
    assert parse_expression("-0*1") == ("scaled", Fraction(0), ("word", (1,)))
    assert parse_expression("1 - -3*2") == (
        "sum",
        ((1, ("word", (1,))), (-1, ("scaled", Fraction(-3), ("word", (2,))))),
    )


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("w([])", "expected letters", 3),
        ("w([1,])", "expected letters", 5),
        ("w([1,0])", "letters count from 1", 6),
        ("w([1,2)", "expected ']'", 6),
        ("w([1;2])", "expected ']'", 4),
        ("w([1,2]", "expected ')'", 7),
    ],
)
def test_malformed_bracketed_word(text, message, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text)
    assert str(err.value) == "%s at offset %d" % (message, offset)


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("[]", "expected letters", 1),
        (" [ ]", "expected letters", 3),
        ("[1,]", "expected letters", 3),
        ("[1,0]", "letters count from 1", 4),
        ("[1,2", "expected ']'", 4),
        ("[1;2]", "expected ']'", 2),
        ("[1.5, true]", "expected ']'", 2),
        ("[true]", "expected letters", 1),
        ('["1"]', "expected letters", 1),
    ],
)
def test_bracketed_word_text_reads_as_in_expressions(text, message, offset):
    # a word's text form and an expression's w(...) share one reader of
    # bracketed letters: the same refusal, two characters further on in w(
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_word(text)
    assert str(err.value) == "%s at offset %d" % (message, offset)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("w(%s)" % text)
    assert str(err.value) == "%s at offset %d" % (message, offset + 2)
    assert parse_word(" [1, 12] ") == (1, 12) == parse_expression("w( [1, 12] )")[1]


def test_bracketed_words_take_letters_past_nine():
    assert parse_expression("w([1,12])") == ("word", (1, 12))
    assert parse_expression("w( [ 12 , 3 ] )") == ("word", (12, 3))
    assert format_expression(("word", (1, 12))) == "w([1,12])"
    assert format_expression(("word", (12,))) == "w([12])"
    assert format_expression(("word", (1, 1, 2))) == "w(112)"


def test_eval_identity_from_halves():
    assert evaluate_text("1/2*sh(1,2) + 1/2*area(1,2)", 2) == word_elem("12", 2)


def _random_term(rng, depth, d):
    # terms are words, scaled atoms, or calls; sums only nest inside calls
    if depth == 0 or rng.random() < 0.4:
        word = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 3)))
        return ("word", word)
    if rng.random() < 0.3:
        return (
            "scaled",
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            ("word", (rng.randint(1, d),)),
        )
    name = rng.choice(["sh", "hs", "cc", "area", "lie", "r", "rho", "D", "pi1T", "arealb"])
    arity = {"sh": 2, "hs": 2, "cc": 2, "area": 2, "lie": 2}.get(name, 1)
    return (
        "call",
        name,
        tuple(_random_expression(rng, depth - 1, d) for _ in range(arity)),
    )


def _random_expression(rng, depth, d):
    terms = [(1, _random_term(rng, depth, d))]
    while rng.random() < 0.4:
        terms.append((rng.choice((1, -1)), _random_term(rng, depth, d)))
    if len(terms) == 1:
        return terms[0][1]
    return ("sum", tuple(terms))


def test_round_trip_random_expressions():
    rng = random.Random(77)
    for d in (2, 16):
        for _ in range(200):
            node = _random_expression(rng, 2, d)
            assert parse_expression(format_expression(node)) == node


def run_cli(*argv):
    from io import StringIO
    import contextlib

    out = StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_cli_eval():
    code, out = run_cli("eval", "1/2*sh(1,2) + 1/2*area(1,2)")
    assert code == 0
    assert out.strip() == "12"


def test_cli_eval_names_letters_past_nine():
    assert run_cli("eval", "area(w([11]),w([12]))", "--d", "12") == (
        0,
        "[11,12] - [12,11]\n",
    )
    assert run_cli("eval", "w([1,12])", "--d", "12") == (0, "[1,12]\n")


def test_cli_eval_json():
    code, out = run_cli("eval", "area(1,2)", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"word": "12", "num": "1", "den": "1"},
        {"word": "21", "num": "-1", "den": "1"},
    ]


def test_cli_tables_deterministic():
    code1, out1 = run_cli("tables", "--basis", "lyndon", "--d", "2", "--level", "4")
    code2, out2 = run_cli("tables", "--basis", "lyndon", "--d", "2", "--level", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "1122" in out1


def test_cli_rho_table():
    code, out = run_cli("rho-table", "--d", "2", "--level", "3", "--format", "json")
    assert code == 0
    rows = {row["hall_word"]: row["rho"] for row in json.loads(out)}
    assert rows["112"] == [
        {"word": "112", "num": "1", "den": "1"},
        {"word": "121", "num": "-1", "den": "1"},
    ]


@pytest.mark.parametrize("command", ["tables", "rho-table"])
def test_cli_hall_word_labels_distinct_past_nine_letters(command):
    # d >= 10 brackets the labels: (1,12) and (1,1,2) must not both read 112
    code, out = run_cli(command, "--d", "12", "--level", "3", "--format", "json")
    assert code == 0
    labels = [row["hall_word"] for row in json.loads(out)]
    assert len(labels) == 12 + 66 + 572
    assert len(set(labels)) == len(labels)
    assert "[1,12]" in labels and "[1,1,2]" in labels


def test_cli_verify_ok():
    code, out = run_cli("verify", "--suite", "core", "--level", "3")
    assert code == 0
    assert "all checks passed" in out


def test_cli_verify_reports_a_failed_check(monkeypatch):
    monkeypatch.setattr(checks, "exp_log_round_trip", lambda x, level: False)
    code, out = run_cli("verify", "--suite", "core", "--level", "3")
    assert code == 1
    assert "FAIL - [core] exp/log round trip\n" in out
    assert out.endswith("1 check(s) failed\n")


@pytest.mark.parametrize("d", ["1", "2"])
@pytest.mark.parametrize("suite", ["core", "dynkin", "lambda", "pwl"])
def test_cli_verify_passes_at_level_one(d, suite):
    # the pwl suite pairs with the level-two word 12 whatever the level;
    # tortkara is left out, since it reads neither the level nor a d below 3
    code, out = run_cli("verify", "--suite", suite, "--d", d, "--level", "1")
    assert code == 0
    assert out.endswith("all checks passed\n")


@pytest.mark.parametrize("option", ["--d", "--level"])
def test_cli_verify_rejects_sizes_below_one(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["verify", option, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: must be an integer >= 1, got '0'" % option in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["eval", "w(1)", "--d", "0"], "--d"),
        (["tables", "--d", "0"], "--d"),
        (["tables", "--level", "0"], "--level"),
        (["rho-table", "--d", "0"], "--d"),
        (["rho-table", "--level", "0"], "--level"),
        (["signature", "--csv", "path.csv", "--level", "0"], "--level"),
        (["span-check", "areas", "--d", "0"], "--d"),
        (["span-check", "leftbracket", "--d", "0", "--level", "3"], "--d"),
        (["span-check", "special", "--d", "0", "--level", "4"], "--d"),
        (["span-check", "special", "--d", "2", "--level", "-1"], "--level"),
    ],
)
def test_cli_sizes_below_one_exit_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    value = argv[argv.index(option) + 1]
    assert "argument %s: must be an integer >= 1, got %r" % (option, value) in (
        capsys.readouterr().err
    )


def test_cli_span_check():
    code, out = run_cli("span-check", "areas", "--d", "2", "--level", "3")
    assert code == 0
    assert json.loads(out)["full_rank"] is True
    # one letter: no area and no Lie element above level 1
    code, out = run_cli("span-check", "areas", "--d", "1", "--level", "3")
    assert code == 0
    assert json.loads(out) == {
        "d": 1, "n": 3, "generators": 0, "rank": 0, "target": 0, "full_rank": True
    }


def test_cli_discrete_area(tmp_path):
    csv = tmp_path / "square.csv"
    csv.write_text("0,0\n1,0\n1,1\n0,1\n0,0\n")
    code, out = run_cli("discrete-area", "--csv", str(csv), "--tree", "a(1,2)")
    assert code == 0
    assert "final: 2" in out
    # a shuffle node: <1 sh 2, S> = <1, S><2, S> = 0 on a closed loop
    code, out = run_cli("discrete-area", "--csv", str(csv), "--tree", "s(1,2)")
    assert code == 0
    assert "final: 0" in out


def test_cli_signature(tmp_path):
    csv = tmp_path / "L.csv"
    csv.write_text("1,0\n1,1\n")
    code, out = run_cli("signature", "--csv", str(csv), "--level", "2", "--format", "json")
    assert code == 0
    elem = TensorElem.from_json_obj(json.loads(out), 2)
    assert elem.coeff((1, 2)) == 1 and elem.coeff((2, 1)) == 0


def test_cli_signature_budget_abort_is_immediate(tmp_path, capsys):
    csv = tmp_path / "two.csv"
    csv.write_text("0,0\n1,1\n")
    assert main(["signature", "--csv", str(csv), "--level", "40"]) == 1
    assert "needs 1099511627776 terms" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, offset",
    [
        (["eval", "\u00b2"], 0),
        (["eval", "1\u00b2*1"], 1),
        (["discrete-area", "--csv", "L.csv", "--tree", "a(\u00b2,1)"], 2),
    ],
)
def test_cli_non_ascii_digits_exit_2(tmp_path, capsys, argv, offset):
    (tmp_path / "L.csv").write_text("1,0\n1,1\n")
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip().endswith("at offset %d" % offset) and "Traceback" not in err


def test_cli_usage_error_exit_code():
    assert main(["eval", "area(1,"]) == 2


@pytest.mark.parametrize(
    "command, text, token",
    [
        ("signature", "0,0\n1,inf\n", "inf"),
        ("discrete-area", "0,0\nnan,1\n", "nan"),
        ("discrete-area", "0.1,abc\n", "abc"),
        ("signature", "0,0\n\u0661,2\n", "\u0661"),  # ARABIC-INDIC DIGIT ONE
        ("signature", "0,0\n1_000,2\n", "1_000"),
        ("discrete-area", "0,0\n3 / 4,1\n", "3 / 4"),
        ("signature", "0,0\n1e4301,1\n", "1e4301"),
        ("discrete-area", "0,0\n1,1e-4301\n", "1e-4301"),
    ],
)
def test_cli_rejects_nonfinite_csv_tokens(tmp_path, capsys, command, text, token):
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    argv = [command, "--csv", str(csv)]
    if command == "discrete-area":
        argv += ["--tree", "a(1,2)"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'%s' is not a finite rational number" % token in err
    assert "Traceback" not in err



@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_names_a_coefficient_too_long_to_write(tmp_path, capsys, fmt):
    # the reader takes 1e4300 exactly; its 4301 digits cannot be written
    csv = tmp_path / "big.csv"
    csv.write_text("0,0\n1e4300,1\n")
    assert main(["signature", "--csv", str(csv), "--level", "1", "--format", fmt]) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert "coefficient of word 1 has more than %d digits" % limit in err
    assert "Traceback" not in err

@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_names_a_breakpoint_too_long_to_write(tmp_path, capsys, fmt):
    csv = tmp_path / "big.csv"
    csv.write_text("0,0\n1e4300,1\n")
    argv = ["discrete-area", "--csv", str(csv), "--tree", "1", "--format", fmt]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert out == "" and "Traceback" not in err
    assert "the value at breakpoint 1 has more than %d digits" % limit in err


LONG_NUMBER = "1" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize(
    "argv, offset",
    [
        (["eval", LONG_NUMBER + "*w(1)"], 0),
        (["eval", "w(1) + -%s/3*w(1)" % LONG_NUMBER], 8),
        (["eval", "1/%s*w(1)" % LONG_NUMBER], 2),
        (["eval", "w([%s])" % LONG_NUMBER], 3),
        (["eval", "w([1, %s])" % LONG_NUMBER], 6),
        (["discrete-area", "--csv", "L.csv", "--tree", LONG_NUMBER], 0),
        (["discrete-area", "--csv", "L.csv", "--tree", "a(1,%s)" % LONG_NUMBER], 4),
    ],
    ids=lambda v: str(v) if isinstance(v, int) else " ".join(a[:12] for a in v),
)
def test_cli_numbers_too_long_to_read_exit_2(tmp_path, capsys, argv, offset):
    (tmp_path / "L.csv").write_text("1,0\n1,1\n")
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err == "error: number of more than %d digits at offset %d\n" % (limit, offset)


def test_format_expression_names_a_scale_too_long_to_write():
    assert format_expression(("scaled", Fraction(-3, 4), ("word", (1, 2)))) == "-3/4*w(12)"
    if hasattr(sys, "get_int_max_str_digits"):
        node = ("scaled", Fraction(10**5000), ("word", (1,)))
        with pytest.raises(ValueError, match=re.escape("the scale of 1 has more than")):
            format_expression(node)


def test_format_expression_refuses_the_empty_word():
    # no text parses to the empty word, so no text is written for it
    node = ("scaled", Fraction(2), ("word", ()))
    with pytest.raises(ValueError, match=re.escape("bad expression node ('word', ())")):
        format_expression(node)
    assert format_expression(("word", (1,))) == "1"


@pytest.mark.parametrize("error, attributes", [
    (TermBudgetExceeded(10, 5), {"needed": 10, "ceiling": 5}),
    (TermBudgetExceeded(2**300, 7), {"needed": 2**300, "ceiling": 7}),
    (ExpressionSyntaxError("expected ')'", 4), {"message": "expected ')'", "position": 4}),
])
def test_errors_survive_pickling(error, attributes):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert {name: getattr(copy, name) for name in attributes} == attributes


@pytest.mark.parametrize("budget, code", [(300, 1), (1000, 1), (3000, 0)])
def test_cli_tortkara_suite_under_a_term_budget(capsys, budget, code):
    argv = ["--term-budget", str(budget), "verify", "--suite", "tortkara", "--d", "2", "--level", "4"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("aborted: ") if code else err == ""


def test_cli_discrete_area_output_is_as_recorded(tmp_path):
    # byte pins: a change here is a change of the command's output
    csv = tmp_path / "F.csv"
    csv.write_text("1/2,0\n1/2,1/3\n")
    argv = ["discrete-area", "--csv", str(csv), "--tree", "s(1,a(1,2))"]
    assert run_cli(*argv) == (0, "tree: s(1,a(1,2))\nseries: 0 0 1/12\nfinal: 1/12\n")
    assert run_cli(*argv, "--format", "json") == (
        0, '{"mode": "exact_rational", "values": ["0", "0", "1/12"]}\n')


def _readme_command_lines():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_readme_command_line_examples(tmp_path, monkeypatch, capsys):
    # each line of the README's command line block that shows its output
    # ("# -> X" or "# final: X") gives that output; printf lines write files
    monkeypatch.chdir(tmp_path)
    checked = 0
    for line in _readme_command_lines():
        command, _, shown = line.partition("#")
        argv, shown = shlex.split(command), shown.strip()
        if argv[:1] == ["printf"]:
            text, redirect, name = argv[1:]
            assert redirect == ">"
            (tmp_path / name).write_text(text.encode().decode("unicode_escape"))
        elif shown.startswith(("-> ", "final: ")):
            assert argv[0] == "areasig" and main(argv[1:]) == 0, line
            out = capsys.readouterr().out
            if shown.startswith("-> "):
                assert out == shown[3:] + "\n", line
            else:
                assert shown in out.splitlines(), line
            checked += 1
    assert checked == 3


def test_cli_eval_deep_nesting_exits_2(capsys):
    depth = 2000
    assert main(["eval", "sh(" * depth + "1" + ",1)" * depth]) == 2
    assert "expression nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("tree", ["3", "a(3,3)", "s(1,a(3,3))", "a(a(1,3),a(1,3))"])
def test_cli_discrete_area_letter_outside_the_path_exits_2(tmp_path, capsys, tree):
    # a zero class is rejected like any other tree with such a letter
    csv = tmp_path / "L.csv"
    csv.write_text("1,0\n1,1\n")
    assert main(["discrete-area", "--csv", str(csv), "--tree", tree]) == 2
    captured = capsys.readouterr()
    assert "coordinate 3 outside 1..2" in captured.err and captured.out == ""


def test_cli_discrete_area_deep_tree_exits_2(tmp_path, capsys):
    csv = tmp_path / "L.csv"
    csv.write_text("1,0\n1,1\n")
    depth = 2000
    tree = "a(" * depth + "1" + ",2)" * depth
    assert main(["discrete-area", "--csv", str(csv), "--tree", tree]) == 2
    assert "tree nested too deeply" in capsys.readouterr().err


def test_cli_term_budget_abort():
    # level 5 has bracketings and zetas of up to 10 terms, over the budget of 5
    code = main(["--term-budget", "5", "tables", "--d", "2", "--level", "5"])
    assert code == 1


@pytest.mark.parametrize(
    "env, argv, named",
    [
        (None, ["--term-budget", "0", "eval", "1"], "got 0"),
        ("abc", ["eval", "1"], "AREASIG_TERM_BUDGET must be an integer, got 'abc'"),
        ("0", ["eval", "1"], "got 0"),
    ],
    ids=["flag-0", "env-abc", "env-0"],
)
def test_cli_bad_term_budget_exits_2(monkeypatch, capsys, env, argv, named):
    from areasig import guard

    if env is None:
        monkeypatch.delenv("AREASIG_TERM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("AREASIG_TERM_BUDGET", env)
    previous = guard.get_term_budget()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert guard.get_term_budget() == previous


# integers the CLI refuses: what int() takes but the ASCII grammar's p form
# does not (other digits, underscores), and the grammar's other forms
REFUSED_INTEGERS = ["\u0662", "\u0661\u0660", "\u00b2", "1_0", "2.0", "1e1", "2/1", "0x2", " "]


@pytest.mark.parametrize("text", REFUSED_INTEGERS)
@pytest.mark.parametrize(
    "argv, option",
    [
        (["eval", "w(12)", "--d"], "--d"),
        (["verify", "--level"], "--level"),
        (["signature", "--csv", "L.csv", "--level"], "--level"),
    ],
)
def test_cli_sizes_read_ascii_digits_only(capsys, argv, option, text):
    with pytest.raises(SystemExit) as exc:
        main(argv + [text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument %s: must be an integer >= 1, got %r\n" % (option, text))


@pytest.mark.parametrize("text", REFUSED_INTEGERS)
def test_cli_term_budget_reads_ascii_digits_only(monkeypatch, capsys, text):
    from areasig import guard

    previous = guard.get_term_budget()
    monkeypatch.delenv("AREASIG_TERM_BUDGET", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["--term-budget", text, "eval", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --term-budget: invalid int value: %r\n" % text)
    monkeypatch.setenv("AREASIG_TERM_BUDGET", text)
    assert main(["eval", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: AREASIG_TERM_BUDGET must be an integer, got %r\n" % text)
    assert guard.get_term_budget() == previous


def test_budget_env_override(monkeypatch):
    from areasig import guard

    monkeypatch.setenv("AREASIG_TERM_BUDGET", "123456")
    previous = guard.get_term_budget()
    try:
        assert guard.budget_from_env() == 123456
    finally:
        guard.set_term_budget(previous)


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "areasig.cli", "eval", "area(1,2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12 - 21"


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


# stdout, stderr and exit code of the commands as they read before the
# parser was built from one option table (written by running main in a
# directory holding "files", with AREASIG_TERM_BUDGET set to "env" if any)
RECORDED = json.loads((pathlib.Path(__file__).parent / "cli_recorded.json").read_text())


@pytest.mark.parametrize(
    "case", RECORDED["cases"], ids=lambda case: " ".join(case["argv"])[:60]
)
def test_cli_output_is_as_recorded(tmp_path, monkeypatch, capsys, case):
    for name, text in RECORDED["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AREASIG_TERM_BUDGET", raising=False)
    if case["env"] is not None:
        monkeypatch.setenv("AREASIG_TERM_BUDGET", case["env"])
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (case["code"], case["stdout"])
    if case["exited"]:
        # argparse's usage lines above its error line are laid out
        # differently across Python versions; the error line is the same
        assert err.splitlines()[-1] == case["stderr"].splitlines()[-1]
    else:
        assert err == case["stderr"]


# (flag, default, choices, required, type) of each subcommand's options in
# order, "size" marking the integer >= 1 reader
PARSER_OPTIONS = {
    "eval": [
        ("expression", None, None, True, None),
        ("--d", 2, None, False, "size"),
        ("--format", "text", ["text", "json"], False, None),
    ],
    "tables": [
        ("--basis", "lyndon", ["lyndon", "hall"], False, None),
        ("--d", 2, None, False, "size"),
        ("--level", 5, None, False, "size"),
        ("--format", "text", ["text", "json"], False, None),
    ],
    "rho-table": [
        ("--basis", "lyndon", ["lyndon", "hall"], False, None),
        ("--d", 2, None, False, "size"),
        ("--level", 5, None, False, "size"),
        ("--format", "text", ["text", "json"], False, None),
    ],
    "verify": [
        ("--suite", "all", ["core", "dynkin", "lambda", "pwl", "tortkara", "all"], False, None),
        ("--d", 2, None, False, "size"),
        ("--level", 4, None, False, "size"),
    ],
    "discrete-area": [
        ("--csv", None, None, True, None),
        ("--tree", None, None, True, None),
        ("--format", "text", ["text", "json"], False, None),
    ],
    "signature": [
        ("--csv", None, None, True, None),
        ("--level", 5, None, False, "size"),
        ("--format", "text", ["text", "json"], False, None),
    ],
    "span-check": [
        ("which", None, ["areas", "leftbracket", "special"], True, None),
        ("--d", 2, None, False, "size"),
        ("--level", 4, None, False, "size"),
    ],
}


def _option_rows(parser):
    rows = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        kind = {cli._positive: "size", cli._integer: "int"}.get(action.type)
        flag = action.option_strings[0] if action.option_strings else action.dest
        rows.append((flag, action.default, action.choices, action.required, kind))
    return rows


def test_cli_parser_options_defaults_and_choices():
    parser = cli.build_parser()
    assert _option_rows(parser) == [("--term-budget", None, None, False, "int")]
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(PARSER_OPTIONS)
    for name, sub in commands.choices.items():
        assert _option_rows(sub) == PARSER_OPTIONS[name], name
        assert sub.get_default("func") is getattr(cli, "cmd_" + name.replace("-", "_"))
