import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cdcalc
from cdcalc.cli import _build_parser, main

T3 = "(x1 (x1 x1))"
T3_EXPANDED = "((x1 x1) (x1 x1))"

# (arguments, exit code, result under --json, lines of plain text); one yes
# and one no where a command answers yes or no
CASES = [
    (["decide", T3, T3_EXPANDED], 0, True, ["equivalent"]),
    (["decide", "(x1 x2)", "(x2 x1)"], 1, False, ["not equivalent"]),
    (["apply", "(x1 (x2 x3))", "e"], 0, {"defined": True, "term": "((x1 x2) (x2 x3))"},
     ["((x1 x2) (x2 x3))"]),
    (["apply", "(x1 x2)", "e"], 1, {"defined": False, "step": 0}, ["undefined at step 0"]),
    (["trace", "e"], 0, {"left": "(x1 (x2 x3))", "right": "((x1 x2) (x2 x3))"},
     ["(x1 (x2 x3)) -> ((x1 x2) (x2 x3))"]),
    (["trace", "--", "-e"], 0, {"left": "((x1 x2) (x2 x3))", "right": "(x1 (x2 x3))"},
     ["((x1 x2) (x2 x3)) -> (x1 (x2 x3))"]),
    (["trace", "--", "e.e.-0"], 1, None, ["empty"]),
    (["redress", "--", "-e.1"], 0, {"num": "1.e", "den": "e.0"}, ["1.e | e.0"]),
    (["posequiv", "1.e.0", "e.1.e"], 0, True, ["true"]),
    (["posequiv", "e", "0"], 1, False, ["false"]),
    (["groupequiv", "--", "e.-e", "eps"], 0, True, ["true"]),
    (["groupequiv", "e", "0"], 1, False, ["false"]),
    (["complement", "e", "1"], 0, "1.e", ["1.e"]),
    (["lcm", "0", "1.e"], 0, "0.1.e", ["0.1.e"]),
    (["delta", "(x1 (x1 (x1 x1)))"], 0, "1.e.0", ["1.e.0"]),
    (["partial", "-n", "2", T3], 0, "(((x1 x1) x1) (x1 x1))", ["(((x1 x1) x1) (x1 x1))"]),
    (["chi", T3], 0, "1.e.-1", ["1.e.-1"]),
    (["chi", "--star", T3], 0, "eps", ["eps"]),
    (["dil", "1", "e"], 0, 2, ["2"]),
    (["classify", "--", "-e.0"], 0, "P_minus", ["P_minus"]),
    (["compare", "(x1 x1)", "((x1 x1) x1)"], 0, "Less", ["Less"]),
    (["oracle", "--depth", "1", T3, T3_EXPANDED], 0, "Equivalent", ["Equivalent"]),
    (["oracle", "--depth", "1", "(x1 x2)", "(x2 x1)"], 1, "NotEquivalent", ["NotEquivalent"]),
    (["oracle", "--depth", "0", T3, T3_EXPANDED], 3, "Unknown", ["Unknown"]),
    (["expand", "--steps", "1", T3], 0,
     [{"steps": 0, "term": T3}, {"steps": 1, "term": T3_EXPANDED}],
     [f"0: {T3}", f"1: {T3_EXPANDED}"]),
]
IDS = [f"{c[0][0]}-{c[1]}" for c in CASES]


@pytest.mark.parametrize("args, code, result, lines", CASES, ids=IDS)
def test_every_subcommand_answers_in_the_envelope(capsys, args, code, result, lines):
    assert main(["--json", *args]) == code
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": result}


@pytest.mark.parametrize("args, code, result, lines", CASES, ids=IDS)
def test_every_subcommand_answers_in_text(capsys, args, code, result, lines):
    assert main(args) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_every_subcommand_has_a_case():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {args[0] for args, *_ in CASES}


def test_the_table_subcommand_is_gone(capsys):
    # and so is the one-variable duplicate of decide
    for args in (["checkfree", "table.txt"], ["decide1", T3, T3_EXPANDED]):
        with pytest.raises(SystemExit) as err:
            main(["--json", *args])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "invalid choice" in message and args[0] in message


def test_a_spine_index_must_be_an_int(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--json", "dil", "abc", "e"])
    assert err.value.code == 2
    assert "argument I: invalid int value: 'abc'" in capsys.readouterr().err


def test_a_leading_inverse_letter_needs_a_separator(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--json", "trace", "-e"])
    assert err.value.code == 2
    assert "required: W" in capsys.readouterr().err


@pytest.mark.parametrize("args, error", [
    (["--max-size", "3", "delta", "(x1 (x1 (x1 (x1 x1))))"], "delta spread a term past 3 leaves"),
    (["--budget", "1", "lcm", "0", "1.e"],
     "redressing stopped at its budget after 1 steps; the word has 3 letters, the input had 3"),
    (["expand", "--steps", "-1", T3], "steps must be >= 0"),
    (["--budget", "20", "decide", "(x1 (x1 (x1 (x1 x1))))",
      "((((x1 x1) (x1 x1)) ((x1 x1) (x1 x1))) (((x1 x1) (x1 x1)) ((x1 x1) (x1 x1))))"],
     "redressing stopped at its budget after 20 steps; the word has 48 letters, the input had 55; "
     "at right-spine level 0 of 4, after 2 levels found P_zero"),
    (["--max-size", "5", "partial", "(x1 (x1 (x1 x1)))"],
     "partial grew past 5 leaves: its finished parts hold 8"),
])
def test_ceilings_end_in_the_error_envelope(capsys, args, error):
    assert main(["--json", *args]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": error}


@pytest.mark.parametrize("option", ["--budget", "--max-size"])
def test_negative_ceilings_are_usage_errors(capsys, option):
    # rejected when parsed, even where no ceiling would be reached
    with pytest.raises(SystemExit) as err:
        main(["--json", option, "-1", "redress", "1"])
    assert err.value.code == 2
    assert f"argument {option}: must be >= 0, got -1" in capsys.readouterr().err


def test_the_cli_imports_no_dataclasses():
    # in a fresh interpreter, since pytest itself imports dataclasses
    code = "import sys, cdcalc.cli; print('dataclasses' in sys.modules)"
    src = str(Path(cdcalc.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
