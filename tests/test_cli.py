import argparse
import ast
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
    (["dil", "1", "e"], 0, 2, ["2"]),
    (["classify", "--", "-e.0"], 0, "P_minus", ["P_minus"]),
    (["compare", "(x1 x1)", "((x1 x1) x1)"], 0, "Less", ["Less"]),
    (["compare", "(x1 x1)", "(x1 x1)"], 0, "Equal", ["Equal"]),
    (["compare", "((x1 x1) x1)", "(x1 x1)"], 0, "Greater", ["Greater"]),
    (["oracle", "--depth", "1", T3, T3_EXPANDED], 0, "Equivalent", ["Equivalent"]),
    (["oracle", "--depth", "1", "(x1 x2)", "(x2 x1)"], 1, "NotEquivalent", ["NotEquivalent"]),
    (["oracle", "--depth", "0", T3, T3_EXPANDED], 3, "Unknown", ["Unknown"]),
    (["expand", "--steps", "1", T3], 0,
     [{"steps": 0, "term": T3}, {"steps": 1, "term": T3_EXPANDED}],
     [f"0: {T3}", f"1: {T3_EXPANDED}"]),
]
# each row's test id, its command and exit code, with a word more where two
# rows share both: fixed per row, so that a new row renames no older test
IDS = ["decide-0", "decide-1", "apply-0", "apply-1", "trace-0-positive", "trace-0-negative",
       "trace-1", "redress-0", "posequiv-0", "posequiv-1", "groupequiv-0", "groupequiv-1",
       "complement-0", "lcm-0", "delta-0", "partial-0", "chi-0", "dil-0", "classify-0",
       "compare-0-less", "compare-0-equal", "compare-0-greater", "oracle-0", "oracle-1",
       "oracle-3", "expand-0"]


def test_every_case_has_its_own_id():
    assert len(set(IDS)) == len(IDS) == len(CASES)
    assert all(i.startswith(f"{args[0]}-{code}") for i, (args, code, *_) in zip(IDS, CASES))


@pytest.mark.parametrize("args, code, result, lines", CASES, ids=IDS)
def test_every_subcommand_answers_in_the_envelope(capsys, args, code, result, lines):
    assert main(["--json", *args]) == code
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": result}


@pytest.mark.parametrize("args, code, result, lines", CASES, ids=IDS)
def test_every_subcommand_answers_in_text(capsys, args, code, result, lines):
    assert main(args) == code
    assert capsys.readouterr().out.splitlines() == lines


T4 = "(x1 (x1 (x1 x1)))"

# (arguments, exit code, result under --json) of answers no row of CASES
# gives: the right spine refuting on its stored right heights before any
# redressing step, partial once answered, a positive trace, whose walk runs
# no occurs check, oracle at depth 0 on an equal pair and on two distinct
# terms of one skeleton, and at depth 1 on a pair that is Unknown at depth 0
# and that the iterated-left-divisor witness refutes after one growth round,
# and expand's listing to step 2 in (size, skeleton) order within each step
MORE_CASES = [
    (["--budget", "0", "decide", T3, "((x1 x1) x1)"], 1, False),
    (["partial", T3], 0, T3_EXPANDED),
    (["trace", "1.e.0"], 0,
     {"left": "(x1 (x2 (x3 x4)))", "right": "(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))"}),
    (["oracle", "--depth", "0", "((x1 x2) x3)", "((x1 x2) x3)"], 0, "Equivalent"),
    (["oracle", "--depth", "0", "((x1 x2) (x1 x2))", "((x1 x1) (x1 x2))"], 1, "NotEquivalent"),
    (["oracle", "--depth", "1", "(x1 x1)", "((x1 (x1 x1)) x1)"], 1, "NotEquivalent"),
    (["expand", "--steps", "2", T4], 0,
     [{"steps": k, "term": t} for k, t in [
         (0, T4), (1, "(x1 ((x1 x1) (x1 x1)))"), (1, "((x1 x1) (x1 (x1 x1)))"),
         (2, "(x1 (((x1 x1) x1) (x1 x1)))"), (2, "((x1 x1) ((x1 x1) (x1 x1)))"),
         (2, "(((x1 x1) x1) (x1 (x1 x1)))"), (2, "((x1 (x1 x1)) ((x1 x1) (x1 x1)))")]]),
]


@pytest.mark.parametrize("args, code, result", MORE_CASES, ids=[
    "decide-right-heights", "partial", "trace-positive", "oracle-equal-pair",
    "oracle-one-skeleton", "oracle-left-divisor", "expand-two-steps"])
def test_more_answers_in_the_envelope(capsys, args, code, result):
    assert main(["--json", *args]) == code
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": result}


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


def test_the_star_option_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--json", "chi", "--star", T3])
    assert err.value.code == 2
    assert "unrecognized arguments: --star" in capsys.readouterr().err


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
    (["--max-size", "3", "delta", "(x1 (x1 (x1 (x1 x1))))"],
     "delta grew past 3 letters, so its expansion passes 3 leaves"),
    (["--budget", "1", "lcm", "0", "1.e"],
     "redressing stopped at its budget after 1 steps; the word has 3 letters, the input had 3"),
    (["expand", "--steps", "-1", T3], "steps must be >= 0"),
    # two variables, and the projections comb5 and partial(comb5), whose
    # top-level difference needs 55 redressing steps
    (["--budget", "20", "decide", "(x1 (x1 (x1 (x1 x2))))",
      "((((x1 x1) (x1 x1)) ((x1 x1) (x1 x1))) (((x1 x1) (x1 x1)) ((x1 x1) (x1 x2))))"],
     "redressing stopped at its budget after 20 steps; the word has 48 letters, the input had 55; "
     "at the top level, whose projections have one normal form"),
    (["--max-size", "5", "partial", "(x1 (x1 (x1 x1)))"],
     "partial grew past 5 leaves: its finished parts hold 8"),
    (["--max-size", "3", "apply", "(x1 (x1 x1))", "e"],
     "term grew past 3 leaves at letter 1 of 1"),
    # int() converts at most 4300 digits by default
    (["decide", "x" + "1" * 5000, "x1"], "variable index has too many digits (at position 0)"),
])
def test_ceilings_end_in_the_error_envelope(capsys, args, error):
    assert main(["--json", *args]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": error}


def test_delta_ceiling_bounds_only_the_word(capsys):
    # the spreads of ((x1 x1) (x1 x1)) pass 3 leaves, but its word is e
    assert main(["--json", "--max-size", "3", "delta", "((x1 x1) (x1 x1))"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": "e"}


def test_decide_refutes_at_budget_zero(capsys):
    # the bottom factors x1 and (x1 x1) have right heights 0 and 1, so the
    # pair is refuted before any redressing step
    assert main(["--json", "--budget", "0", "decide", "(x1 x1)", "((x1 x1) x1)"]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": False}


def test_errors_in_text_go_to_stderr(capsys):
    assert main(["decide", "(x1", "x1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: unclosed '(' (at position 3)\n")


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


def _callee(func):
    """The name a call reaches its function by: f(...), self.f(...) or cls.f(...)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def test_no_function_calls_itself():
    # so no input drives cdcalc into RecursionError, and main does not catch
    # it; a nested function that calls the one around it counts too
    found = []
    for path in sorted(Path(cdcalc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{call.lineno} {fn.name}" for call in ast.walk(fn)
                          if isinstance(call, ast.Call) and _callee(call.func) == fn.name]
    assert found == []
