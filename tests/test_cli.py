import argparse
import json

import pytest

from cdcalc.cli import _build_parser, main

T3 = "(x1 (x1 x1))"
T3_EXPANDED = "((x1 x1) (x1 x1))"

# (arguments after --json, exit code, result); one yes and one no where a
# command answers yes or no
CASES = [
    (["decide", T3, T3_EXPANDED], 0, True),
    (["decide", "(x1 x2)", "(x2 x1)"], 1, False),
    (["apply", "(x1 (x2 x3))", "e"], 0, {"defined": True, "term": "((x1 x2) (x2 x3))"}),
    (["apply", "(x1 x2)", "e"], 1, {"defined": False, "step": 0}),
    (["trace", "e"], 0, {"left": "(x1 (x2 x3))", "right": "((x1 x2) (x2 x3))"}),
    (["trace", "--", "-e"], 0, {"left": "((x1 x2) (x2 x3))", "right": "(x1 (x2 x3))"}),
    (["trace", "--", "e.e.-0"], 1, None),
    (["redress", "--", "-e.1"], 0, {"num": "1.e", "den": "e.0"}),
    (["posequiv", "1.e.0", "e.1.e"], 0, True),
    (["posequiv", "e", "0"], 1, False),
    (["groupequiv", "--", "e.-e", "eps"], 0, True),
    (["groupequiv", "e", "0"], 1, False),
    (["complement", "e", "1"], 0, "1.e"),
    (["lcm", "0", "1.e"], 0, "0.1.e"),
    (["delta", "(x1 (x1 (x1 x1)))"], 0, "1.e.0"),
    (["partial", "-n", "2", T3], 0, "(((x1 x1) x1) (x1 x1))"),
    (["chi", T3], 0, "1.e.-1"),
    (["chi", "--star", T3], 0, "eps"),
    (["dil", "1", "e"], 0, 2),
    (["classify", "--", "-e.0"], 0, "P_minus"),
    (["compare", "(x1 x1)", "((x1 x1) x1)"], 0, "Less"),
    (["oracle", "--depth", "1", T3, T3_EXPANDED], 0, "Equivalent"),
    (["oracle", "--depth", "1", "(x1 x2)", "(x2 x1)"], 1, "NotEquivalent"),
    (["oracle", "--depth", "0", T3, T3_EXPANDED], 3, "Unknown"),
    (["expand", "--steps", "1", T3], 0,
     [{"steps": 0, "term": T3}, {"steps": 1, "term": T3_EXPANDED}]),
]


@pytest.mark.parametrize("args, code, result", CASES, ids=[f"{c[0][0]}-{c[1]}" for c in CASES])
def test_every_subcommand_answers_in_the_envelope(capsys, args, code, result):
    assert main(["--json", *args]) == code
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": result}


def test_every_subcommand_has_a_case():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {args[0] for args, _, _ in CASES}


def test_the_table_subcommand_is_gone(capsys):
    # and so is the one-variable duplicate of decide
    for args in (["checkfree", "table.txt"], ["decide1", T3, T3_EXPANDED]):
        with pytest.raises(SystemExit) as err:
            main(["--json", *args])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "invalid choice" in message and args[0] in message


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
])
def test_ceilings_end_in_the_error_envelope(capsys, args, error):
    assert main(["--json", *args]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": error}
