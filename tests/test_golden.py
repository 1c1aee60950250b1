"""Golden pins: the CLI's help texts byte for byte, and one digest over the
rendered answers of the library on small exhaustive inputs.

A change that should keep every answer must leave both unchanged.  A change
that means to alter an answer updates the pin and names the answer that
moved.  `tests/help_texts.txt` holds the help texts at 80 columns, each
after a `### cdcalc ...` header line; Python 3.13 wraps the usage line of
`cdcalc --help` differently, so that text has a second variant.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from cdcalc import (
    chi,
    compare,
    decide,
    delta,
    inverse,
    iter_expansions,
    lcm,
    oracle_equiv,
    partial_iter,
    pos_equiv,
    redress,
    render_term as rt,
    render_word as rw,
    trace,
)
from cdcalc.cli import _ORDER, COMMANDS, main
from helpers import cd_relations, labeled_upto, one_var_upto

_HELP = re.split(r"^### (.*)\n", (Path(__file__).parent / "help_texts.txt").read_text(),
                 flags=re.M)[1:]
HELP_TEXTS = dict(zip(_HELP[::2], _HELP[1::2]))

ANSWERS_SHA256 = "a8a0697bee95e9766b15daaeb0451441bc4133f5aefd026fdca628e3b18a1916"


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_texts_are_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main(["--help"] if command is None else [command, "--help"])
    assert err.value.code == 0
    name = "cdcalc" if command is None else f"cdcalc {command}"
    if command is None and sys.version_info >= (3, 13):
        name += " (3.13)"
    assert capsys.readouterr().out == HELP_TEXTS[name]


def _trace(w):
    tr = trace(w)
    return "empty" if tr is None else f"{rt(tr.left)} -> {rt(tr.right)}"


def _answers():
    terms = one_var_upto(5) + labeled_upto(3, 2)
    one_var = one_var_upto(5)
    for t in terms:
        for t2 in terms:
            yield f"decide {rt(t)} {rt(t2)}: {decide(t, t2)}"
            yield f"oracle {rt(t)} {rt(t2)}: {oracle_equiv(t, t2, 2).value}"
    for t in one_var:
        yield f"chi {rt(t)}: {rw(chi(t))}"
        for t2 in one_var:
            yield f"compare {rt(t)} {rt(t2)}: {_ORDER[compare(t, t2)]}"
    for t in terms:
        yield f"delta {rt(t)}: {rw(delta(t))}"
        yield f"partial2 {rt(t)}: {rt(partial_iter(t, 2))}"
        yield f"expand2 {rt(t)}: " + " ; ".join(f"{k} {rt(e)}" for k, e in iter_expansions(t, 2))
    for u, v in cd_relations(1):
        yield f"redress -({rw(u)}).{rw(v)}: {redress(inverse(u) + v)}"
        yield f"posequiv {rw(u)} {rw(v)}: {pos_equiv(u, v)}"
        yield f"lcm {rw(u)} {rw(v)}: {rw(lcm(u, v))}"
        yield f"trace {rw(u)} {rw(v)}: {_trace(u)} ; {_trace(v)}"


def test_answers_are_unchanged():
    lines = list(_answers())
    assert len(lines) == 2 * 45 * 45 + 23 + 23 * 23 + 3 * 45 + 4 * 57
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ANSWERS_SHA256
