"""Command-line front end.

Every decision procedure and construction is exposed as a subcommand over
the shared text formats (terms as s-expressions, words as dotted letters,
fractions as `N | D`).  A subcommand is defined by its `COMMANDS` entry: its
arguments, its help text and the function that answers it.  Exit codes: 0
for yes/success, 1 for a mathematical "no" or an undefined partial result,
2 for any operational error (bad syntax, violated precondition, exceeded
ceiling), 3 for an Unknown verdict of the depth-bounded `oracle`.  The
ceilings `--max-size` and `--budget` must be >= 0.  `--budget` bounds each
redressing on its own; `decide` redresses at most once, and only a pair
of several variables.  `--json` wraps every answer in the stable envelope
{"ok": bool, "result": ...} on stdout.  A word that starts with an inverse
letter needs `--` before it, as in `cdcalc trace -- -e`, or it is read as
an option.
"""

import argparse
import json
import sys

from .action import Verdict, apply_word_partial, iter_expansions, oracle_equiv, trace
from .blueprint import chi
from .decide import Classification, classify, compare, decide, dil
from .errors import SizeLimitExceeded, StepBudgetExceeded
from .garside import DEFAULT_MAX_SIZE, delta, lcm, partial_iter
from .redress import DEFAULT_BUDGET, complement, group_equiv, pos_equiv, redress
from .terms import parse_term as pt, render_term as rt
from .words import parse_word as pw, render_word as rw


def ceiling(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _yes(ok, yes="true", no="false"):
    """A yes/no answer: exit code 0 or 1, the bool, one line of text."""
    return (0 if ok else 1), ok, [yes if ok else no]


def _out(result):
    """A value answer: exit code 0, the value, its text as one line."""
    return 0, result, [str(result)]


def _apply(a):
    result, done = apply_word_partial(pt(a.T), pw(a.W), max_size=a.max_size)
    if result is None:
        return 1, {"defined": False, "step": done}, [f"undefined at step {done}"]
    return 0, {"defined": True, "term": rt(result)}, [rt(result)]


def _trace(a):
    tr = trace(pw(a.W))
    if tr is None:
        return 1, None, ["empty"]
    return 0, {"left": rt(tr.left), "right": rt(tr.right)}, [f"{rt(tr.left)} -> {rt(tr.right)}"]


def _redress(a):
    fr = redress(pw(a.W), budget=a.budget)
    return 0, {"num": rw(fr.num), "den": rw(fr.den)}, [str(fr)]


def _oracle(a):
    verdict = oracle_equiv(pt(a.T), pt(a.T2), a.depth)
    code = {Verdict.EQUIVALENT: 0, Verdict.NOT_EQUIVALENT: 1, Verdict.UNKNOWN: 3}[verdict]
    return code, verdict.value, [verdict.value]


def _expand(a):
    seq = [{"steps": k, "term": rt(t)} for k, t in iter_expansions(pt(a.T), a.steps)]
    return 0, seq, [f"{e['steps']}: {e['term']}" for e in seq]


# Every argument by name: T, T2 are terms, U, U2, V, W, W2 words.
_ARGUMENTS = {
    **{name: {"help": f"term {name}"} for name in ("T", "T2")},
    **{name: {"help": f"word {name}"} for name in ("U", "U2", "V", "W", "W2")},
    "I": {"type": int, "help": "spine index"},
    "-n": {"type": int, "default": 1, "help": "iteration count (default 1)"},
    "--depth": {"type": int, "required": True, "help": "expansion search depth"},
    "--steps": {"type": int, "required": True, "help": "maximum rewrite steps"},
}

# compare's class in the words of the order
_ORDER = {Classification.P_PLUS: "Less", Classification.P_ZERO: "Equal",
          Classification.P_MINUS: "Greater"}

# name: (arguments, help, answer); answer(args) -> (exit code, json result, text lines)
COMMANDS = {
    "decide": ("T T2", "are two terms equivalent under the identity",
               lambda a: _yes(decide(pt(a.T), pt(a.T2), budget=a.budget),
                              "equivalent", "not equivalent")),
    "apply": ("T W", "apply a word of rewriting letters to a term", _apply),
    "trace": ("W", "canonical term pair of the operator, or 'empty'", _trace),
    "redress": ("W", "fraction form N | D of a word", _redress),
    "posequiv": ("U U2", "equivalence of positive words",
                 lambda a: _yes(pos_equiv(pw(a.U), pw(a.U2), budget=a.budget))),
    "groupequiv": ("W W2", "equivalence in the presented group",
                   lambda a: _yes(group_equiv(pw(a.W), pw(a.W2), budget=a.budget))),
    "complement": ("U V", "the positive complement U\\V",
                   lambda a: _out(rw(complement(pw(a.U), pw(a.V), budget=a.budget)))),
    "lcm": ("U V", "right lcm of two positive words",
            lambda a: _out(rw(lcm(pw(a.U), pw(a.V), budget=a.budget)))),
    "delta": ("T", "the distinguished positive word of a term",
              lambda a: _out(rw(delta(pt(a.T), max_size=a.max_size)))),
    "partial": ("T -n", "the expansion (T)delta(T), iterated with -n",
                lambda a: _out(rt(partial_iter(pt(a.T), a.n, max_size=a.max_size)))),
    "chi": ("T", "blueprint word of a one-variable term",
            lambda a: _out(rw(chi(pt(a.T))))),
    "dil": ("I U", "dilation of a left-spine index along a positive word",
            lambda a: _out(dil(a.I, pw(a.U)))),
    "classify": ("W", "P_minus / P_zero / P_plus class of a word",
                 lambda a: _out(classify(pw(a.W), budget=a.budget).value)),
    "compare": ("T T2", "Less / Equal / Greater under iterated left division (one-variable)",
                lambda a: _out(_ORDER[compare(pt(a.T), pt(a.T2), budget=a.budget)])),
    "oracle": ("T T2 --depth", "brute-force equivalence search", _oracle),
    "expand": ("T --steps", "enumerate expansions within a step bound", _expand),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="cdcalc",
        description="Calculus of the central duplication identity x(yz) = (xy)(yz).",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-size", type=ceiling, default=DEFAULT_MAX_SIZE, metavar="N",
                   help="size ceiling >= 0: leaves of a term, letters of a delta word (default 10^6)")
    p.add_argument("--budget", type=ceiling, default=DEFAULT_BUDGET, metavar="N",
                   help="rewrite step ceiling for each redressing, >= 0 (default 10^6)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (arguments, text, _) in COMMANDS.items():
        c = sub.add_parser(name, help=text)
        for arg in arguments.split():
            c.add_argument(arg, **_ARGUMENTS[arg])
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, result, lines = COMMANDS[args.command][2](args)
    except (ValueError, StepBudgetExceeded, SizeLimitExceeded,
            MemoryError) as exc:  # a ParseError is a ValueError
        message = str(exc) or type(exc).__name__
        if args.json:
            print(json.dumps({"ok": False, "error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"ok": True, "result": result}))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
