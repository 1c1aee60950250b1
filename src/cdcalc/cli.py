"""Command-line front end.

Every decision procedure and construction is exposed as a subcommand over
the shared text formats (terms as s-expressions, words as dotted letters,
fractions as `N | D`).  Exit codes: 0 for yes/success, 1 for a mathematical
"no" or an undefined partial result, 2 for any operational error (bad
syntax, violated precondition, exceeded ceiling), 3 for an Unknown verdict
of the depth-bounded `oracle`.  `--json` wraps every
answer in the stable envelope {"ok": bool, "result": ...} on stdout.  A
word that starts with an inverse letter needs `--` before it, as in
`cdcalc trace -- -e`, or it is read as an option.
"""

import argparse
import json
import sys

from .action import (
    DEFAULT_MAX_SIZE,
    Verdict,
    apply_word_partial,
    iter_expansions,
    oracle_equiv,
    trace,
)
from .blueprint import chi, chi_star
from .decide import classify, compare, decide, dil
from .errors import ParseError, SizeLimitExceeded, StepBudgetExceeded
from .garside import delta, lcm, partial_iter
from .redress import DEFAULT_BUDGET, complement, group_equiv, pos_equiv, redress
from .terms import parse_term, render_term
from .words import parse_word, render_word


def _build_parser():
    p = argparse.ArgumentParser(
        prog="cdcalc",
        description="Calculus of the central duplication identity x(yz) = (xy)(yz).",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE, metavar="N",
                   help="size ceiling: leaves of a term, letters of a delta word (default 10^6)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                   help="rewrite step ceiling for redressing (default 10^6)")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, *args, **kw):
        c = sub.add_parser(name, help=kw.pop("help", None))
        for spec in args:
            c.add_argument(spec[0], **spec[1])
        return c

    term = lambda name: (name, {"help": f"term {name}"})
    word = lambda name: (name, {"help": f"word {name}"})

    cmd("decide", term("T"), term("T2"), help="are two terms equivalent under the identity")
    cmd("apply", term("T"), word("W"), help="apply a word of rewriting letters to a term")
    cmd("trace", word("W"), help="canonical term pair of the operator, or 'empty'")
    cmd("redress", word("W"), help="fraction form N | D of a word")
    cmd("posequiv", word("U"), word("U2"), help="equivalence of positive words")
    cmd("groupequiv", word("W"), word("W2"), help="equivalence in the presented group")
    cmd("complement", word("U"), word("V"), help="the positive complement U\\V")
    cmd("lcm", word("U"), word("V"), help="right lcm of two positive words")
    cmd("delta", term("T"), help="the distinguished positive word of a term")
    c = cmd("partial", term("T"), help="the expansion (T)delta(T), iterated with -n")
    c.add_argument("-n", type=int, default=1, help="iteration count (default 1)")
    c = cmd("chi", term("T"), help="blueprint word of a one-variable term")
    c.add_argument("--star", action="store_true", help="the starred blueprint instead")
    cmd("dil", ("I", {"type": int, "help": "spine index"}), word("U"),
        help="dilation of a left-spine index along a positive word")
    cmd("classify", word("W"), help="P_minus / P_zero / P_plus class of a word")
    cmd("compare", term("T"), term("T2"),
        help="Less / Equal / Greater under iterated left division (one-variable)")
    c = cmd("oracle", term("T"), term("T2"), help="brute-force equivalence search")
    c.add_argument("--depth", type=int, required=True, help="expansion search depth")
    c = cmd("expand", term("T"), help="enumerate expansions within a step bound")
    c.add_argument("--steps", type=int, required=True, help="maximum rewrite steps")
    return p


def _run(args):
    """Execute one subcommand; returns (exit code, json result, text lines)."""
    pt, pw = parse_term, parse_word
    rt, rw = render_term, render_word
    budget, max_size = args.budget, args.max_size

    if args.command == "decide":
        ok = decide(pt(args.T), pt(args.T2), budget=budget)
        return (0 if ok else 1), ok, ["equivalent" if ok else "not equivalent"]

    if args.command == "apply":
        result, done = apply_word_partial(pt(args.T), pw(args.W), max_size=max_size)
        if result is None:
            return 1, {"defined": False, "step": done}, [f"undefined at step {done}"]
        return 0, {"defined": True, "term": rt(result)}, [rt(result)]

    if args.command == "trace":
        tr = trace(pw(args.W))
        if tr is None:
            return 1, None, ["empty"]
        return 0, {"left": rt(tr.left), "right": rt(tr.right)}, [f"{rt(tr.left)} -> {rt(tr.right)}"]

    if args.command == "redress":
        fr = redress(pw(args.W), budget=budget)
        return 0, {"num": rw(fr.num), "den": rw(fr.den)}, [str(fr)]

    if args.command == "posequiv":
        ok = pos_equiv(pw(args.U), pw(args.U2), budget=budget)
        return (0 if ok else 1), ok, ["true" if ok else "false"]

    if args.command == "groupequiv":
        ok = group_equiv(pw(args.W), pw(args.W2), budget=budget)
        return (0 if ok else 1), ok, ["true" if ok else "false"]

    if args.command == "complement":
        out = complement(pw(args.U), pw(args.V), budget=budget)
        return 0, rw(out), [rw(out)]

    if args.command == "lcm":
        out = lcm(pw(args.U), pw(args.V), budget=budget)
        return 0, rw(out), [rw(out)]

    if args.command == "delta":
        out = delta(pt(args.T), max_size=max_size)
        return 0, rw(out), [rw(out)]

    if args.command == "partial":
        out = partial_iter(pt(args.T), args.n, max_size=max_size)
        return 0, rt(out), [rt(out)]

    if args.command == "chi":
        t = pt(args.T)
        out = chi_star(t) if args.star else chi(t)
        return 0, rw(out), [rw(out)]

    if args.command == "dil":
        out = dil(args.I, pw(args.U))
        return 0, out, [str(out)]

    if args.command == "classify":
        out = classify(pw(args.W), budget=budget)
        return 0, out.value, [out.value]

    if args.command == "compare":
        out = compare(pt(args.T), pt(args.T2), budget=budget)
        return 0, out.value, [out.value]

    if args.command == "oracle":
        verdict = oracle_equiv(pt(args.T), pt(args.T2), args.depth)
        code = {Verdict.EQUIVALENT: 0, Verdict.NOT_EQUIVALENT: 1, Verdict.UNKNOWN: 3}[verdict]
        return code, verdict.value, [verdict.value]

    if args.command == "expand":
        seq = [{"steps": k, "term": rt(t)}
               for k, t in iter_expansions(pt(args.T), args.steps)]
        return 0, seq, [f"{e['steps']}: {e['term']}" for e in seq]

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, result, lines = _run(args)
    except (ParseError, ValueError, StepBudgetExceeded, SizeLimitExceeded,
            RecursionError, MemoryError) as exc:
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
