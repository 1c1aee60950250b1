import json
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cdcalc
from cdcalc import (
    Leaf,
    Letter,
    Node,
    Trace,
    Verdict,
    apply_letter,
    apply_word,
    apply_word_partial,
    expansions,
    iter_expansions,
    oracle_equiv,
    parse_term,
    parse_word,
    pos_word,
    render_term,
    right_comb,
    same_spine,
    skeleton,
    substitute,
    trace,
    variables,
)
from cdcalc.cli import main
from helpers import (
    X,
    cd_relations,
    injective_upto,
    is_canonical,
    is_injective,
    labeled_upto,
    match,
    one_var_upto,
    pos_words_st,
    random_term,
    reference_apply_letter,
    reference_iter_expansions,
    reference_trace,
    terms_st,
    words_st,
)

x1, x2, x3, x4 = Leaf(1), Leaf(2), Leaf(3), Leaf(4)


def test_apply_letter_examples():
    assert apply_letter(x1 * (x2 * x3), Letter("", 1)) == (x1 * x2) * (x2 * x3)
    assert apply_letter((x1 * x2) * (x2 * x3), Letter("", -1)) == x1 * (x2 * x3)
    assert apply_letter((x1 * x2) * (x4 * x3), Letter("", -1)) is None
    assert apply_letter(x1, Letter("", 1)) is None
    assert apply_letter(x1 * x2, Letter("", 1)) is None


@given(terms_st, st.text(alphabet="01", max_size=3))
def test_apply_letter_inverse_cancels(t, a):
    forward = apply_letter(t, Letter(a, 1))
    if forward is not None:
        assert apply_letter(forward, Letter(a, -1)) == t


def _nodes(t):
    """(address, subterm) at every node of t, leaves included, in preorder,
    which is the lexicographic order of the addresses."""
    out, stack = [], [("", t)]
    while stack:
        addr, cur = stack.pop()
        out.append((addr, cur))
        if type(cur) is Node:
            stack.append((addr + "1", cur.right))
            stack.append((addr + "0", cur.left))
    return out


def _differential_terms(rng):
    randoms = [random_term(rng, rng.randint(8, 14), rng.randint(1, 3)) for _ in range(300)]
    return one_var_upto(6) + labeled_upto(4, 2) + randoms


def _assert_shares_off_the_path(t, letter, image):
    # every subterm of t that the rewrite keeps is t's own object in the image
    s, u = t, image
    for bit in letter.addr:
        if bit == "0":
            assert u.right is s.right
            s, u = s.left, u.left
        else:
            assert u.left is s.left
            s, u = s.right, u.right
    if letter.sign > 0:  # s0*(s1*s2) -> (s0*s1)*(s1*s2)
        assert u.left.left is s.left and u.left.right is s.right.left and u.right is s.right
    else:  # (s0*s1)*(s1*s2) -> s0*(s1*s2)
        assert u.left is s.left.left and u.right is s.right


def test_apply_letter_matches_the_two_walk_reference():
    # 20 letters of either sign per term, half at the term's own nodes and
    # half at random addresses of length <= 5
    rng = random.Random(39)
    defined = {1: 0, -1: 0}
    for t in _differential_terms(rng):
        own = [a for a, _ in _nodes(t)]
        for k in range(20):
            if k % 2:
                addr = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            else:
                addr = rng.choice(own)
            letter = Letter(addr, rng.choice((1, -1)))
            image = apply_letter(t, letter)
            assert image == reference_apply_letter(t, letter), (render_term(t), letter)
            if image is not None:
                defined[letter.sign] += 1
                _assert_shares_off_the_path(t, letter, image)
    assert min(defined.values()) >= 100, defined


def test_expansions_apply_the_positive_letter_at_every_product_right_child():
    for t in _differential_terms(random.Random(39)):
        want = [(a, reference_apply_letter(t, Letter(a, 1)))
                for a, s in _nodes(t) if type(s) is Node and type(s.right) is Node]
        assert expansions(t) == want, render_term(t)


def test_apply_word_examples():
    t = parse_term("(x1 (x2 (x3 x4)))")
    target = parse_term("(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))")
    assert apply_word(t, parse_word("1.e.0")) == target
    assert apply_word(t, parse_word("e.1.e")) == target
    assert apply_word(t, ()) == t
    assert apply_word_partial(x1, parse_word("0.e")) == (None, 0)
    assert apply_word_partial(t, parse_word("1.0.e")) == (None, 1)


def test_expansions():
    assert expansions(x1) == []
    assert expansions(X * (X * X)) == [("", (X * X) * (X * X))]
    assert len(expansions(parse_term("(x1 (x2 (x3 x4)))"))) == 2
    addrs = [a for a, _ in expansions(parse_term("((x1 (x2 x3)) (x4 (x2 x3)))"))]
    assert addrs == sorted(addrs)


def test_iter_expansions_bfs():
    out = list(iter_expansions(X * (X * X), 2))
    assert out[0] == (0, X * (X * X))
    assert (1, (X * X) * (X * X)) in out
    assert len([k for k, _ in out if k == 2]) == 1


def test_iter_expansions_stops_when_a_round_adds_nothing(monkeypatch):
    calls, grow = [], cdcalc.action._grow

    def counted(closure, frontier):
        calls.append(len(frontier))
        return grow(closure, frontier)

    monkeypatch.setattr(cdcalc.action, "_grow", counted)
    t = parse_term("((x1 x1) x1)")
    assert list(iter_expansions(t, 10**6)) == [(0, t)] and calls == [1]


def test_iter_expansions_matches_the_term_set_reference():
    # the skeleton-keyed closure lists what the set of terms lists, in order
    for t in one_var_upto(6) + labeled_upto(3, 2):
        for steps in range(4):
            assert (list(iter_expansions(t, steps))
                    == list(reference_iter_expansions(t, steps))), (render_term(t), steps)


def test_trace_examples():
    tr = trace(pos_word([""]))
    assert tr == Trace(x1 * (x2 * x3), (x1 * x2) * (x2 * x3))
    tr = trace(parse_word("1.e.0"))
    assert tr.left == parse_term("(x1 (x2 (x3 x4)))")
    assert tr.right == parse_term("(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))")
    tr = trace(parse_word("e.-e"))
    assert tr.left == tr.right == x1 * (x2 * x3)
    assert trace(()) == Trace(x1, x1)


def test_empty_operator_regression():
    # found by the exhaustive search below: two root steps pile up a shared
    # middle factor, then the inverse at 0 demands an impossible equality
    assert trace(parse_word("e.e.-0")) is None


def test_no_shorter_empty_operator():
    alphabet = [Letter(a, s) for a in ["", "0", "1", "00", "01", "10", "11"] for s in (1, -1)]
    for n in (1, 2):
        for w in product(alphabet, repeat=n):
            assert trace(w) is not None, w


@settings(max_examples=60)
@given(pos_words_st)
def test_positive_traces_nonempty_injective(u):
    tr = trace(u)
    assert tr is not None
    assert is_injective(tr.left)
    assert is_canonical(tr.left) and is_canonical(tr.right)


@settings(max_examples=200)
@given(words_st)
def test_trace_right_uses_only_variables_of_the_left(w):
    # letters copy and drop subterms but never make new ones, so `trace`
    # can rename the pair by first occurrence in its left term alone
    tr = trace(w)
    if tr is not None:
        assert set(variables(tr.right)) <= set(variables(tr.left))


@settings(max_examples=60, deadline=None)
@given(terms_st, pos_words_st)
def test_action_is_instance_of_trace(t, w):
    image = apply_word(t, w)
    if image is None:
        return
    tr = trace(w)
    assert match(Node(tr.left, tr.right), Node(t, image)) is not None


@given(terms_st, st.text(alphabet="01", max_size=2))
def test_positive_steps_grow_size(t, a):
    image = apply_letter(t, Letter(a, 1))
    if image is not None:
        assert image.size > t.size


def test_relations_have_equal_traces_and_actions():
    rels = cd_relations(1)
    terms = injective_upto(5)
    for u, v in rels:
        assert trace(u) == trace(v)
        for t in terms:
            assert apply_word(t, u) == apply_word(t, v)


def _rendered(tr):
    return None if tr is None else (render_term(tr.left), render_term(tr.right))


def test_trace_matches_the_pattern_reference_on_signed_words():
    # every word of the relations, then seeded random signed words
    rng = random.Random(34)
    addrs = ["", "0", "1", "00", "01", "10", "11", "010", "101", "0110", "1011"]
    words = [w for pair in cd_relations(1) for w in pair]
    words += [tuple(Letter(rng.choice(addrs), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 8))) for _ in range(5000)]
    empty = 0
    for w in words:
        got = _rendered(trace(w))
        assert got == _rendered(reference_trace(w)), w
        empty += got is None
    assert 50 < empty < 500  # both outcomes are exercised


def _moves(t):
    # every signed letter that applies to t, with its image
    out, stack = [], [("", t)]
    while stack:
        a, s = stack.pop()
        if type(s) is Node:
            for letter in (Letter(a, 1), Letter(a, -1)):
                image = apply_letter(t, letter)
                if image is not None:
                    out.append((letter, image))
            stack += [(a + "0", s.left), (a + "1", s.right)]
    return out


def _applicable_walk(rng):
    # a random 4-14-leaf one-variable term and a signed walk of 30-120
    # letters that applies to it, shrinking once past 60 leaves when it can
    while True:
        t0 = t = random_term(rng, rng.randint(4, 14), 1)
        w = []
        for _ in range(rng.randint(30, 120)):
            moves = _moves(t)
            if not moves:
                break
            shrink = [m for m in moves if m[0].sign < 0]
            letter, t = rng.choice(shrink if t.size > 60 and shrink else moves)
            w.append(letter)
        else:
            return t0, tuple(w), t


def test_trace_matches_the_pattern_reference_on_applicable_walks():
    rng = random.Random(34)
    for _ in range(100):
        t, w, image = _applicable_walk(rng)
        tr = trace(w)
        assert _rendered(tr) == _rendered(reference_trace(w)), w
        assert match(Node(tr.left, tr.right), Node(t, image)) is not None


def test_positive_words_make_no_occurs_check(monkeypatch):
    calls, occurs = [], cdcalc.terms._occurs

    def counted(index, t, subst):
        calls.append(index)
        return occurs(index, t, subst)

    monkeypatch.setattr(cdcalc.terms, "_occurs", counted)
    tr = trace(pos_word(["0" * k for k in range(240)]))
    assert (tr.left.size, tr.right.size, len(calls)) == (242, 29162, 0)
    assert trace(parse_word("e.e.-0")) is None and calls  # negative letters still check


def test_oracle_examples():
    assert oracle_equiv(X * (X * X), (X * X) * (X * X), 1) is Verdict.EQUIVALENT
    assert oracle_equiv(x1 * x2, x2 * x1, 4) is Verdict.NOT_EQUIVALENT
    assert oracle_equiv(x1, x1 * x1, 4) is Verdict.NOT_EQUIVALENT
    assert oracle_equiv(x1 * (x2 * x3), (x1 * x2) * (x1 * x3), 4) is Verdict.NOT_EQUIVALENT
    assert oracle_equiv(x1, x1, 0) is Verdict.EQUIVALENT
    # at depth 0 the pair itself settles equal but distinct objects, and two
    # distinct terms of one spine profile and one skeleton; a second parse
    # of one text returns the same object, so the copy is built by Node
    for text in ("((x1 x1) (x1 (x1 x1)))", "((x1 x2) (x2 (x1 x2)))"):
        t = parse_term(text)
        t2 = Node(t.left, t.right)
        assert t2 is not t and oracle_equiv(t, t2, 0) is Verdict.EQUIVALENT
    t, t2 = parse_term("((x1 x2) (x1 x2))"), parse_term("((x1 x1) (x1 x2))")
    assert same_spine(t, t2) and skeleton(t) == skeleton(t2)
    assert oracle_equiv(t, t2, 0) is Verdict.NOT_EQUIVALENT
    with pytest.raises(ValueError):
        oracle_equiv(x1, x1, -1)


def test_oracle_walks_deep_right_spines_without_recursing(capsys):
    # one spine profile down 1498 levels; the bottom pair x*x, (x*x)*x is
    # refuted because x*x is a proper left subterm of (x*x)*x
    deep = (X * X) * X
    for _ in range(1498):
        deep = X * deep
    comb = right_comb(1500)
    assert main(["--json", "oracle", "--depth", "0", render_term(comb), render_term(deep)]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": "NotEquivalent"}


def test_oracle_sweeps_the_depth_before_searching_deep():
    # depth 0 refutes the bottom pair x*x, (x*x)*x at once; a search at
    # depth 2 on each of the 59 levels above it would take seconds
    deep = (X * X) * X
    for _ in range(58):
        deep = X * deep
    start = time.perf_counter()
    assert oracle_equiv(right_comb(60), deep, 2) is Verdict.NOT_EQUIVALENT
    assert time.perf_counter() - start < 0.5


def test_oracle_refutes_two_levels_down_the_right_spine():
    # unsettled in one step at the top and at t.right; at t.right.right one
    # step turns x1(x2x2) into (x1x2)(x2x2), which has the skeleton of
    # (x1x1)(x2x2) but is another term
    t = parse_term("((x2 (((x1 x2) x1) x2)) (x2 (x1 (x2 x2))))")
    t2 = parse_term("((x2 x1) ((x2 x1) ((x1 x1) (x2 x2))))")
    assert oracle_equiv(t, t2, 1) is Verdict.NOT_EQUIVALENT


def test_oracle_keeps_nothing_after_it_returns():
    # the deep pair of the CLI test above, over x2, which no other call has
    # seen; each closure search lives only as long as its call
    deep = (x2 * x2) * x2
    for _ in range(1498):
        deep = x2 * deep
    comb = substitute(right_comb(1500), {1: x2})
    tracemalloc.start()
    try:
        assert oracle_equiv(comb, deep, 0) is Verdict.NOT_EQUIVALENT
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_oracle_on_deep_left_combs_does_not_crash():
    # two 200,000-level left combs over x1 that differ only at the bottom, in
    # a fresh interpreter, since a C stack overflow kills the whole process
    code = ("from cdcalc import Leaf, Node, oracle_equiv\n"
            "x = Leaf(1)\n"
            "t, t2 = x * x, (x * x) * x\n"
            "for _ in range(200000):\n"
            "    t, t2 = Node(t, x), Node(t2, x)\n"
            "print(oracle_equiv(t, t2, 0).value)\n")
    src = str(Path(cdcalc.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert (out.returncode, out.stdout.strip()) == (0, "NotEquivalent"), out.stderr


# no function of cdcalc calls itself (tests/test_cli.py), so RecursionError
# is not caught
@pytest.mark.parametrize("exc", [MemoryError])
def test_cli_reports_resource_errors_as_operational(monkeypatch, capsys, exc):
    def fail(*args):
        raise exc()
    monkeypatch.setattr("cdcalc.cli.oracle_equiv", fail)
    assert main(["--json", "oracle", "--depth", "0", "x1", "x1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": exc.__name__}


def test_oracle_respects_expansion_chains():
    t = X * (X * (X * X))
    for steps, e in iter_expansions(t, 3):
        assert oracle_equiv(t, e, 4) is Verdict.EQUIVALENT, (steps, render_term(e))


def test_one_variable_oracle_matches_size_five_sample():
    terms = one_var_upto(4)
    for t in terms:
        for t2 in terms:
            v = oracle_equiv(t, t2, 8)
            assert v is not Verdict.UNKNOWN
