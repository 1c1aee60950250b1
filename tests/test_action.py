import json
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
    size,
    substitute,
    trace,
)
from cdcalc.cli import main
from helpers import (
    X,
    cd_relations,
    injective_upto,
    is_canonical,
    is_injective,
    match,
    one_var_upto,
    pos_words_st,
    terms_st,
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
        assert size(image) > size(t)


def test_relations_have_equal_traces_and_actions():
    rels = cd_relations(1)
    terms = injective_upto(5)
    for u, v in rels:
        assert trace(u) == trace(v)
        for t in terms:
            assert apply_word(t, u) == apply_word(t, v)


def test_oracle_examples():
    assert oracle_equiv(X * (X * X), (X * X) * (X * X), 1) is Verdict.EQUIVALENT
    assert oracle_equiv(x1 * x2, x2 * x1, 4) is Verdict.NOT_EQUIVALENT
    assert oracle_equiv(x1, x1 * x1, 4) is Verdict.NOT_EQUIVALENT
    assert oracle_equiv(x1 * (x2 * x3), (x1 * x2) * (x1 * x3), 4) is Verdict.NOT_EQUIVALENT
    assert oracle_equiv(x1, x1, 0) is Verdict.EQUIVALENT
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


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
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
