import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from cdcalc import (
    Classification,
    Leaf,
    Letter,
    Node,
    StepBudgetExceeded,
    Verdict,
    apply_letter,
    apply_word,
    canonicalize,
    chi,
    classify,
    compare,
    decide,
    delta,
    dil,
    expansions,
    inverse,
    normal_form,
    oracle_equiv,
    parse_term,
    parse_word,
    partial,
    project,
    redress,
    render_term,
    right_comb,
    right_height,
    same_spine,
    shift,
    spine_profile,
    star,
    substitute,
    variables,
)
from cdcalc.cli import main
from cdcalc.redress import DEFAULT_BUDGET, _reverse
from cdcalc.terms import _lex, _normal_forms
from helpers import (
    X,
    cd_relations,
    is_expansion,
    labeled_terms,
    labeled_upto,
    left_iter,
    one_var_upto,
    random_term,
    reference_chi,
    reference_decide,
    subterm,
    words_st,
)

x = X


def test_dil_values():
    assert dil(1, ()) == 1
    assert dil(1, parse_word("e")) == 2
    assert dil(1, parse_word("0")) == 1
    assert dil(3, parse_word("00")) == 4
    assert dil(2, parse_word("0.e")) == 4
    # a letter on the right spine never moves the left-iterate index
    assert dil(2, parse_word("1")) == 2
    assert dil(0, parse_word("e")) == 0
    with pytest.raises(ValueError):
        dil(-1, ())
    with pytest.raises(ValueError):
        dil(1, parse_word("-e"))


def test_dil_tracks_left_spine():
    # dil's one semantic job, checked against the action directly
    rng = random.Random(17)
    for t in one_var_upto(5):
        for _ in range(4):
            word, cur = [], t
            for _ in range(rng.randint(1, 3)):
                options = expansions(cur)
                if not options:
                    break
                a, cur = rng.choice(options)
                word.append(Letter(a, 1))
            u = tuple(word)
            for i in range(4):
                s = left_iter(t, i)
                if s is None:
                    continue
                target = left_iter(cur, dil(i, u))
                assert target is not None
                assert is_expansion(s, target)


def test_dil_invariant_under_relations():
    for u, v in cd_relations(2):
        for i in range(5):
            assert dil(i, u) == dil(i, v)


def test_classify_examples():
    assert classify(parse_word("e")) is Classification.P_PLUS
    assert classify(()) is Classification.P_ZERO
    assert classify(parse_word("-e")) is Classification.P_MINUS
    for w in (parse_word("0.01"), parse_word("00.-0"), parse_word("0.0.-00")):
        assert classify(shift("0", w)) is Classification.P_ZERO


@settings(max_examples=100, deadline=None)
@given(words_st)
def test_classify_reads_dil_of_the_redressed_fraction(w):
    fraction = redress(w)
    num, den = dil(1, fraction.num), dil(1, fraction.den)
    if num == den:
        expected = Classification.P_ZERO
    else:
        expected = Classification.P_PLUS if den < num else Classification.P_MINUS
    assert classify(w) is expected


def test_classification_invariant_under_relation_substitution():
    rng = random.Random(31)
    rels = cd_relations(1)
    addrs = ["", "0", "1", "00", "01", "10", "11"]
    for _ in range(200):
        prefix = tuple(Letter(rng.choice(addrs), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 2)))
        suffix = tuple(Letter(rng.choice(addrs), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 2)))
        u, v = rng.choice(rels)
        assert classify(prefix + u + suffix) == classify(prefix + v + suffix)
        a = Letter(rng.choice(addrs), 1)
        assert classify(prefix + (a,) + inverse((a,)) + suffix) == classify(prefix + suffix)


def _outcome(decision, t, t2, budget):
    try:
        return decision(t, t2, budget=budget)
    except StepBudgetExceeded as exc:
        return str(exc)


def _bottom_path(t):
    # the right heights of t, of its bottom factor s (the lowest node on its
    # right spine is s*x), of that factor's bottom factor, ... down to a leaf
    heights = []
    while type(t) is Node:
        h = right_height(t)
        heights.append(h)
        t = subterm(t, "1" * (h - 1) + "0")
    return tuple(heights)


def _path_refutes(t, t2):
    # decide's second check: one spine profile, two bottom paths
    return same_spine(t, t2) and _bottom_path(project(t)) != _bottom_path(project(t2))


def test_decide_matches_the_letter_path_reference():
    # the reference is the paper's level sweep, which redresses and
    # classifies words of letters through the public functions, and has no
    # bottom-path check: where that check refutes, the reference may run out
    # of budget first, but never says "yes".  Wherever the reference answers,
    # decide gives its verdict; decide reads no budget on one-variable pairs,
    # and these two-variable pairs redress within 5 steps, so it answers
    # every pair at both budgets
    terms = one_var_upto(6) + labeled_upto(3, 2)
    outcomes, references = set(), set()
    for budget in (DEFAULT_BUDGET, 5):
        for t in terms:
            for t2 in terms:
                outcome = _outcome(decide, t, t2, budget)
                reference = _outcome(reference_decide, t, t2, budget)
                if _path_refutes(t, t2):
                    assert outcome is False and reference is not True, (t, t2, budget)
                elif type(reference) is bool:
                    assert outcome == reference, (t, t2, budget)
                outcomes.add(outcome if type(outcome) is bool else "budget")
                references.add(reference if type(reference) is bool else "budget")
    assert outcomes == {True, False}
    assert references == {True, False, "budget"}


def test_the_bottom_path_refutes_only_inequivalent_pairs():
    terms = one_var_upto(7)
    refuted = 0
    for t in terms:
        for t2 in terms:
            if same_spine(t, t2) and _bottom_path(t) != _bottom_path(t2):
                assert reference_decide(t, t2) is False, (t, t2)
                refuted += 1
    assert refuted == 8620


def test_signed_walks_keep_the_bottom_path():
    # no letter applies at the lowest spine node s*x, one on the spine above
    # it keeps s*x literally, and any other that reaches s*x acts inside s
    rng = random.Random(28)
    steps = 0
    for _ in range(150):
        t = random_term(rng, rng.randint(4, 16), 1)
        path = _bottom_path(t)
        for _ in range(rng.randint(1, 8)):
            t = _signed_walk(rng, t, 1)
            assert _bottom_path(t) == path
            steps += 1
    assert steps > 500


def test_the_bottom_path_refutes_before_any_redressing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("redressing began on a pair whose bottom paths differ")

    monkeypatch.setattr(sys.modules["cdcalc.decide"], "_reverse", refuse)
    monkeypatch.setattr(sys.modules["cdcalc.decide"], "_difference", refuse)
    # bottom factors x1 and (x1 x1)
    assert decide(x * x, (x * x) * x) is False
    # one spine profile, and the projections are the pair above
    assert decide(parse_term("(x1 x2)"), parse_term("((x1 x1) x2)")) is False
    # a left comb has right height 1 at every step of its bottom path
    comb = x
    for _ in range(40):
        comb = comb * x
    assert decide(comb, comb * x) is False


def test_decide_one_variable_examples():
    assert decide(x * (x * x), (x * x) * (x * x))
    assert not decide(x, x * x)
    for t in one_var_upto(4):
        assert decide(t, t)


def test_decide_examples():
    assert decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x2 x3))"))
    assert not decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x1 x3))"))
    assert decide(parse_term("x2"), parse_term("x2"))
    assert not decide(parse_term("x1"), parse_term("x2"))
    t = parse_term("(x1 (x2 (x3 x4)))")
    assert decide(t, parse_term("(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))"))
    # one spine and one projection: no level is redressed, and the empty
    # fraction leaves the literal comparison
    assert not decide(parse_term("(((x1 x2) x1) x3)"), parse_term("(((x1 x2) x2) x3)"))


def test_decide_agrees_with_oracle_on_two_variable_terms():
    terms = labeled_upto(3, 2)
    for t in terms:
        for t2 in terms:
            v = oracle_equiv(t, t2, 8)
            assert v is not Verdict.UNKNOWN
            assert (v is Verdict.EQUIVALENT) == decide(t, t2)


# Two random 32-leaf one-variable terms, right heights 6 and 4, whose
# blueprint difference needs more than 10^6 redressing steps.
KNOWN_32 = (
    "(((x1 x1) ((x1 (((x1 x1) x1) ((x1 x1) x1))) x1)) ((((((x1 x1) ((x1 x1) x1)) "
    "(x1 (x1 x1))) x1) (x1 x1)) ((x1 x1) (x1 (((x1 (x1 x1)) ((x1 x1) x1)) (x1 x1))))))",
    "(((x1 x1) x1) (((((x1 x1) x1) (x1 (x1 x1))) (x1 ((x1 x1) x1))) (((x1 x1) x1) "
    "((((x1 x1) ((x1 x1) x1)) ((x1 ((x1 x1) (x1 (((x1 x1) x1) (x1 x1))))) x1)) x1))))",
)


def _naive_spine_profile(t):
    levels = [t]
    while type(levels[-1]) is Node:
        levels.append(levels[-1].right)
    return tuple(tuple(dict.fromkeys(variables(s))) for s in levels)


def test_spine_profile_matches_its_definition():
    terms = labeled_upto(4, 3)
    for t in terms:
        assert spine_profile(t) == _naive_spine_profile(t)
    for t in terms[:60]:
        for t2 in terms:
            assert same_spine(t, t2) == (_naive_spine_profile(t) == _naive_spine_profile(t2))


def _with_right_height(rng, h, nvars):
    # a term of right height h over x1..x_nvars, ending in x1 half the time
    t = Leaf(1 if rng.random() < 0.5 else rng.randint(1, nvars))
    for _ in range(h):
        t = Node(random_term(rng, rng.randint(1, 4), nvars), t)
    return t


def test_one_variable_shortcuts_agree_with_their_definitions():
    # same_spine answers one-variable pairs from max_var and project returns
    # a one-variable term as it is; check both against what they replace
    rng = random.Random(20)
    mixed = 0
    for _ in range(3000):
        h = rng.randint(0, 5)
        t = _with_right_height(rng, h, rng.randint(1, 3))
        t2 = _with_right_height(rng, h, rng.randint(1, 3))
        assert same_spine(t, t2) == (_naive_spine_profile(t) == _naive_spine_profile(t2))
        ends = {subterm(s, "1" * h).index for s in (t, t2)}
        if (t.max_var == 1) != (t2.max_var == 1) and ends == {1}:
            mixed += 1
        for s in (t, t2):
            p = project(s)
            assert p == substitute(s, {i: X for i in variables(s) if i != 1})
            assert (p is s) == (s.max_var == 1)
    assert mixed > 100


def test_spine_profile_on_deep_terms_does_not_recurse():
    n = 10**5
    left = Leaf(1)
    for i in range(1, n):
        left = Node(left, Leaf(i % 3 + 1))
    assert spine_profile(left) == ((1, 2, 3), (left.right.index,))
    right = right_comb(n)
    profile = spine_profile(right)
    assert len(profile) == n and set(profile) == {(1,)}
    assert not same_spine(right, Node(right, X))
    # multi-variable pairs of one right height compare whole profiles: the
    # last level is the rightmost variable, and level 0 the top's order
    x1, x2, x3 = Leaf(1), Leaf(2), Leaf(3)
    deep, deep2 = x3, x2
    for _ in range(n):
        deep, deep2 = Node(x1, deep), Node(x1, deep2)
    assert deep.right_height == deep2.right_height == n
    assert not same_spine(deep, deep2)
    assert same_spine(deep, deep)
    top, top2 = Node(Node(x2, x3), deep), Node(Node(x3, x2), deep)
    assert spine_profile(top)[1:] == spine_profile(top2)[1:]
    assert spine_profile(top)[0] == (2, 3, 1) and spine_profile(top2)[0] == (3, 2, 1)
    assert not same_spine(top, top2)


def test_known_32_leaf_pair_is_refuted_fast(capsys):
    t, t2 = (parse_term(s) for s in KNOWN_32)
    start = time.perf_counter()
    assert decide(t, t2) is False
    assert time.perf_counter() - start < 0.5
    assert main(["--json", "decide", *KNOWN_32]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": False}


def test_spine_reject_needs_no_redressing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("redress called on a spine-refutable pair")

    monkeypatch.setattr(sys.modules["cdcalc.decide"], "_reverse", refuse)
    assert decide(x * (x * x), x * x) is False
    assert decide(parse_term("(x1 x2)"), parse_term("(x2 x1)")) is False
    assert decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x2 x1))")) is False
    assert decide(x * (x * x), (x * x) * x) is False
    t, t2 = (parse_term(s) for s in KNOWN_32)
    assert decide(t, t2) is False


def _signed_walk(rng, t, length):
    # a random applicable word of signed letters, applied to t
    for _ in range(length):
        images = []
        stack = [("", t)]
        while stack:
            addr, cur = stack.pop()
            if type(cur) is Node:
                for sign in (1, -1):
                    image = apply_letter(t, Letter(addr, sign))
                    if image is not None:
                        images.append(image)
                stack.append((addr + "0", cur.left))
                stack.append((addr + "1", cur.right))
        if not images:
            break
        t = rng.choice(images)
    return t


def test_decide_holds_along_random_signed_walks():
    # the spine reject never fires on an equivalent pair
    rng = random.Random(59)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        t = rng.choice(labeled_terms(rng.randint(3, 6), nvars))
        walked = _signed_walk(rng, t, rng.randint(2, 6))
        assert same_spine(t, walked)
        assert decide(t, walked)


def test_decide_redresses_only_the_levels_that_differ(monkeypatch):
    # only a pair of several variables is redressed, once, at the top level,
    # and only when its projections differ
    calls = []

    def counting(w, budget):
        calls.append(w)
        return _reverse(w, budget)

    monkeypatch.setattr(sys.modules["cdcalc.decide"], "_reverse", counting)
    for t in (parse_term(KNOWN_32[0]), partial(right_comb(6)), parse_term("(((x1 x2) x1) x3)")):
        assert decide(t, t) is True
    assert calls == []
    # one letter at the root keeps the right subterm, so only the top differs
    assert decide(x * (x * (x * x)), (x * x) * (x * (x * x))) is True
    assert calls == []
    assert decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x2 x3))")) is True
    assert len(calls) == 1


def _never_reversed(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-variable pair was redressed")

    monkeypatch.setattr(sys.modules["cdcalc.decide"], "_reverse", refuse)


def test_a_budget_error_names_the_spine_level(monkeypatch):
    # comb5 vs partial(comb5) differs at levels 0..2; the reference sweep
    # needs 55, 17 and 4 redressing steps there, and decide none
    t, t2 = right_comb(5), partial(right_comb(5))
    with pytest.raises(StepBudgetExceeded) as err:
        reference_decide(t, t2, budget=20)
    stopped = ("redressing stopped at its budget after 20 steps; the word has 48 letters, the "
               "input had 55")
    assert str(err.value) == stopped + "; at right-spine level 0 of 4, after 2 levels found P_zero"
    with pytest.raises(StepBudgetExceeded) as err:
        reference_decide(t, t2, budget=0)
    assert str(err.value).endswith("; at right-spine level 2 of 4, after 0 levels found P_zero")
    assert reference_decide(t, t2, budget=55) is True
    # with x2 for its rightmost leaf, the comb is a pair of two variables
    # whose projections are the pair above: decide redresses their top level
    # alone, with the same progress
    u = parse_term("(x1 (x1 (x1 (x1 x2))))")
    u2 = apply_word(u, delta(t))
    assert project(u2) == t2
    with pytest.raises(StepBudgetExceeded) as err:
        decide(u, u2, budget=20)
    assert str(err.value) == stopped + "; at the top level, whose projections have one normal form"
    assert decide(u, u2, budget=55) is True
    _never_reversed(monkeypatch)
    assert decide(t, t2, budget=0) is True


def test_each_level_redresses_its_blueprint_difference(monkeypatch):
    # in the reference sweep, from the deepest level that differs up, level
    # k hands redress chi(q_k)^-1.chi(q2_k) as `reference_chi` builds it,
    # until a level refutes or the top passes; decide answers each pair
    # with the same verdict at budget 0, redressing nothing
    calls = []

    def recording(w, budget):
        calls.append(tuple(w))
        return redress(w, budget)

    monkeypatch.setattr(sys.modules["helpers"], "redress", recording)
    _never_reversed(monkeypatch)
    rng = random.Random(43)
    pairs = [(t, t2) for t in one_var_upto(7) for t2 in one_var_upto(7)]
    pairs += [(random_term(rng, n, 1), random_term(rng, n, 1))
              for n in (8, 12, 16) for _ in range(40)]
    seen = 0
    for t, t2 in pairs:
        if not same_spine(t, t2):
            continue
        calls.clear()
        verdict = reference_decide(t, t2)
        assert decide(t, t2, budget=0) is verdict
        if _bottom_path(t) != _bottom_path(t2):
            assert verdict is False
            continue
        levels, levels2 = [t], [t2]
        while type(levels[-1]) is Node:
            levels.append(levels[-1].right)
            levels2.append(levels2[-1].right)
        expected = [inverse(reference_chi(q)) + reference_chi(q2)
                    for q, q2 in zip(levels, levels2) if q != q2][::-1]
        assert calls == expected[:len(calls)]
        assert len(calls) == len(expected) or not verdict
        seen += len(calls)
    assert seen > 1000


def test_decide_agrees_with_the_oracle_on_random_same_spine_pairs():
    # a third of the pairs are signed walks, the rest random terms of one
    # size and spine profile
    rng = random.Random(61)
    settled = {Verdict.EQUIVALENT: 0, Verdict.NOT_EQUIVALENT: 0}
    pairs = 0
    while pairs < 300:
        n, nvars = rng.randint(6, 12), rng.randint(1, 3)
        t = canonicalize(random_term(rng, n, nvars))
        if pairs % 3 == 0:
            t2 = _signed_walk(rng, t, rng.randint(1, 3))
        else:
            t2 = canonicalize(random_term(rng, n, nvars))
            if not same_spine(t, t2):
                continue
        pairs += 1
        verdict = oracle_equiv(t, t2, 2)
        if verdict is not Verdict.UNKNOWN:
            settled[verdict] += 1
            assert (verdict is Verdict.EQUIVALENT) == decide(t, t2), (render_term(t), render_term(t2))
    assert min(settled.values()) >= 80


# Pair r16-113 of the seed-61 decide-random benchmark corpus: one spine, and
# a blueprint difference past 10^4 redressing steps; level 1 refutes it.
R16_113 = (
    "((x1 ((x1 x1) x1)) ((x1 (x1 (x1 ((x1 (x1 x1)) ((x1 x1) x1))))) ((x1 x1) x1)))",
    "((x1 x1) ((((x1 x1) ((x1 (x1 x1)) x1)) x1) (((x1 (x1 x1)) (x1 (x1 x1))) x1)))",
)


def test_a_lower_level_refutes_past_the_top_level_budget(capsys):
    t, t2 = (parse_term(s) for s in R16_113)
    assert same_spine(t, t2)
    with pytest.raises(StepBudgetExceeded):
        redress(inverse(chi(t)) + chi(t2), budget=10**4)
    assert reference_decide(t, t2, budget=10**4) is False
    assert decide(t, t2, budget=10**4) is False
    assert main(["--json", "--budget", "10000", "decide", *R16_113]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": False}


# Pair r24-86 of the seed-61 decide-random benchmark corpus: levels 3 to 1
# pass and level 0 needs more than 10^4 redressing steps.
R24_86 = (
    "((((x1 x1) (x1 x1)) x1) (((((x1 x1) x1) (x1 (((x1 x1) x1) ((x1 x1) x1)))) "
    "(((x1 x1) x1) x1)) (x1 (x1 (x1 (x1 x1))))))",
    "(x1 (((x1 (((x1 (x1 x1)) ((x1 x1) (x1 x1))) (((x1 x1) x1) (x1 x1)))) x1) "
    "((x1 x1) ((((x1 x1) x1) x1) (x1 (x1 x1))))))",
)


def test_budget_errors_report_the_same_progress(monkeypatch):
    t, t2 = (parse_term(s) for s in R24_86)
    stopped = ("redressing stopped at its budget after 10000 steps; the word has 574 letters, "
               "the input had 335")
    with pytest.raises(StepBudgetExceeded) as err:
        reference_decide(t, t2, budget=10**4)
    assert str(err.value) == stopped + "; at right-spine level 0 of 6, after 3 levels found P_zero"
    with pytest.raises(StepBudgetExceeded) as err:
        compare(t, t2, budget=10**4)
    assert str(err.value) == stopped
    _never_reversed(monkeypatch)
    assert decide(t, t2, budget=0) is True


# Pairs r24-96 and r24-56 of the seed-61 decide-random benchmark corpus.
# With r24-86 they are labelled "?" there, since the oracle leaves them
# Unknown, and they take most of that corpus's query time.
R24_96 = (
    "(((((x1 (x1 x1)) (x1 (x1 x1))) x1) ((x1 x1) ((x1 x1) (x1 x1)))) "
    "(((x1 x1) (x1 x1)) (x1 ((x1 x1) ((x1 x1) (x1 x1))))))",
    "((x1 (x1 ((((x1 (x1 (x1 x1))) x1) (x1 (x1 x1))) x1))) "
    "(((x1 x1) (x1 (x1 x1))) ((x1 (x1 x1)) ((x1 x1) (x1 (x1 x1))))))",
)
R24_56 = (
    "((x1 (((x1 x1) (x1 x1)) (x1 (x1 x1)))) "
    "((((x1 (x1 (x1 x1))) x1) (((x1 x1) x1) (x1 x1))) ((x1 x1) ((x1 x1) (x1 x1)))))",
    "((((x1 (x1 (x1 (x1 x1)))) (((x1 x1) x1) (x1 x1))) ((x1 x1) ((x1 (x1 x1)) x1))) "
    "(((x1 x1) x1) ((x1 x1) (x1 (x1 x1)))))",
)


def _decided_at_its_edge(t, t2, edge):
    """The reference sweep says True at budget `edge`, the most steps any
    one level needs, and runs out of budget one step below it; the top
    level's fraction, redressed within `edge` steps, takes both
    comb-extended terms to one term.  decide says True at budget 0, by the
    normal forms, redressing nothing."""
    assert reference_decide(t, t2, budget=edge) is True
    with pytest.raises(StepBudgetExceeded):
        reference_decide(t, t2, budget=edge - 1)
    fraction = redress(inverse(chi(t)) + chi(t2), budget=edge)
    comb = right_comb(max(t.size, t2.size))
    a, b = apply_word(Node(t, comb), fraction.num), apply_word(Node(t2, comb), fraction.den)
    assert a is not None and a == b
    with pytest.MonkeyPatch.context() as monkeypatch:
        _never_reversed(monkeypatch)
        assert decide(t, t2, budget=0) is True


@pytest.mark.parametrize("pair, edge", [(R24_86, 14_806), (R24_96, 7_473), (R24_56, 1_097)],
                         ids=["r24-86", "r24-96", "r24-56"])
def test_the_heaviest_unlabelled_corpus_pairs_are_equivalent(pair, edge):
    # r24-86 was the corpus's budget failure at 10^4 steps, when decide ran
    # the sweep
    _decided_at_its_edge(*map(parse_term, pair), edge)


@pytest.mark.parametrize("p, edge", zip(range(3, 10), (4, 17, 55, 154, 409, 1_086, 2_954)))
def test_a_comb_and_its_partial_are_equivalent_at_their_budget_edge(p, edge):
    _decided_at_its_edge(right_comb(p), partial(right_comb(p)), edge)


def test_a_deep_left_comb_decides_in_linear_memory():
    # a 100,000-leaf left comb: its blueprint is 99,999 root letters, and
    # every prefix of it stays unbuilt, so 512 MiB of address space suffice.
    # t and t*x differ on the bottom path and are refuted unredressed.  The
    # second pair is one rewrite apart, and its normal forms absorb all
    # 99,999 children of t.  The third is that pair with x2 for the last
    # leaf, so its 200,005-letter difference is redressed and the
    # certificate built
    code = (
        "from cdcalc import Leaf, Node, chi, decide\n"
        "x, y = Leaf(1), Leaf(2)\n"
        "t = x\n"
        "for _ in range(99_999):\n"
        "    t = Node(t, x)\n"
        "assert decide(t, Node(t, x)) is False\n"
        "assert decide(Node(t, x * x), Node(Node(t, x), x * x)) is True\n"
        "assert decide(Node(t, x * y), Node(Node(t, x), x * y)) is True\n"
        "assert len(chi(t)) == 99_999\n"
    )
    ceiling = 512 * 2**20
    src = str(Path(sys.modules["cdcalc"].__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_normal_forms_match_the_reference_and_compare():
    # equal normal forms exactly where the reference sweep says "yes", and
    # `_lex` of the normal forms in the order of `compare`
    terms = one_var_upto(6)
    forms = _normal_forms(terms)
    memo = {}
    sign = {Classification.P_PLUS: -1, Classification.P_ZERO: 0, Classification.P_MINUS: 1}
    for t, n in zip(terms, forms):
        for t2, n2 in zip(terms, forms):
            assert (n is n2) is reference_decide(t, t2), (t, t2)
            assert _lex(n, n2, memo) == sign[compare(t, t2)], (t, t2)
    assert len(set(map(id, forms))) == 20 + 9 + 4 + 2 + 1 + 1


@pytest.mark.parametrize("p", range(3, 23))
def test_a_comb_and_its_partial_are_equivalent_at_budget_zero(monkeypatch, p):
    # partial(comb_22) has 2^21 leaves, but a DAG of a few hundred nodes,
    # and the normal forms cost the DAG's size
    _never_reversed(monkeypatch)
    assert decide(right_comb(p), partial(right_comb(p), max_size=1 << 22), budget=0) is True


def test_normal_forms_of_deep_combs_do_not_recurse():
    # a 100,000-leaf left comb and a 100,000-leaf right comb are their own
    # normal forms; so is the left comb's left factor, which the second
    # pair absorbs whole
    n = 10**5
    left = X
    for _ in range(n - 1):
        left = Node(left, X)
    right = right_comb(n)
    assert normal_form(left) is left
    assert normal_form(right) is right
    assert normal_form(Node(left, X * X)) == X * (X * X)


def test_compare_examples():
    assert compare(x, x * x) is Classification.P_PLUS
    assert compare(x * x, x) is Classification.P_MINUS
    for t in one_var_upto(4):
        assert compare(t, t) is Classification.P_ZERO
    with pytest.raises(ValueError):
        compare(Leaf(2), x)


def test_compare_trichotomy_and_transitivity():
    terms = one_var_upto(4)
    for t in terms:
        for t2 in terms:
            c, c2 = compare(t, t2), compare(t2, t)
            flips = {Classification.P_PLUS: Classification.P_MINUS,
                     Classification.P_MINUS: Classification.P_PLUS,
                     Classification.P_ZERO: Classification.P_ZERO}
            assert c2 is flips[c]
            assert (c is Classification.P_ZERO) == decide(t, t2)
    for a in terms:
        for b in terms:
            for c in terms:
                if compare(a, b) is Classification.P_PLUS and compare(b, c) is Classification.P_PLUS:
                    assert compare(a, c) is Classification.P_PLUS


def test_left_divisors_are_strictly_smaller():
    # irreflexivity: a term is never equivalent to a proper iterated left
    # subterm of any of its expansions
    from cdcalc import iter_expansions

    for t in one_var_upto(5):
        for _, e in iter_expansions(t, 2):
            s = e
            while True:
                nxt = left_iter(s, 1)
                if nxt is None:
                    break
                s = nxt
                assert not decide(t, s)


def test_p_set_closure():
    rng = random.Random(41)
    addrs = ["", "0", "1", "01", "10"]
    words = [tuple(Letter(rng.choice(addrs), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 3))) for _ in range(300)]
    plus = [w for w in words if classify(w) is Classification.P_PLUS][:20]
    zero = [w for w in words if classify(w) is Classification.P_ZERO][:20]
    for a in plus:
        for b in plus:
            assert classify(a + b) is Classification.P_PLUS
        for z in zero:
            assert classify(a + z) is Classification.P_PLUS
            assert classify(z + a) is Classification.P_PLUS


def test_star_makes_elements_strictly_larger():
    rng = random.Random(43)
    addrs = ["", "0", "1", "11"]
    for _ in range(60):
        u = tuple(Letter(rng.choice(addrs), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 2)))
        v = tuple(Letter(rng.choice(addrs), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 2)))
        assert classify(inverse(u) + star(u, v)) is Classification.P_PLUS


def _law_violation(table, n):
    """The first triple (x, y, z) with x(yz) != (xy)(yz) in an n x n table,
    or None.  An unfilled cell (None) violates nothing."""
    r = range(n)
    for x in r:
        for y in r:
            xy = table[x][y]
            if xy is None:
                continue
            for z in r:
                yz = table[y][z]
                if yz is None:
                    continue
                a, b = table[x][yz], table[xy][yz]
                if a is not None and b is not None and a != b:
                    return x, y, z
    return None


def enumerate_cd_tables(n):
    """Exhaustively search the monogenic multiplication tables of size
    exactly n that satisfy the law, one representative per isomorphism
    class (generator 0, elements numbered in discovery order), as tuples
    of rows."""
    table = [[None] * n for _ in range(n)]
    out = []

    def next_cell(k):
        for i in range(k):
            for j in range(k):
                if table[i][j] is None:
                    return i, j
        return None

    def search(k):
        cell = next_cell(k)
        if cell is None:
            if k == n:
                out.append(tuple(tuple(row) for row in table))
            return
        i, j = cell
        limit = k + 1 if k < n else k
        for v in range(limit):
            table[i][j] = v
            if _law_violation(table, n) is None:
                search(k + 1 if v == k else k)
            table[i][j] = None

    search(1)
    return out


def test_finite_monogenic_models_exist():
    # the law has finite monogenic models; none is free, since left division
    # is acyclic in the free rank-1 system (see
    # test_left_divisors_are_strictly_smaller) and a walk a, a*g, (a*g)*g,
    # ... in a finite table must cycle
    total = 0
    for n in range(1, 5):
        tables = enumerate_cd_tables(n)
        assert tables, f"no monogenic tables of size {n} found"
        total += len(tables)
    assert total > 200


def test_enumerated_tables_satisfy_the_law():
    for m in enumerate_cd_tables(3):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    bc = m[b][c]
                    assert m[a][bc] == m[m[a][b]][bc]
