import json
import random
import sys
import time
from itertools import product

import pytest

from cdcalc import (
    CDLawViolation,
    Classification,
    Comparison,
    Leaf,
    Letter,
    MulTable,
    Node,
    Verdict,
    apply_letter,
    apply_word,
    cd_relations,
    check_free,
    chi,
    classify,
    compare,
    decide,
    decide_one_var,
    dil,
    enumerate_cd_tables,
    expansions,
    inverse,
    left_iter,
    oracle_equiv,
    parse_multable,
    parse_term,
    parse_word,
    pos_word,
    right_comb,
    same_spine,
    shift,
    spine_profile,
    star,
    variables,
)
from cdcalc.cli import main
from helpers import X, is_expansion, labeled_terms, labeled_upto, one_var_upto

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
        assert classify(prefix + (a, a.inverse()) + suffix) == classify(prefix + suffix)


def test_decide_one_var_examples():
    assert decide_one_var(x * (x * x), (x * x) * (x * x))
    assert not decide_one_var(x, x * x)
    for t in one_var_upto(4):
        assert decide_one_var(t, t)
    with pytest.raises(ValueError):
        decide_one_var(Leaf(2), Leaf(2))


def test_decide_examples():
    assert decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x2 x3))"))
    assert not decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x1 x3))"))
    assert decide(parse_term("x2"), parse_term("x2"))
    assert not decide(parse_term("x1"), parse_term("x2"))
    t = parse_term("(x1 (x2 (x3 x4)))")
    assert decide(t, parse_term("(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))"))


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


def test_known_32_leaf_pair_is_refuted_fast(capsys):
    t, t2 = (parse_term(s) for s in KNOWN_32)
    start = time.perf_counter()
    assert decide(t, t2) is False
    assert decide_one_var(t, t2) is False
    assert time.perf_counter() - start < 0.5
    assert main(["--json", "decide", *KNOWN_32]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": False}


def test_spine_reject_needs_no_redressing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("redress called on a spine-refutable pair")

    monkeypatch.setattr(sys.modules["cdcalc.decide"], "redress", refuse)
    assert decide(x * (x * x), x * x) is False
    assert decide(parse_term("(x1 x2)"), parse_term("(x2 x1)")) is False
    assert decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x2 x1))")) is False
    assert decide_one_var(x * (x * x), (x * x) * x) is False
    t, t2 = (parse_term(s) for s in KNOWN_32)
    assert decide(t, t2) is False and decide_one_var(t, t2) is False
    with pytest.raises(ValueError):
        decide_one_var(Leaf(2), Leaf(3))


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
        if nvars == 1:
            assert decide_one_var(t, walked)


def test_compare_examples():
    assert compare(x, x * x) is Comparison.LESS
    assert compare(x * x, x) is Comparison.GREATER
    for t in one_var_upto(4):
        assert compare(t, t) is Comparison.EQUAL
    with pytest.raises(ValueError):
        compare(Leaf(2), x)


def test_compare_trichotomy_and_transitivity():
    terms = one_var_upto(4)
    for t in terms:
        for t2 in terms:
            c, c2 = compare(t, t2), compare(t2, t)
            flips = {Comparison.LESS: Comparison.GREATER,
                     Comparison.GREATER: Comparison.LESS,
                     Comparison.EQUAL: Comparison.EQUAL}
            assert c2 is flips[c]
            assert (c is Comparison.EQUAL) == decide_one_var(t, t2)
    order = {Comparison.LESS: -1, Comparison.EQUAL: 0, Comparison.GREATER: 1}
    for a in terms:
        for b in terms:
            for c in terms:
                if compare(a, b) is Comparison.LESS and compare(b, c) is Comparison.LESS:
                    assert compare(a, c) is Comparison.LESS


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


def test_multable_parse_and_validation():
    m = parse_multable("2 0\n1 1\n1 1\n")
    assert m.n == 2 and m.generator == 0 and m.mul(0, 0) == 1
    with pytest.raises(ValueError):
        parse_multable("2 0\n0 0\n0 0\n")  # 1 is unreachable
    with pytest.raises(ValueError):
        parse_multable("2 0\n2 0\n0 0\n")  # entry out of range
    with pytest.raises(ValueError):
        parse_multable("2 3\n0 0\n0 0\n")  # generator out of range
    with pytest.raises(ValueError):
        parse_multable("2 0\n0 0\n")  # wrong row count


def test_check_free_examples():
    one = MulTable(1, 0, ((0,),))
    assert check_free(one) is False  # self loop
    bad = MulTable(2, 0, ((1, 1), (0, 0)))
    with pytest.raises(CDLawViolation) as err:
        check_free(bad)
    assert len(err.value.witness) == 3


def test_all_small_cd_tables_are_unfree():
    total = 0
    for n in range(1, 5):
        tables = enumerate_cd_tables(n)
        assert tables, f"no monogenic tables of size {n} found"
        for m in tables:
            assert check_free(m) is False
        total += len(tables)
    assert total > 200


def test_enumerated_tables_satisfy_the_law():
    for m in enumerate_cd_tables(3):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    bc = m.mul(b, c)
                    assert m.mul(a, bc) == m.mul(m.mul(a, b), bc)
