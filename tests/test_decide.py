import json
import random
import sys
import time

import pytest

from cdcalc import (
    Classification,
    Comparison,
    Leaf,
    Letter,
    Node,
    StepBudgetExceeded,
    Verdict,
    apply_letter,
    canonicalize,
    chi,
    classify,
    compare,
    decide,
    dil,
    expansions,
    inverse,
    oracle_equiv,
    parse_term,
    parse_word,
    partial,
    redress,
    render_term,
    right_comb,
    same_spine,
    shift,
    spine_profile,
    star,
    variables,
)
from cdcalc.cli import main
from helpers import (
    X,
    cd_relations,
    is_expansion,
    labeled_terms,
    labeled_upto,
    left_iter,
    one_var_upto,
    random_term,
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
    calls = []

    def counting(w, budget=None):
        calls.append(w)
        return redress(w, budget=budget)

    monkeypatch.setattr(sys.modules["cdcalc.decide"], "redress", counting)
    for t in (parse_term(KNOWN_32[0]), partial(right_comb(6)), parse_term("(((x1 x2) x1) x3)")):
        assert decide(t, t) is True
    assert calls == []
    # one letter at the root keeps the right subterm, so only the top differs
    assert decide(x * (x * (x * x)), (x * x) * (x * (x * x))) is True
    assert decide(parse_term("(x1 (x2 x3))"), parse_term("((x1 x2) (x2 x3))")) is True
    assert len(calls) == 2


def test_a_budget_error_names_the_spine_level():
    # comb5 vs partial(comb5) differs at levels 0..2; they need 55, 17 and 4
    # redressing steps
    t, t2 = right_comb(5), partial(right_comb(5))
    with pytest.raises(StepBudgetExceeded) as err:
        decide(t, t2, budget=20)
    assert str(err.value) == (
        "redressing stopped at its budget after 20 steps; the word has 48 letters, the input "
        "had 55; at right-spine level 0 of 4, after 2 levels found P_zero")
    with pytest.raises(StepBudgetExceeded) as err:
        decide(t, t2, budget=0)
    assert str(err.value).endswith("; at right-spine level 2 of 4, after 0 levels found P_zero")
    assert decide(t, t2, budget=55) is True


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
    assert decide(t, t2, budget=10**4) is False
    assert main(["--json", "--budget", "10000", "decide", *R16_113]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": True, "result": False}


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
            assert (c is Comparison.EQUAL) == decide(t, t2)
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
