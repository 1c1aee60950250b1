import json
import random
import sys

import pytest
from hypothesis import given

from cdcalc import (
    Leaf,
    Letter,
    Node,
    ParseError,
    apply_word,
    canonicalize,
    expansions,
    first_occurrences,
    parse_term,
    partial,
    partial_iter,
    project,
    render_term,
    right_comb,
    right_height,
    skeleton,
    substitute,
    trace,
    variables,
)
from cdcalc import terms
from cdcalc.cli import main
from cdcalc.terms import resolve, unify_into
from helpers import (
    empty_parse_table,
    injective_upto,
    is_canonical,
    is_injective,
    labeled_terms,
    labeled_upto,
    left_iter,
    match,
    mutate,
    one_var_upto,
    parse_outcome,
    random_term,
    reference_parse_term,
    terms_st,
    unify,
    words_st,
)

x1, x2, x3, x4 = Leaf(1), Leaf(2), Leaf(3), Leaf(4)


def test_parse_basics():
    assert parse_term("x1") == x1
    assert parse_term("(x1 (x2 x3))") == x1 * (x2 * x3)
    assert parse_term("  ( x1(x2   x3) ) ") == x1 * (x2 * x3)
    assert parse_term("x12").index == 12


VARIABLE = "variable must be 'x' followed by digits without leading zero"
TRAILING = "trailing input after complete term"
PARSE_ERRORS = {  # input: (message, position), trailing input failing where it starts
    "(x1": ("unclosed '('", 3),
    "x0": (VARIABLE, 0),
    "x01": (VARIABLE, 0),
    "()": ("'(...)' needs exactly 2 subterms, found 0", 1),
    "(x1 x2 x3)": ("'(...)' needs exactly 2 subterms, found 3", 9),
    "": ("empty input", 0),
    "x1 x2": (TRAILING, 3),
    "(x1 x2))": ("unmatched ')'", 7),
    "y1": ("unexpected character 'y'", 0),
    "(x1 x1) (x1 x1)": (TRAILING, 8),
    "x" + "1" * 5000: ("variable index has too many digits", 0),  # past int()'s 4300
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS),
                         ids=lambda bad: bad if len(bad) < 40 else f"{bad[:4]}...{len(bad)} chars")
def test_parse_errors(bad):
    message, position = PARSE_ERRORS[bad]
    with pytest.raises(ParseError) as err:
        parse_term(bad)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("(x1 y)", 4), ("  (x1 y)", 6), ("\t(x1 y)", 5), (" \t(x1 x0)", 6), ("  )", 2)])
def test_parse_term_error_positions_count_from_the_input(text, position):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert err.value.position == position


@pytest.mark.parametrize("text, message, position", [
    ("x\u00b2", "variable must be 'x' followed by digits", 0),   # superscript two
    ("x1\u00b2", "unexpected character", 2),
    ("x\u0661", "variable must be 'x' followed by digits", 0),   # Arabic-Indic one
    ("(x1 x\u2082)", "variable must be 'x' followed by digits", 4),  # subscript two
])
def test_parse_term_reads_only_ascii_digits(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert str(err.value).startswith(message)
    assert err.value.position == position


def test_cli_reports_a_non_ascii_digit_as_a_parse_error(capsys):
    assert main(["--json", "decide", "x\u00b2", "x1"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "variable must be 'x' followed by digits without leading zero (at position 0)"


# ideographic space, no-break space, next line: Unicode whitespace outside
# the grammar's ASCII set
UNICODE_SPACES = ["\u3000", "\u00a0", "\u0085"]


@pytest.mark.parametrize("space", UNICODE_SPACES, ids=["ideographic", "no-break", "next-line"])
def test_parse_term_reads_only_ascii_whitespace(space):
    for text, position in (("(x1" + space + "x2)", 3), (space + "x1", 0), ("x1" + space, 2)):
        with pytest.raises(ParseError) as err:
            parse_term(text)
        assert str(err.value) == f"unexpected character {space!r} (at position {position})"
    assert parse_term("(x1\tx2)") == parse_term("(x1\nx2)") == parse_term("\r\n(x1\x0b\x0cx2)\n")


def test_cli_reports_a_unicode_space_as_a_parse_error(capsys):
    assert main(["--json", "decide", "(x1\u3000x1)", "(x1 x1)"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "unexpected character '\\u3000' (at position 3)"


def test_parse_shares_equal_subterms():
    t = parse_term("((x1 x1) (x1 x1))")
    assert t.left is t.right
    assert t.left.left is t.left.right
    t = parse_term("((x1 (x2 x1)) ((x2 x1) (x3 x1)))")
    assert t.left.right is t.right.left
    assert t.left.left is t.left.right.right is t.right.right.right


def _subterms(t):
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if type(cur) is Node:
            stack += (cur.left, cur.right)


@given(terms_st)
def test_a_parse_holds_each_distinct_subterm_once(t):
    parsed = parse_term(render_term(t))
    subterms = list(_subterms(parsed))
    assert len({id(s) for s in subterms}) == len(set(subterms))


def test_two_parses_of_one_text_are_one_object(monkeypatch):
    # an empty table, so that it is not emptied between the two parses
    empty_parse_table(monkeypatch)
    for text in ("x1", "x12", "((x1 x2) (x1 x2))", " (x3\t(x1 x1)) "):
        assert parse_term(text) is parse_term(text)
    assert parse_term("x1") is terms.X
    assert parse_term("(x2 x1)").right is terms.X


def test_equal_subterms_of_two_texts_are_one_object(monkeypatch):
    empty_parse_table(monkeypatch)
    t = parse_term("((x1 x2) (x3 x4))")
    t2 = parse_term("(x5 ((x3 x4) (x1 x2)))")
    assert t2.right.left is t.right and t2.right.right is t.left
    assert parse_term("(x1  x2)") is t.left


def test_the_parse_table_keeps_its_ceiling(monkeypatch):
    # 2**15 products, in one parse and then in one that fails at its end
    text = render_term(right_comb(2**15))
    assert parse_term(text) == right_comb(2**15)
    assert len(terms._table) <= terms._MAX_ENTRIES
    with pytest.raises(ParseError, match="unmatched"):
        parse_term(text + ")")
    assert len(terms._table) <= terms._MAX_ENTRIES
    # failed parses count their characters: each of these stores only its
    # two leaves, one of a distinct 4,000-digit index, and 400 of them hold
    # more text than the bound
    empty_parse_table(monkeypatch)
    for k in range(1, 401):
        with pytest.raises(ParseError, match="unclosed"):
            parse_term(f"(x{k}{'0' * 4000} x1")
        assert sum(len(key) for key in terms._table if type(key) is str) <= terms._MAX_CHARS
    assert k * 4000 > terms._MAX_CHARS


def test_the_parse_table_keeps_its_character_bound():
    # 200 distinct 14-level doubling towers, t = t * t from Leaf(k), ~82 KB
    # of text but 16 entries each: held whole under the entry bound alone,
    # their texts would reach 20 MiB
    tower = Leaf(1)
    for _ in range(14):
        tower = tower * tower
    text = render_term(tower)
    for k in range(1, 201):
        t = parse_term(text.replace("x1", f"x{k}"))
        assert t.size == 2**14 and t.max_var == k
        held = sum(len(key) for key in terms._table if type(key) is str and key[0] == "(")
        assert held <= terms._MAX_CHARS


def test_parse_term_matches_the_per_call_reference():
    # valid texts with varied spacing, then each mutated by up to three
    # character edits, and a resample so that stored texts are read again
    rng = random.Random(40)
    texts = []
    for _ in range(600):
        text = render_term(random_term(rng, rng.randint(1, 12), rng.choice((1, 3, 12))))
        text = "".join(rng.choice((" ", "\t", "  ", "\n ")) if c == " " else c for c in text)
        texts.append(text)
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text, "()x0123 \t\u3000y")
            texts.append(text)
    texts += rng.sample(texts, 400)
    oks = 0
    for text in texts:
        got = parse_outcome(parse_term, text)
        assert got == parse_outcome(reference_parse_term, text), text
        oks += got[0] == "ok"
    assert 800 < oks < len(texts) - 800


def _assert_max_var(t):
    for s in _subterms(t):
        assert s.max_var == max(variables(s))


@given(terms_st, terms_st, words_st)
def test_max_var_is_the_largest_variable(t, t2, w):
    outputs = [t, parse_term(render_term(t)), project(t), canonicalize(t),
               substitute(t, {1: t2, 2: Leaf(7)}), partial(t)]
    subst = {}
    if unify_into(t, t2, subst):
        outputs.append(resolve(t, subst))
    image = apply_word(Node(t, right_comb(8)), w)
    if image is not None:
        outputs.append(image)
    for out in outputs:
        _assert_max_var(out)


def _walked_right_height(t):
    h = 0
    while type(t) is Node:
        t, h = t.right, h + 1
    return h


def _rewrites(t):
    """Every one-letter rewrite of t and its undoing, so letters of both signs."""
    for addr, _ in expansions(t):
        yield (Letter(addr, 1),)
        yield (Letter(addr, 1), Letter(addr, -1))


RIGHT_HEIGHT_BUILDERS = {
    "parse_term": lambda t: [parse_term(render_term(t))],
    "mul": lambda t: [t * t, t * x2, x3 * t],
    "apply_word": lambda t: [apply_word(t, w) for w in _rewrites(t)],
    "substitute": lambda t: [substitute(t, {1: x2 * x3, 2: Leaf(5)}), project(t), canonicalize(t)],
    "partial_iter": lambda t: [partial_iter(t, 2)],
    "expansions": lambda t: [e for _, e in expansions(t)],
    "trace": lambda t: [s for w in _rewrites(t) for s in trace(w)],
    "right_comb": lambda t: [right_comb(t.size)],
}


@pytest.mark.parametrize("build", RIGHT_HEIGHT_BUILDERS.values(), ids=RIGHT_HEIGHT_BUILDERS)
def test_stored_right_height_is_the_walked_one(build):
    for t in one_var_upto(6) + labeled_upto(3, 2):
        for out in build(t):
            for s in _subterms(out):
                assert s.right_height == right_height(s) == _walked_right_height(s)


def test_stored_right_height_on_deep_combs():
    deep = right_comb(100_000)
    assert deep.right_height == _walked_right_height(deep) == 99_999
    left = x1
    for _ in range(99_999):
        left = Node(left, x1)
    assert left.size == 100_000 and left.right_height == 1
    while type(left) is Node:
        assert left.right_height == _walked_right_height(left) == 1
        left = left.left
    assert left.right_height == 0


@pytest.mark.parametrize("bad", [0, -1, True, False, 1.0, "1"])
def test_leaf_index_is_a_positive_int(bad):
    # a bool would render as "xTrue", which parse_term rejects
    with pytest.raises(ValueError):
        Leaf(bad)


def test_terms_multiply_and_compare_only_with_terms():
    with pytest.raises(TypeError):
        Leaf(1) * 3
    assert (Leaf(1) == 3) is False
    t = right_comb(3000)
    assert (t == "x1") is False and t.__eq__("x1") is NotImplemented


def test_equality_compares_in_dag_size():
    # each pair of subterms is compared once per call, not once per path
    # to it: two towers a = Node(a, a) of 2^60 leaves, 61 objects each,
    # with no hash set before the first compares; c is b with its
    # leftmost leaf changed, which the walk reaches last
    a, b, c = Leaf(1), Leaf(1), Leaf(2)
    for _ in range(60):
        a, b, c = Node(a, a), Node(b, b), Node(c, b)
    assert a is not b and a == b
    assert c.size == a.size and a != c and c != a
    assert hash(a) == hash(b) and a == b and a != c


def _leaf_hash(i):
    return hash((False, i))


def test_hash_formula():
    assert hash(x1) == _leaf_hash(1)
    assert hash(x1 * x2) == hash((True, _leaf_hash(1), _leaf_hash(2)))
    h12 = hash((True, _leaf_hash(1), _leaf_hash(2)))
    h31 = hash((True, _leaf_hash(3), _leaf_hash(1)))
    t = parse_term("(((x1 x2) (x3 x1)) x2)")
    assert t._hash is None
    assert hash(t) == hash((True, hash((True, h12, h31)), _leaf_hash(2)))
    # the first hash stores those of every subterm on the way
    assert t.left._hash == hash((True, h12, h31)) and t.left.right._hash == h31


def test_deep_terms_hash_without_recursing():
    depth = 10**5
    left, right = x1, x1
    h_left = h_right = _leaf_hash(1)
    for _ in range(depth):
        left, right = Node(left, x2), Node(x2, right)
        h_left = hash((True, h_left, _leaf_hash(2)))
        h_right = hash((True, _leaf_hash(2), h_right))
    p = partial_iter(right_comb(6), 3)
    assert p.size == 16636 and p._hash is None
    expected = hash(parse_term(render_term(p)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        assert hash(left) == h_left and hash(right) == h_right
        assert hash(p) == expected
    finally:
        sys.setrecursionlimit(limit)


@given(terms_st)
def test_render_parse_roundtrip(t):
    # equal terms hash equal, here a fresh, unhashed parse against t
    parsed = parse_term(render_term(t))
    assert parsed == t and hash(parsed) == hash(t)


def test_size_and_height():
    assert x1.size == 1
    assert (x1 * (x2 * x3)).size == 3
    lemma_term = parse_term("(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))")
    assert lemma_term.size == 8
    assert right_height(x1) == 0
    assert right_height(x1 * (x1 * x1)) == 2
    assert right_height((x1 * x1) * x1) == 1


@given(terms_st, terms_st)
def test_size_height_recurrences(a, b):
    t = a * b
    assert t.size == a.size + b.size
    assert right_height(t) == right_height(b) + 1


def test_left_iter():
    assert left_iter((x1 * x2) * x3, 2) == x1
    t = x1 * (x2 * x3)
    assert left_iter(t, 0) == t
    assert left_iter(x1, 1) is None


def test_right_comb():
    assert right_comb(1) == x1
    assert right_comb(3) == x1 * (x1 * x1)
    for p in range(1, 11):
        assert right_comb(p).size == p
    with pytest.raises(ValueError):
        right_comb(0)


def test_skeleton_and_predicates():
    assert skeleton(x1 * x2) == skeleton(x2 * x1)
    assert skeleton(x1 * (x2 * x3)) != skeleton((x1 * x2) * x3)
    assert is_injective(x1 * (x2 * x3))
    assert not is_injective(x1 * x1)
    assert is_canonical((x1 * x2) * (x2 * x3))
    assert not is_canonical(x2 * x1)
    assert is_canonical(x1)
    assert canonicalize(x3 * (x2 * x3)) == x1 * (x2 * x1)
    assert project(x2 * (x3 * x1)) == x1 * (x1 * x1)


def _nested_shape(t):
    # the shape as nested pairs, () for a leaf: the reference for skeleton
    return () if type(t) is Leaf else (_nested_shape(t.left), _nested_shape(t.right))


@given(terms_st)
def test_skeleton_is_the_preorder_code(t):
    code = skeleton(t)
    assert isinstance(code, str) and len(code) == 2 * t.size - 1
    if type(t) is Leaf:
        assert code == "0"
    else:
        assert code == "1" + skeleton(t.left) + skeleton(t.right)
        assert code[2 * t.left.size:] == skeleton(t.right)


@given(terms_st, terms_st)
def test_skeletons_compare_as_nested_shapes(t, t2):
    a, b = skeleton(t), skeleton(t2)
    assert (a == b) == (_nested_shape(t) == _nested_shape(t2))
    assert (a < b) == (_nested_shape(t) < _nested_shape(t2))


def test_skeletons_sort_as_nested_shapes():
    # one-variable terms up to size 7 are all shapes up to size 7, each once
    shapes = one_var_upto(7)
    assert len({skeleton(t) for t in shapes}) == len(shapes)
    assert sorted(shapes, key=skeleton) == sorted(shapes, key=_nested_shape)


def test_first_occurrences_keeps_leftmost_order():
    def seen_set_order(t):  # the reference: a set of the indices met so far
        seen, out = set(), []
        for i in variables(t):
            if i not in seen:
                seen.add(i)
                out.append(i)
        return out
    assert first_occurrences(x3 * (x1 * (x3 * x2))) == [3, 1, 2]
    for t in labeled_upto(4, 3):
        assert first_occurrences(t) == seen_set_order(t), render_term(t)


def test_canonicalize_keeps_what_the_renaming_leaves_alone():
    t = parse_term("(x1 (x1 x1))")
    assert canonicalize(t) is t
    t = right_comb(3000)
    assert substitute(t, {}) is t and substitute(t, {2: x3}) is t
    for t in one_var_upto(5) + labeled_upto(4, 3):
        if is_canonical(t):
            assert canonicalize(t) is t
    t = parse_term("((x1 (x1 x1)) (x3 x2))")
    c = canonicalize(t)
    assert c == parse_term("((x1 (x1 x1)) (x2 x3))")
    assert c.left is t.left


def test_project_keeps_subterms_of_x1():
    for t in one_var_upto(6):
        assert project(t) is t
    t = parse_term("((x1 x1) (x2 ((x1 x1) x1)))")
    p = project(t)
    assert p == parse_term("((x1 x1) (x1 ((x1 x1) x1)))")
    assert p.left is t.left and p.right.right is t.right.right


def test_unify_examples():
    assert unify(x1, x2 * x3) == {1: x2 * x3}
    assert unify(x1 * x1, x2 * (x2 * x3)) is None  # occurs check
    h = unify((x1 * x2) * (x2 * x3), (x4 * x4) * (Leaf(5) * Leaf(6)))
    assert h is not None
    a = substitute((x1 * x2) * (x2 * x3), h)
    b = substitute((x4 * x4) * (Leaf(5) * Leaf(6)), h)
    assert a == b
    # the raw store: a variable is bound to the other side, whichever side
    # it stands on, and a variable against itself binds nothing
    subst = {}
    assert unify_into(x1, x2, subst) and subst == {1: x2}
    subst = {}
    assert unify_into(x2 * x3, x1, subst) and subst == {1: x2 * x3}
    subst = {}
    assert unify_into(Leaf(3), Leaf(3), subst) and subst == {}
    assert not unify_into(x1, x1 * x2, {})


def test_unify_reuses_subterms_without_bound_variables():
    t = (x2 * x3) * (x2 * (x3 * x4))
    assert unify(x1, t)[1] is t
    u = x3 * (x4 * x3)
    h = unify(x1 * x2, x2 * u)  # x1 -> x2 -> u
    assert h[1] is u and h[2] is u


@given(terms_st, terms_st)
def test_unify_is_unifier_and_idempotent(t, t2):
    h = unify(t, t2)
    if h is None:
        return
    assert substitute(t, h) == substitute(t2, h)
    for image in h.values():
        assert substitute(image, h) == image


def _brute_unifiers(t, t2):
    # ground both terms every possible way over tiny instantiations; exact
    # on the sizes used below
    small = labeled_terms(1, 2) + labeled_terms(2, 2)
    from itertools import product

    vs = sorted(set(variables(t)) | set(variables(t2)))
    found = []
    for images in product(small, repeat=len(vs)):
        m = dict(zip(vs, images))
        if substitute(t, m) == substitute(t2, m):
            found.append(m)
    return vs, found


def test_unify_agrees_with_brute_force_on_small_terms():
    pool = [t for t in injective_upto(3)] + [x1 * x1, x1 * (x2 * x1), (x1 * x1) * x2]
    for t in pool:
        for t2 in pool:
            h = unify(t, t2)
            vs, ground = _brute_unifiers(t, t2)
            assert (h is not None) == bool(ground), (render_term(t), render_term(t2))
            if h is None:
                continue
            # most general: every ground unifier factors through h
            for m in ground:
                for v in vs:
                    via_h = substitute(h.get(v, Leaf(v)), m)
                    assert via_h == m[v]


def test_match_is_one_way():
    assert match(x1, x2 * x3) == {1: x2 * x3}
    assert match(x1 * x1, (x2 * x3) * (x2 * x3)) == {1: x2 * x3}
    assert match(x1 * x1, (x2 * x3) * (x3 * x2)) is None
    assert match(x1 * x2, x3) is None


def test_deep_terms_do_not_recurse():
    deep = right_comb(5000)
    assert deep.size == 5000
    assert right_height(deep) == 4999
    left = deep
    for _ in range(3):
        left = Node(left, x1)
    assert parse_term(render_term(left)) == left
    assert left_iter(left, 3) == deep
    assert skeleton(deep) == "10" * 4999 + "0"
    assert hash(skeleton(left)) == hash("111" + skeleton(deep) + "000")
    assert deep == right_comb(5000)
    assert hash(deep) == hash(right_comb(5000))
