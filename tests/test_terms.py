import pytest
from hypothesis import given, strategies as st

from cdcalc import (
    Leaf,
    Node,
    ParseError,
    canonicalize,
    parse_term,
    project,
    render_term,
    replace,
    right_comb,
    right_height,
    size,
    skeleton,
    substitute,
    subterm,
    unify,
)
from helpers import (
    injective_upto,
    is_canonical,
    is_injective,
    labeled_terms,
    left_iter,
    match,
    terms_st,
)

x1, x2, x3, x4 = Leaf(1), Leaf(2), Leaf(3), Leaf(4)


def test_parse_basics():
    assert parse_term("x1") == x1
    assert parse_term("(x1 (x2 x3))") == x1 * (x2 * x3)
    assert parse_term("  ( x1(x2   x3) ) ") == x1 * (x2 * x3)
    assert parse_term("x12").index == 12


@pytest.mark.parametrize("bad", ["(x1", "x0", "x01", "()", "(x1 x2 x3)", "", "x1 x2", "(x1 x2))", "y1"])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_term(bad)
    assert err.value.position >= 0


@pytest.mark.parametrize("bad", [0, -1, True, False, 1.0, "1"])
def test_leaf_index_is_a_positive_int(bad):
    # a bool would render as "xTrue", which parse_term rejects
    with pytest.raises(ValueError):
        Leaf(bad)


@given(terms_st)
def test_render_parse_roundtrip(t):
    assert parse_term(render_term(t)) == t


def test_subterm():
    t = x1 * (x2 * x3)
    assert subterm(t, "1") == x2 * x3
    assert subterm(x1, "") == x1
    assert subterm(x1, "0") is None
    assert subterm(t, "10") == x2
    assert subterm(t, "100") is None


@given(terms_st, st.text(alphabet="01", max_size=3), st.text(alphabet="01", max_size=3))
def test_subterm_composes(t, a, b):
    ab = subterm(t, a + b)
    if ab is not None:
        assert ab == subterm(subterm(t, a), b)


def test_replace():
    assert replace(x1 * x2, "1", x3) == x1 * x3
    assert replace(x1, "", x2 * x3) == x2 * x3
    with pytest.raises(ValueError):
        replace(x1, "1", x2)


@given(terms_st, st.text(alphabet="01", max_size=3))
def test_replace_identity(t, a):
    s = subterm(t, a)
    if s is not None:
        assert replace(t, a, s) == t


def test_size_and_height():
    assert size(x1) == 1
    assert size(x1 * (x2 * x3)) == 3
    lemma_term = parse_term("(((x1 x2) (x2 x3)) ((x2 x3) (x3 x4)))")
    assert size(lemma_term) == 8
    assert right_height(x1) == 0
    assert right_height(x1 * (x1 * x1)) == 2
    assert right_height((x1 * x1) * x1) == 1


@given(terms_st, terms_st)
def test_size_height_recurrences(a, b):
    t = a * b
    assert size(t) == size(a) + size(b)
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
        assert size(right_comb(p)) == p
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


def test_unify_examples():
    assert unify(x1, x2 * x3) == {1: x2 * x3}
    assert unify(x1 * x1, x2 * (x2 * x3)) is None  # occurs check
    h = unify((x1 * x2) * (x2 * x3), (x4 * x4) * (Leaf(5) * Leaf(6)))
    assert h is not None
    a = substitute((x1 * x2) * (x2 * x3), h)
    b = substitute((x4 * x4) * (Leaf(5) * Leaf(6)), h)
    assert a == b


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
    from cdcalc import variables

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
    assert size(deep) == 5000
    assert right_height(deep) == 4999
    left = deep
    for _ in range(3):
        left = Node(left, x1)
    assert parse_term(render_term(left)) == left
    assert left_iter(left, 3) == deep
    assert skeleton(deep) is not None
    assert deep == right_comb(5000)
    assert hash(deep) == hash(right_comb(5000))
