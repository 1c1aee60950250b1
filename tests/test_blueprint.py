import random

import pytest
from hypothesis import given, settings

from cdcalc import (
    Leaf,
    Letter,
    Node,
    apply_word,
    chi,
    group_equiv,
    inverse,
    parse_word,
    pos_word,
    render_word,
    right_comb,
    shift,
    star,
    trace,
)
from cdcalc.blueprint import _emit
from helpers import X, cd_relations, one_var_term_st, one_var_upto, random_term, reference_chi

x = X


def test_chi_examples():
    assert chi(x) == ()
    assert render_word(chi(x * x)) == "e"
    assert render_word(chi(x * (x * x))) == "1.e.-1"
    assert render_word(chi((x * x) * x)) == "e.e"
    with pytest.raises(ValueError):
        chi(Leaf(2))
    with pytest.raises(ValueError):
        chi(x * Leaf(2))


def test_one_variable_errors_name_the_whole_term():
    t = (x * x) * (x * Leaf(2))
    with pytest.raises(ValueError) as err:
        chi(t)
    assert str(err.value) == "one-variable term required (all leaves x1): ((x1 x1) (x1 x2))"


def _one_var_cases():
    rng = random.Random(41)
    return one_var_upto(7) + [random_term(rng, rng.randint(1, 40), 1) for _ in range(300)]


def test_chi_matches_the_star_reference():
    # letter for letter, in both directions of the emission; _emit pushes
    # plain pairs, which chi alone makes Letters
    for t in _one_var_cases():
        expected = reference_chi(t)
        assert chi(t) == expected
        out = []
        _emit(t, -1, out)
        assert all(type(pair) is tuple for pair in out)
        assert tuple(out) == inverse(expected)


def test_star_examples():
    assert render_word(star((), ())) == "e"
    assert render_word(star((), parse_word("e"))) == "1.e.-1"
    assert star((), parse_word("e")) == chi(x * (x * x))


def test_chi_is_star_homomorphism():
    for t in one_var_upto(6):
        for t2 in one_var_upto(3):
            assert chi(t * t2) == star(chi(t), chi(t2))


def blueprint_action_check(t):
    """The blueprint of t maps x^[p+1] to t*x^[p] with p = size(t)."""
    p = t.size
    return apply_word(right_comb(p + 1), chi(t)) == Node(t, right_comb(p))


def test_blueprint_action_small():
    assert blueprint_action_check(x)
    assert blueprint_action_check(x * x)
    assert blueprint_action_check((x * (x * x)) * x)


@settings(max_examples=30, deadline=None)
@given(one_var_term_st)
def test_blueprint_action_random(t):
    assert blueprint_action_check(t)


def _applicable_positive_words(t, max_len, rng, tries):
    from cdcalc import Letter, expansions

    for _ in range(tries):
        word, cur = [], t
        for _ in range(rng.randint(1, max_len)):
            options = expansions(cur)
            if not options:
                break
            a, cur = rng.choice(options)
            word.append(Letter(a, 1))
        if word:
            yield tuple(word), cur


def test_blueprints_transport_along_rewrites():
    # chi picks up the applied word shifted under 0
    rng = random.Random(3)
    for t in one_var_upto(5):
        for w, t2 in _applicable_positive_words(t, 2, rng, 3):
            assert group_equiv(chi(t2), chi(t) + shift("0", w))


def test_chi_transport_single_negative_letter():
    from cdcalc import Letter, apply_letter, expansions

    for t in one_var_upto(5):
        for a, t2 in expansions(t):
            w = (Letter(a, -1),)
            assert apply_letter(t2, w[0]) == t
            assert group_equiv(chi(t), chi(t2) + shift("0", w))


def _random_words(rng, count, max_len=2):
    addrs = ["", "0", "1", "00", "01", "10", "11"]
    for _ in range(count):
        yield tuple(
            Letter(rng.choice(addrs), rng.choice((1, -1)))
            for _ in range(rng.randint(0, max_len)))


def test_star_group_identities():
    rng = random.Random(23)
    ws = list(_random_words(rng, 40))
    zero = pos_word(["0"])
    for i in range(0, 36, 3):
        u, v, w = ws[i], ws[i + 1], ws[i + 2]
        assert group_equiv(star(star(u, v), star(v, w)), star(u, star(v, w)) + zero)
        assert group_equiv(star(u + shift("0", w), v), star(u, v) + shift("00", w))
        assert group_equiv(star(u, v + shift("0", w)), star(u, v) + shift("01", w))


def test_positive_word_equivalence_matches_traces_via_group():
    # for positive words, group equivalence coincides with operator equality
    rng = random.Random(9)
    addrs = ["", "0", "1", "10"]
    for u, v in cd_relations(1)[:40]:
        assert group_equiv(u, v)
    for _ in range(60):
        u = pos_word(rng.choices(addrs, k=rng.randint(0, 3)))
        v = pos_word(rng.choices(addrs, k=rng.randint(0, 3)))
        assert group_equiv(u, v) == (trace(u) == trace(v))
