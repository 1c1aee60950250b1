from itertools import product

import pytest

from cdcalc import (
    Leaf,
    Letter,
    SizeLimitExceeded,
    alpha_power,
    apply_letter,
    apply_word,
    delta,
    delta_bound,
    delta_left_factor,
    delta_transport,
    expansions,
    lcm,
    parse_word,
    partial,
    partial_iter,
    pos_equiv,
    pos_word,
    render_word,
    right_height,
    shift,
    subterm,
)
from helpers import X, is_expansion, labeled_upto, one_var_upto

x = X


def test_alpha_power():
    assert alpha_power("", 0) == ()
    assert alpha_power("", -2) == ()
    assert render_word(alpha_power("", 2)) == "1.e"
    assert render_word(alpha_power("0", 2)) == "01.0"
    assert render_word(alpha_power("", 4)) == "111.11.1.e"


def test_delta_examples():
    assert delta(x) == ()
    assert render_word(delta(x * (x * x))) == "e"
    assert render_word(delta(x * (x * (x * x)))) == "1.e.0"
    # right height 1 does not force an empty word: the left factor recurses
    assert delta(x * x) == ()
    assert delta((x * x) * x) == ()
    assert render_word(delta((x * (x * x)) * x)) == "0"
    # (x(xx))(xx) has right height 2, so the head is phi^(1) = e, spreading
    # it to ((x(xx))x)(xx): s0 = (x(xx))x and s1 = x.  delta(s0) = 0 shifted
    # under 0 gives 00 and delta(s1) is empty, so delta = e.00.
    t = (x * (x * x)) * (x * x)
    assert render_word(delta(t)) == "e.00"
    for s in (x * (x * x), x * (x * (x * x)), (x * (x * x)) * x, t):
        assert apply_word(s, delta(s)) is not None
    # e and 0 are the letters that apply to t; both left-divide delta(t)
    assert pos_equiv(delta(t), parse_word("0.e"))
    assert pos_equiv(delta(t), lcm(pos_word([""]), pos_word(["0"])))


def _reference_delta(t):
    # the docstring's definition, spreading the term with apply_word
    h = right_height(t)
    if h == 0:
        return ()
    head = alpha_power("", h - 1)
    spread = apply_word(t, head)
    out = head
    for i in range(h):
        out += shift("1" * i + "0", _reference_delta(subterm(spread, "1" * i + "0")))
    return out


def test_delta_matches_its_definition():
    for t in labeled_upto(5, 2):
        assert delta(t) == _reference_delta(t)


def test_delta_total_on_small_terms():
    for t in one_var_upto(8):
        assert apply_word(t, delta(t)) is not None


def test_partial_examples():
    assert partial(x) == x
    assert partial(x * (x * x)) == (x * x) * (x * x)
    big = partial(x * (x * (x * x)))
    quad = (x * x) * (x * x)
    assert big == quad * quad
    assert partial_iter(x * (x * x), 0) == x * (x * x)
    assert partial_iter(x * (x * x), 2) == partial(partial(x * (x * x)))


def test_partial_size_ceiling():
    with pytest.raises(SizeLimitExceeded):
        partial_iter(x * (x * (x * (x * x))), 6, max_size=500)
    with pytest.raises(ValueError):
        partial_iter(x, -1)


def test_delta_size_ceiling():
    # delta raises only where partial would, so a ceiling of size(partial t)
    # leaves it as it was
    for t in one_var_upto(6):
        assert delta(t, max_size=partial(t).size) == delta(t)
    with pytest.raises(SizeLimitExceeded):
        delta(partial(x * (x * (x * (x * x)))), max_size=20)


def test_delta_left_factor():
    assert delta_left_factor(x * (x * x), "") == ()
    v = delta_left_factor(x * (x * (x * x)), "1")
    assert pos_equiv(pos_word(["1"]) + v, parse_word("1.e.0"))
    assert pos_equiv(v, parse_word("e.0"))
    with pytest.raises(ValueError):
        delta_left_factor(x * x, "")


def test_delta_left_factor_postcondition_sweep():
    for t in one_var_upto(6):
        for alpha, _ in expansions(t):
            v = delta_left_factor(t, alpha)
            assert pos_equiv(pos_word([alpha]) + v, delta(t))


def test_delta_transport():
    t = x * (x * x)
    u2 = delta_transport(t, ())
    assert pos_equiv(u2, ())
    u2 = delta_transport(t, pos_word([""]))
    t2 = (x * x) * (x * x)
    assert pos_equiv(pos_word([""]) + delta(t2), delta(t) + u2)
    with pytest.raises(ValueError):
        delta_transport(x, pos_word([""]))


def _applicable_words(t, length):
    if length == 0:
        yield ()
        return
    for a, image in expansions(t):
        for rest in _applicable_words(image, length - 1):
            yield (Letter(a, 1),) + rest


def test_delta_transport_postcondition_sweep():
    for t in one_var_upto(5):
        for u in _applicable_words(t, 2):
            t2 = apply_word(t, u)
            u2 = delta_transport(t, u)
            assert pos_equiv(u + delta(t2), delta(t) + u2)


def test_delta_bound():
    assert delta_bound(x, ()) == ()
    t = x * (x * (x * x))
    v = delta_bound(t, pos_word(["1"]))
    assert pos_equiv(pos_word(["1"]) + v, delta(t))
    u = pos_word(["1", ""])
    assert apply_word(t, u) is not None
    v = delta_bound(t, u)
    prod = delta(t) + delta(partial(t))
    assert pos_equiv(u + v, prod)


def test_monotone_transport():
    # an expansion step carries partial(t) to an expansion of itself
    for t in one_var_upto(5):
        pt = partial(t)
        for _, t2 in expansions(t):
            assert is_expansion(pt, partial(t2))


def test_power_commutation_identities():
    # (2.1): 1^p . phi^(r)  ==  phi^(r) . 01^p . 101^(p-1) ... 1^p 0
    for r in range(2, 5):
        for p in range(0, r - 1):
            lhs = pos_word(["1" * p]) + alpha_power("", r)
            rhs = alpha_power("", r) + pos_word(
                "1" * j + "0" + "1" * (p - j) for j in range(p + 1))
            assert pos_equiv(lhs, rhs), (p, r)


def test_shifted_zero_commutation_identities():
    singles = ["", "0", "1"]
    # (2.2): 1^q 0u . phi^(r)  ==  phi^(r) . 01^q 0u ... 1^q 00u
    for r in range(1, 5):
        for q in range(0, r):
            for u in singles:
                lhs = pos_word(["1" * q + "0" + u]) + alpha_power("", r)
                rhs = alpha_power("", r) + pos_word(
                    "1" * j + "0" + "1" * (q - j) + "0" + u for j in range(q + 1))
                assert pos_equiv(lhs, rhs), (q, r, u)
    # (2.3): 1^r 0u . phi^(r)  ==  phi^(r) . 01^r u ... 1^(r-1) 01u . 1^r 0u
    for r in range(0, 5):
        for u in singles:
            lhs = pos_word(["1" * r + "0" + u]) + alpha_power("", r)
            rhs = alpha_power("", r) + pos_word(
                "1" * j + "0" + "1" * (r - j) + u for j in range(r + 1))
            assert pos_equiv(lhs, rhs), (r, u)


def test_power_product_identity():
    # (2.4): phi^(q) . phi^(r)  ==  phi^(r) . 0^(q) . 10^(q-1) ... 1^(q-1) 0
    for r in range(1, 5):
        for q in range(0, r):
            rhs = alpha_power("", r)
            for j in range(q):
                rhs += shift("1" * j, alpha_power("0", q - j))
            assert pos_equiv(alpha_power("", q) + alpha_power("", r), rhs), (q, r)


def test_lcm():
    out = lcm(pos_word([""]), pos_word(["1"]))
    assert render_word(out) == "e.1.e"
    assert pos_equiv(out, parse_word("1.e.0"))
    u = pos_word(["0", ""])
    assert lcm(u, u) == u
    assert lcm(u, ()) == u
    assert lcm((), u) == u
