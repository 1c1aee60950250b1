import random
import tracemalloc

import pytest

from cdcalc import (
    Letter,
    Node,
    SizeLimitExceeded,
    apply_letter,
    apply_word,
    complement,
    delta,
    delta_transport,
    expansions,
    lcm,
    parse_term,
    parse_word,
    partial,
    partial_iter,
    pos_equiv,
    pos_word,
    render_term,
    render_word,
    right_comb,
    right_height,
    shift,
    subterm,
)
from helpers import X, is_expansion, labeled_upto, one_var_upto, random_term

x = X


def alpha_power(alpha, p):
    """The descending product a1^(p-1) ... a1.a; the empty word for p <= 0."""
    return pos_word(alpha + "1" * k for k in range(p - 1, -1, -1))


def delta_left_factor(t, alpha):
    """A positive v with alpha.v equivalent to delta(t), given that the
    letter alpha applies to t."""
    if apply_letter(t, Letter(alpha, 1)) is None:
        raise ValueError(f"letter at {alpha!r} does not apply")
    head = pos_word([alpha])
    v = complement(head, delta(t))
    assert pos_equiv(head + v, delta(t)), "alpha.v matches delta(t)"
    return v


def delta_bound(t, u):
    """A positive v with u.v equivalent to delta(t).delta(partial t)...,
    one delta factor per letter of u, given that u applies to t."""
    assert apply_word(t, u) is not None
    product, cur = (), t
    for _ in u:
        d = delta(cur)
        product += d
        cur = apply_word(cur, d)
    v = complement(u, product)
    assert pos_equiv(u + v, product), "delta product bound"
    return v


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


def _garside_cases():
    # partials and combs share many subterms, each spread at several
    # addresses; the random terms have partials of up to ~10^3 leaves
    rng = random.Random(13)
    return (list(labeled_upto(5, 2)) + [partial(t) for t in labeled_upto(4, 2)]
            + [right_comb(p) for p in range(1, 11)]
            + [random_term(rng, rng.randint(8, 14), rng.randint(1, 3)) for _ in range(300)])


def test_delta_matches_its_definition():
    for t in _garside_cases():
        assert delta(t) == _reference_delta(t)


def test_delta_memory_is_its_output():
    # delta(partial t) has 6048 letters, yet a memo holding the shifted word
    # of every spread subterm peaks at ~125 MiB on it
    t = parse_term("(x1 (((x2 (((x2 (x2 x3)) x2) (x3 (x3 x2)))) x2) (x1 (x3 x1))))")
    pt = partial(t)
    tracemalloc.start()
    try:
        d = delta(pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d) == 6048
    assert peak < 16 * 2**20
    with pytest.raises(SizeLimitExceeded):
        partial_iter(t, 2, max_size=10**4)


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


def test_partial_is_the_action_of_delta():
    for t in _garside_cases():
        assert partial(t) == apply_word(t, delta(t)), render_term(t)


def test_partial_size_ceiling_is_exact():
    for t in _garside_cases():
        size = partial(t).size
        assert partial(t, max_size=size).size == size
        with pytest.raises(SizeLimitExceeded):
            partial(t, max_size=size - 1)


def test_partial_of_a_deep_left_comb():
    # a left comb is its own partial; its 10^5 levels must not recurse
    comb = x
    for _ in range(10**5 - 1):
        comb = Node(comb, x)
    assert partial(comb) == comb


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
    for t in one_var_upto(5) + labeled_upto(4, 2):
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


def test_lcm_is_symmetric_sweep():
    # u.(u\v) == v.(v\u), on the words up to 2 letters applicable to a term
    for t in labeled_upto(4, 2):
        words = [u for n in range(3) for u in _applicable_words(t, n)]
        for u in words:
            for v in words:
                assert pos_equiv(lcm(u, v), v + complement(v, u)), (render_word(u), render_word(v))
