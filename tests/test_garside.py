import inspect
import json
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cdcalc
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
)
from cdcalc.cli import main
from cdcalc.garside import DEFAULT_MAX_SIZE
from helpers import (
    X,
    is_expansion,
    labeled_upto,
    one_var_upto,
    random_term,
    reference_delta,
    reference_partial,
    reference_transport,
    subterm,
)

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


def test_partial_iter_stops_at_a_fixed_point(monkeypatch):
    # a left comb is its own partial, so one pass answers any n
    calls, original = [], partial
    garside = sys.modules["cdcalc.garside"]

    def counted(t, max_size):
        calls.append(t)
        return original(t, max_size=max_size)

    monkeypatch.setattr(garside, "partial", counted)
    for t in (parse_term("(((x1 x1) x1) x1)"), x):
        calls.clear()
        assert partial_iter(t, 10**6) is t and calls == [t]


def test_perfbench_patch_points_are_the_library_functions():
    # perfbench/traced.py swaps these module globals for traced stand-ins
    # that call the package's own functions
    garside, redress = sys.modules["cdcalc.garside"], sys.modules["cdcalc.redress"]
    for module, name in [(garside, "delta"), (garside, "apply_word"),
                         (garside, "complement"), (redress, "complement")]:
        assert getattr(module, name) is getattr(cdcalc, name), (module.__name__, name)


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
    # a left comb is its own partial, the same object; its 10^5 levels
    # must not recurse
    comb = x
    for _ in range(10**5 - 1):
        comb = Node(comb, x)
    assert partial(comb) is comb


def _nodes(t):
    seen, stack = {}, [t]
    while stack:
        u = stack.pop()
        if type(u) is Node and id(u) not in seen:
            seen[id(u)] = u
            stack += [u.left, u.right]
    return seen


def test_partial_keeps_the_nodes_it_leaves_alone():
    # a left comb, and only a left comb, has an empty delta, and partial
    # gives it back itself
    for t in one_var_upto(7) + labeled_upto(4, 3):
        assert (partial(t) is t) == (delta(t) == ()), render_term(t)
    # partial(u) is a subterm of partial(t) for every subterm u of t, so
    # every left-comb node of t is a node of partial(t), by identity
    rng = random.Random(36)
    for _ in range(300):
        t = random_term(rng, rng.randint(2, 14), rng.randint(1, 3))
        kept = _nodes(partial(t))
        for key, u in _nodes(t).items():
            if delta(u) == ():
                assert key in kept, (render_term(t), render_term(u))


def _partial_outcome(fn, t, max_size):
    # the term, or SizeLimitExceeded after checking its text; the size it
    # names may differ between the two builds, which pass the ceiling at
    # different parts of the result
    try:
        return fn(t, max_size)
    except SizeLimitExceeded as err:
        m = re.fullmatch(rf"partial grew past {max_size} leaves: its finished parts hold (\d+)",
                         str(err))
        assert m and int(m[1]) > max_size, str(err)
        return SizeLimitExceeded


def _reference_partial2(t, max_size=DEFAULT_MAX_SIZE):
    return reference_partial(reference_partial(t, max_size), max_size)


def _assert_partial_matches_the_reference(t, max_size):
    assert (_partial_outcome(partial, t, max_size)
            == _partial_outcome(reference_partial, t, max_size)), (render_term(t), max_size)
    assert (_partial_outcome(lambda t, m: partial_iter(t, 2, max_size=m), t, max_size)
            == _partial_outcome(_reference_partial2, t, max_size)), (render_term(t), max_size)


def test_partial_matches_the_spread_memo_reference():
    # 10^4 is the garside benchmark's ceiling
    for t in _garside_cases():
        _assert_partial_matches_the_reference(t, 10**4)
    # at the ceilings of size and size - 1, so that each side raises or
    # answers exactly where the other does
    for t in one_var_upto(7) + labeled_upto(4, 2):
        for ref in (reference_partial, _reference_partial2):
            size = ref(t).size
            _assert_partial_matches_the_reference(t, size)
            _assert_partial_matches_the_reference(t, size - 1)
    rng = random.Random(33)
    for _ in range(1000):
        t = random_term(rng, rng.randint(2, 20), rng.randint(1, 3))
        for max_size in (50, 300, 10**4):
            _assert_partial_matches_the_reference(t, max_size)


def _prefix(v, k):
    # v|k, the term made of v's first k leaves
    if k == v.size:
        return v
    if k <= v.left.size:
        return _prefix(v.left, k)
    return Node(v.left, _prefix(v.right, k - v.left.size))


def test_partial_is_a_left_comb_of_prefix_partials():
    # partial(u0*u1) = (...(partial(u0) * partial(u1|1)) * ...) * partial(u1)
    for t in one_var_upto(7):
        if type(t) is Node:
            comb = reference_partial(t.left)
            for k in range(1, t.right.size + 1):
                comb = Node(comb, reference_partial(_prefix(t.right, k)))
            assert comb == reference_partial(t), render_term(t)


def test_partial_of_deep_right_combs_and_zigzags():
    # every built node is a node of the result, so each raises as soon as
    # one passes the ceiling, without recursing down its 10^5 levels
    zigzag = x
    for i in range(10**5 - 1):
        zigzag = Node(x, zigzag) if i % 2 == 0 else Node(zigzag, x)
    for t in (right_comb(10**5), zigzag):
        with pytest.raises(SizeLimitExceeded):
            partial(t)


def test_partial_keeps_results_shared():
    # the memo is keyed by object, so a shared input node gives one shared
    # result; 42,485 leaves in fewer than 4,000 node objects
    t = partial_iter(right_comb(5), 5)
    assert t.size == 42485
    assert len(_nodes(t)) < 4000
    # the fourth pass over right_comb(6) passes the default ceiling only
    # within one comb, after the reference's running total of finished
    # parts would have; it raises all the same
    with pytest.raises(SizeLimitExceeded):
        partial_iter(right_comb(6), 4)


def test_delta_size_ceiling():
    # delta raises only where partial would, so a ceiling of size(partial t)
    # leaves it as it was
    for t in one_var_upto(6):
        assert delta(t, max_size=partial(t).size) == delta(t)
    with pytest.raises(SizeLimitExceeded):
        delta(partial(x * (x * (x * (x * x)))), max_size=20)


def test_delta_ceiling_counts_only_its_letters():
    # the one ceiling bounds the word delta builds: it answers exactly when
    # the word fits, however large the spreads it reads
    for t in one_var_upto(6) + _garside_cases():
        d = delta(t)
        for m in range(len(d) + 2):
            if len(d) <= m:
                assert delta(t, max_size=m) == d
            else:
                with pytest.raises(SizeLimitExceeded) as err:
                    delta(t, max_size=m)
                assert str(err.value) == (
                    f"delta grew past {m} letters, so its expansion passes {m} leaves")
    for fn in (delta, partial, partial_iter):
        assert inspect.signature(fn).parameters["max_size"].default == DEFAULT_MAX_SIZE


def _delta_outcome(delta_fn, t, max_size):
    try:
        return delta_fn(t, max_size)
    except SizeLimitExceeded as e:
        return f"SizeLimitExceeded: {e}"


def test_delta_matches_the_spread_building_reference_at_every_ceiling():
    # _garside_cases() holds right_comb(1...10); ceilings from 0 up to past
    # size(partial t) bound the word
    for t in _garside_cases():
        size = partial(t).size
        for max_size in (*range(41), 64, 256, 1024, size - 1, size, size + 1):
            assert (_delta_outcome(delta, t, max_size)
                    == _delta_outcome(reference_delta, t, max_size)), (render_term(t), max_size)


def test_delta_checks_its_ceiling_before_building_a_block():
    # right_comb(20000) opens with a 19,998-letter block of ~2 * 10^8
    # address characters: a ceiling of 10 raises before it is built, in a
    # child under a 128 MiB address-space ceiling
    code = (
        "from cdcalc import SizeLimitExceeded, delta, right_comb\n"
        "try:\n"
        "    delta(right_comb(20000), max_size=10)\n"
        "except SizeLimitExceeded as e:\n"
        "    print(e)\n"
    )
    ceiling = 128 * 2**20
    src = str(Path(sys.modules["cdcalc"].__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "delta grew past 10 letters, so its expansion passes 10 leaves\n"


def test_delta_of_a_deep_left_comb():
    # every spread down a left comb is a left comb with an empty delta; its
    # 10^5 levels must not recurse
    comb = x
    for _ in range(10**5 - 1):
        comb = Node(comb, x)
    assert delta(comb) == ()


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
    with pytest.raises(ValueError, match="^expected a positive word, got -1$"):
        delta_transport(t, parse_word("-1"))


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


def _z(n):
    """Z(n) = e.0.00 ... 0^(n-2), of the garside module docstring."""
    return pos_word("0" * q for q in range(n - 1))


def test_delta_of_a_product():
    # the Product lemma: delta(u*v) == 0delta(u).1delta(v).Z(size v)
    terms = one_var_upto(5) + labeled_upto(3, 2)
    for u in terms:
        for v in terms:
            assert pos_equiv(delta(u * v), shift("0", delta(u)) + shift("1", delta(v)) + _z(v.size))


def test_the_last_step_of_case_c():
    # Z(m).1F.Z(n) == 1F.Z(m+n-1) for F = 1^(k-1)Z(n) ... 1Z(n).Z(n), the
    # identity that delta_transport's case (c) reduces to
    for k in range(1, 4):
        for n in range(1, 4):
            f = ()
            for i in range(k - 1, -1, -1):
                f += shift("1" * i, _z(n))
            for m in range(1, 7):
                assert pos_equiv(_z(m) + shift("1", f) + _z(n), shift("1", f) + _z(m + n - 1))


def _letters_of(t):
    return [pos_word([a]) for a, _ in expansions(t)]


def test_delta_transport_matches_the_reversal_reference():
    # every letter of the small terms and of seeded random 6-12-leaf terms,
    # and every two-letter word of the smaller ones and of 100 random ones
    rng = random.Random(32)
    randoms = [random_term(rng, rng.randint(6, 12), rng.randint(1, 3)) for _ in range(400)]
    words = [(t, u) for t in one_var_upto(7) + labeled_upto(4, 2) + randoms for u in _letters_of(t)]
    words += [(t, u) for t in one_var_upto(6) + labeled_upto(4, 2) + randoms[:100]
              for u in _applicable_words(t, 2)]
    assert len(words) > 3500
    for t, u in words:
        assert pos_equiv(delta_transport(t, u), reference_transport(t, u)), (
            render_term(t), render_word(u))


def test_delta_transport_keeps_the_reference_errors():
    # a negative letter, a first letter that does not apply, and a second
    # letter that does not apply after the first
    cases = [(x * (x * x), parse_word("-1")), (x * (x * x), parse_word("e.-1")), (x, pos_word([""]))]
    for t in one_var_upto(5) + labeled_upto(3, 2):
        for u in _letters_of(t):
            image = apply_word(t, u)
            cases += [(t, u + pos_word([a])) for a in ("", "1", "0", "11")
                      if apply_letter(image, Letter(a, 1)) is None]
            cases.append((t, pos_word(["10"]) + u))
    for t, u in cases:
        if apply_word(t, u) is not None:
            continue
        with pytest.raises(ValueError) as want:
            reference_transport(t, u)
        with pytest.raises(ValueError) as got:
            delta_transport(t, u)
        assert str(got.value) == str(want.value)
    assert str(got.value).endswith(f"does not apply to {render_term(t)}")


def test_delta_transport_of_a_middle_comb_letter():
    # the reversal of delta(t)^-1.u.delta((t)u) stopped at its step budget
    # here; the recursion gives C(12, 6) letters, and they act as required
    t, u = right_comb(14), pos_word(["1" * 6])
    u2 = delta_transport(t, u)
    assert len(u2) == 924
    assert apply_word(t, delta(t) + u2) == apply_word(t, u + delta(apply_word(t, u)))
    assert [len(delta_transport(right_comb(16), pos_word(["1" * k]))) for k in range(14)] == [
        1, 14, 91, 364, 1001, 2002, 3003, 3432, 3003, 2002, 1001, 364, 91, 14]


def test_delta_transport_size_ceiling():
    # C(38, 19) letters: the word stops before it passes the ceiling, and
    # the error says which letter it was on and how much it had built
    u = pos_word(["1" * 19])
    with pytest.raises(SizeLimitExceeded) as err:
        delta_transport(right_comb(40), pos_word(["1"]) + u)
    m = re.fullmatch(rf"delta_transport grew past {DEFAULT_MAX_SIZE} letters on letter 2 of 2: "
                     r"(\d+) letters built", str(err.value))
    assert m and 0 < int(m[1]) <= DEFAULT_MAX_SIZE, str(err.value)


def test_delta_transport_of_deep_combs():
    # a 10^5-leaf right comb, and a 10^5-leaf left comb over x(xx), with a
    # letter each whose chain of spreads is 10^5 long: answered in a child
    # under a 512 MiB address-space ceiling, with no recursion
    code = (
        "from cdcalc import Leaf, Node, apply_word, delta, delta_transport, pos_word, right_comb\n"
        "x = Leaf(1)\n"
        "n = 10**5\n"
        "assert delta_transport(right_comb(n), pos_word([''])) == pos_word(['0' * (n - 3)])\n"
        "t = x * (x * x)\n"
        "for _ in range(n - 3):\n"
        "    t = Node(t, x)\n"
        "u = pos_word(['0' * (n - 3)])\n"
        "u2 = delta_transport(t, u)\n"
        "assert u2 == u\n"
        "assert apply_word(t, delta(t) + u2) == apply_word(t, u + delta(apply_word(t, u)))\n"
    )
    ceiling = 512 * 2**20
    src = str(Path(sys.modules["cdcalc"].__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    # the same closed form on a comb small enough to check by action
    t, u = right_comb(12), pos_word([""])
    u2 = delta_transport(t, u)
    assert u2 == pos_word(["0" * 9])
    assert apply_word(t, delta(t) + u2) == apply_word(t, u + delta(apply_word(t, u)))


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


def test_lcm(capsys):
    out = lcm(pos_word([""]), pos_word(["1"]))
    assert render_word(out) == "e.1.e"
    assert pos_equiv(out, parse_word("1.e.0"))
    u = pos_word(["0", ""])
    assert lcm(u, u) == u
    assert lcm(u, ()) == u
    assert lcm((), u) == u
    for args in ((parse_word("-1"), ()), ((), parse_word("-1"))):
        with pytest.raises(ValueError, match="^expected a positive word, got -1$"):
            lcm(*args)
    assert main(["--json", "lcm", "0", "--", "-1"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "error": "expected a positive word, got -1"}


def test_lcm_is_symmetric_sweep():
    # u.(u\v) == v.(v\u), on the words up to 2 letters applicable to a term
    for t in labeled_upto(4, 2):
        words = [u for n in range(3) for u in _applicable_words(t, n)]
        for u in words:
            for v in words:
                assert pos_equiv(lcm(u, v), v + complement(v, u)), (render_word(u), render_word(v))
