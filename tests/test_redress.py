import inspect
import json
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings

from cdcalc import (
    Fraction,
    Letter,
    StepBudgetExceeded,
    apply_word,
    chi,
    classify,
    compare,
    complement,
    decide,
    delta,
    expansions,
    f_cd,
    group_equiv,
    inverse,
    lcm,
    parse_word,
    partial,
    pos_equiv,
    pos_word,
    redress,
    render_word,
    right_comb,
    trace,
)
from cdcalc.cli import main
from cdcalc.redress import DEFAULT_BUDGET, _reverse
from helpers import (
    cd_relations,
    labeled_upto,
    one_var_upto,
    pos_words_st,
    reference_redress,
    terms_st,
    words_st,
)


def test_f_cd_table():
    assert f_cd("", "") == ()
    assert f_cd("0", "0") == ()
    assert f_cd("", "0") == ("00",)           # beta = alpha.0g
    assert f_cd("", "011") == ("0011",)
    assert f_cd("", "10") == ("01", "10")     # beta = alpha.10g
    assert f_cd("", "101") == ("011", "101")
    assert f_cd("", "1") == ("1", "")         # beta = alpha.1
    assert f_cd("1", "") == ("", "0")         # alpha = beta.1
    assert f_cd("", "11") == ("11",)          # otherwise
    assert f_cd("11", "") == ("",)
    assert f_cd("1", "0") == ("0",)
    assert f_cd("0", "1") == ("1",)


def test_f_cd_values_from_cube_computation():
    assert f_cd("1", "11") == ("11", "1")
    assert f_cd("11", "1") == ("1", "10")
    assert render_word(complement(parse_word("1.e"), parse_word("11"))) == "11.1.e"
    assert render_word(complement(parse_word("11"), parse_word("1.e"))) == "1.10.e.0"
    assert render_word(complement(parse_word("e.0"), parse_word("11.1"))) == "11.1.e"
    assert render_word(complement(parse_word("11.1"), parse_word("e.0"))) == "e.0.00"
    assert render_word(complement(parse_word("1.10"), parse_word("e"))) == "e.0.00"


def test_f_cd_pairs_present_the_same_operator():
    addrs = [""] + ["".join(p) for n in (1, 2) for p in product("01", repeat=n)]
    for a in addrs:
        for b in addrs:
            u = pos_word([a]) + pos_word(f_cd(a, b))
            v = pos_word([b]) + pos_word(f_cd(b, a))
            assert trace(u) == trace(v), (a, b)


def test_redress_examples():
    u = parse_word("1.e.0")
    assert redress(u) == Fraction(u, ())
    assert redress(parse_word("-1.0")) == Fraction(pos_word(["0"]), pos_word(["1"]))
    fr = redress(parse_word("-e.1"))
    assert render_word(fr.num) == "1.e" and render_word(fr.den) == "e.0"
    assert redress(()) == Fraction((), ())
    assert redress(parse_word("-0.-e")) == Fraction((), pos_word(["", "0"]))


def comb_difference(p):
    """The blueprint difference of the right comb of size p and its expansion."""
    comb = right_comb(p)
    return inverse(chi(comb)) + chi(partial(comb))


def test_redress_budget():
    with pytest.raises(StepBudgetExceeded) as err:
        redress(parse_word("-e.1"), budget=0)
    # the message reports how far redressing got
    assert str(err.value) == (
        "redressing stopped at its budget after 0 steps; the word has 2 letters, "
        "the input had 2")
    # the exact step count of leftmost redressing
    w = comb_difference(8)
    assert len(w) == 1220
    assert len(redress(w, budget=1086).num) == 62
    with pytest.raises(StepBudgetExceeded) as err:
        redress(w, budget=1085)
    assert str(err.value) == (
        "redressing stopped at its budget after 1085 steps; the word has 85 letters, "
        "the input had 1220")


def test_every_budget_defaults_to_the_int_budget():
    # one spelling of the default step bound: no budgeted function takes None
    for fn in (redress, complement, pos_equiv, group_equiv, classify, decide, compare, lcm):
        assert inspect.signature(fn).parameters["budget"].default == DEFAULT_BUDGET, fn


def assert_matches_reference(w):
    """redress gives the table-driven reversal's fraction, in exactly its
    number of steps, and the same budget error one step short."""
    fraction, steps = reference_redress(w)
    assert redress(w, budget=steps) == fraction, render_word(w)
    if steps:
        with pytest.raises(StepBudgetExceeded) as err:
            redress(w, budget=steps - 1)
        with pytest.raises(StepBudgetExceeded) as ref:
            reference_redress(w, budget=steps - 1)
        assert str(err.value) == str(ref.value), render_word(w)


@settings(max_examples=200, deadline=None)
@given(words_st)
def test_redress_matches_reference_on_generated_words(w):
    assert_matches_reference(w)


def test_redress_matches_reference_on_random_words():
    rng = random.Random(14)
    addrs = [""] + ["".join(p) for n in (1, 2, 3) for p in product("01", repeat=n)]
    for _ in range(300):
        assert_matches_reference(tuple(
            Letter(rng.choice(addrs), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 12))))


def test_redress_matches_reference_on_blueprint_differences():
    blueprints = [chi(t) for t in one_var_upto(6)]
    for s in blueprints:
        for t in blueprints:
            assert_matches_reference(inverse(s) + t)


def test_redress_matches_reference_on_delta_transports():
    for t in labeled_upto(4, 2):
        for addr, e in expansions(t):
            assert_matches_reference(inverse(delta(t)) + pos_word([addr]) + delta(e))


def assert_budget_sweep(w):
    """At every budget from 0 to the step count, redress gives the
    reference's fraction or exactly its error text: the word length the
    error reports is right at every stopping point, inside a passed run
    of commutations too."""
    fraction, steps = reference_redress(w)
    for budget in range(steps):
        with pytest.raises(StepBudgetExceeded) as err:
            redress(w, budget=budget)
        with pytest.raises(StepBudgetExceeded) as ref:
            reference_redress(w, budget=budget)
        assert str(err.value) == str(ref.value), (render_word(w), budget)
    assert redress(w, budget=steps) == fraction, render_word(w)


def test_budget_sweep_on_a_comb_difference():
    assert_budget_sweep(comb_difference(5))


def test_budget_sweep_on_delta_transports():
    for t in labeled_upto(4, 2):
        for addr, e in expansions(t):
            assert_budget_sweep(inverse(delta(t)) + pos_word([addr]) + delta(e))


def test_budget_sweep_on_random_words():
    rng = random.Random(15)
    addrs = [""] + ["".join(p) for n in (1, 2, 3) for p in product("01", repeat=n)]
    for _ in range(100):
        assert_budget_sweep(tuple(
            Letter(rng.choice(addrs), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 16))))


def split_word(rng):
    """8 to 40 letters in runs of one sign, each run drawn under one side,
    0 or 1, or at the root: a letter under 1 passes a whole run under 0,
    and its cells then fall to the left of the run."""
    sides = {side: [side + "".join(p) for n in (0, 1, 2) for p in product("01", repeat=n)]
             for side in "01"}
    length, w = rng.randint(8, 40), []
    while len(w) < length:
        addrs, sign = sides[rng.choice("01")] + [""], rng.choice((1, -1))
        w += [Letter(rng.choice(addrs), sign) for _ in range(rng.randint(1, 8))]
    return tuple(w[:length])


def test_redress_matches_reference_across_passed_runs():
    rng = random.Random(16)
    for _ in range(200):
        assert_matches_reference(split_word(rng))


def test_two_positives_of_one_cell_after_a_passed_run():
    # 1 passes -00 and -01, then meets -e: the cell e^-1.1 yields 1.e.(e.0)^-1,
    # two pending positives with one tag; 1 then meets -10 and writes -100,
    # which must come back to the left of the gap before e is placed
    w = parse_word("-10.-e.-01.-00.1.-11.0")
    assert_budget_sweep(w)
    assert reference_redress(w)[1] == 16
    assert str(redress(w)) == "1.e.000.0000 | 11.000.01.0.e.0.010.100"


def test_prefix_cells_match_the_table():
    # redress writes a cell's complements without calling f_cd; every cell
    # x^-1.y of addresses up to length 4 must give f_cd's fraction, in one step
    addrs = [""] + ["".join(p) for n in range(1, 5) for p in product("01", repeat=n)]
    assert len(addrs) == 31
    for x in addrs:
        for y in addrs:
            w = (Letter(x, -1), Letter(y, 1))
            fraction = Fraction(pos_word(f_cd(x, y)), pos_word(f_cd(y, x)))
            assert redress(w, budget=1) == fraction, (x, y)
            with pytest.raises(StepBudgetExceeded):
                redress(w, budget=0)


@pytest.mark.parametrize("text", [
    # a handed-on positive meets a second prefix cell at once: 11 meets -e
    # and stays 11, then meets -1; 0 becomes 00 and cancels; 10 becomes 01
    "-1.-e.11",
    "-00.-e.0",
    "-01.-e.10",
    # a two-letter numerator whose second letter waits behind a passed run:
    # e^-1.1 hands 1 on, which passes -00 and writes -100 past the tag of e
    "-10.-00.-e.1",
    # a chain of handed-on cells that ends in an escape past a positive
    "0.-e.-1.-11.111",
    "1.-0.-e.-10.100",
])
def test_budget_sweep_on_hand_off_shapes(text):
    assert_budget_sweep(parse_word(text))


def test_commutation_steps_count_toward_the_budget():
    # every cell of (-0)^n.1^n is a commutation of disjoint addresses
    n = 30
    w = parse_word(".".join(["-0"] * n + ["1"] * n))
    assert redress(w, budget=n * n) == Fraction(pos_word(["1"] * n), pos_word(["0"] * n))
    with pytest.raises(StepBudgetExceeded) as err:
        redress(w, budget=n * n - 1)
    assert str(err.value) == (
        "redressing stopped at its budget after 899 steps; the word has 60 letters, "
        "the input had 60")


def test_long_words_redress_in_linear_time():
    # a step costs O(1), not O(word length)
    w = comb_difference(13)
    assert len(w) == 269815
    start = time.perf_counter()
    fr = redress(w)
    assert time.perf_counter() - start < 1.5
    assert (len(fr.num), len(fr.den)) == (297, 66)


def test_redress_budget_in_cli_json_envelope(capsys):
    assert main(["--json", "--budget", "0", "redress", "0.-e.1"]) == 2
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["ok"] is False
    assert envelope["error"] == (
        "redressing stopped at its budget after 0 steps; the word has 3 letters, "
        "the input had 3")


@settings(max_examples=50, deadline=None)
@given(words_st)
def test_redress_reaches_fraction_form(w):
    fr = redress(w)
    assert all(l.sign > 0 for l in fr.num)
    assert all(l.sign > 0 for l in fr.den)


def test_complement_examples():
    assert complement(pos_word(["1", ""]), pos_word(["11"])) == pos_word(["11", "1", ""])
    assert complement(pos_word(["11"]), pos_word(["1", ""])) == pos_word(["1", "10", "", "0"])
    for u in (pos_word(["", "1"]), pos_word(["0", "00", "1"])):
        assert complement(u, u) == ()
    for args in ((parse_word("-1"), ()), ((), parse_word("-1"))):
        with pytest.raises(ValueError, match="^expected a positive word, got -1$"):
            complement(*args)


@settings(max_examples=100, deadline=None)
@given(pos_words_st, pos_words_st)
def test_complement_and_pos_equiv_read_the_redressed_fraction(u, v):
    fraction = redress(inverse(u) + v)
    assert complement(u, v) == fraction.num
    assert pos_equiv(u, v) == (fraction == Fraction((), ()))


def test_pos_equiv_examples():
    assert pos_equiv(parse_word("1.e.0"), parse_word("e.1.e"))
    assert not pos_equiv(parse_word("e"), ())
    assert pos_equiv(parse_word("0.11"), parse_word("11.0"))
    for args in ((parse_word("-1"), ()), ((), parse_word("-1"))):
        with pytest.raises(ValueError, match="^expected a positive word, got -1$"):
            pos_equiv(*args)


def test_group_equiv_examples():
    assert group_equiv(parse_word("e.1.e"), parse_word("1.e.0"))
    assert not group_equiv(parse_word("e"), ())
    assert group_equiv(parse_word("1.-1"), ())
    assert group_equiv(parse_word("-1.1"), ())


@settings(max_examples=40, deadline=None)
@given(words_st)
def test_group_equiv_reflexive(w):
    assert group_equiv(w, w)


def _answer(f, *args, budget):
    """f's answer at `budget` (None for the default), or its budget error text."""
    try:
        return f(*args) if budget is None else f(*args, budget=budget)
    except StepBudgetExceeded as exc:
        return f"budget: {exc}"


def _seeded_word_pairs(signs):
    rng = random.Random(38)
    addrs = [""] + ["".join(p) for n in (1, 2, 3) for p in product("01", repeat=n)]
    def word():
        return tuple(Letter(rng.choice(addrs), rng.choice(signs)) for _ in range(rng.randint(0, 8)))
    return [(word(), word()) for _ in range(2000)]


REVERSAL_BUDGETS = (0, 1, 2, 5, 17, 100, None)


def test_group_equiv_is_pos_equiv_of_the_redressed_fraction():
    # the reference redresses w^-1.w2 and decides its fraction with
    # pos_equiv: the same answer, or the same budget error, at every budget
    def reference(w, w2, budget=DEFAULT_BUDGET):
        return pos_equiv(*redress(inverse(w) + w2, budget=budget), budget=budget)
    for w, w2 in _seeded_word_pairs((1, -1)):
        for budget in REVERSAL_BUDGETS:
            assert (_answer(group_equiv, w, w2, budget=budget)
                    == _answer(reference, w, w2, budget=budget)), (w, w2, budget)


def test_complement_and_pos_equiv_are_one_reversal_of_the_inverse():
    def numerator(u, v, budget=DEFAULT_BUDGET):
        return pos_word(_reverse(inverse(u) + v, budget)[0])
    def empty(u, v, budget=DEFAULT_BUDGET):
        return _reverse(inverse(u) + v, budget) == ([], [])
    for u, v in _seeded_word_pairs((1,)):
        for budget in REVERSAL_BUDGETS:
            assert (_answer(complement, u, v, budget=budget)
                    == _answer(numerator, u, v, budget=budget)), (u, v, budget)
            assert (_answer(pos_equiv, u, v, budget=budget)
                    == _answer(empty, u, v, budget=budget)), (u, v, budget)


def nu(u):
    """The grading of a positive word: size difference of its trace pair.
    Equivalence-invariant, and strictly increased by prepending a letter."""
    tr = trace(u)
    assert tr is not None, "positive words always have a nonempty operator"
    return tr.right.size - tr.left.size


def check_cube(a, b, c):
    """The cube condition on a triple of addresses: the nested complement
    ((a\\b)\\(a\\c)) \\ ((b\\a)\\(b\\c)) must be empty, in both orientations."""
    x, y, z = pos_word([a]), pos_word([b]), pos_word([c])
    left = complement(complement(x, y), complement(x, z))
    right = complement(complement(y, x), complement(y, z))
    return pos_equiv(left, right)


def test_nu_values():
    assert nu(()) == 0
    assert nu(parse_word("e")) == 1
    assert nu(parse_word("1.e.0")) == 4


def test_nu_is_a_grading():
    rng = random.Random(11)
    addrs = [""] + ["".join(p) for n in (1, 2) for p in product("01", repeat=n)]
    for u, v in cd_relations(1):
        assert nu(u) == nu(v)
    for _ in range(120):
        u = pos_word(rng.choices(addrs, k=rng.randint(0, 4)))
        a = pos_word([rng.choice(addrs)])
        assert nu(a + u) > nu(u)


def test_cube_condition_key_triples():
    assert check_cube("", "1", "11")
    assert check_cube("", "0", "1")
    assert check_cube("0", "0", "1")
    assert check_cube("", "", "10")
    for a, b, c in product(["", "0", "1", "11"], repeat=3):
        assert check_cube(a, b, c)


def test_cd_relations_families():
    rels = cd_relations(1)
    assert (parse_word("1.e.0"), parse_word("e.1.e")) in rels
    assert (parse_word("0.e"), parse_word("e.00")) in rels
    assert (parse_word("10.e"), parse_word("e.01.10")) in rels
    assert (parse_word("11.e"), parse_word("e.11")) in rels
    assert (parse_word("0.1"), parse_word("1.0")) in rels
    assert len(cd_relations(2)) == 7**3 + 3 * 7**2 + 7


@settings(max_examples=40, deadline=None)
@given(pos_words_st, pos_words_st)
def test_lcm_law(u, v):
    # u(u\v) and v(v\u) present the same element
    assert pos_equiv(u + complement(u, v), v + complement(v, u))
    # and one reversal of u^-1.v yields both complements
    assert redress(inverse(u) + v) == Fraction(complement(u, v), complement(v, u))


def test_completeness_matches_traces():
    rng = random.Random(5)
    addrs = ["", "0", "1", "00", "01", "10", "11"]
    for _ in range(150):
        u = pos_word(rng.choices(addrs, k=rng.randint(0, 3)))
        v = pos_word(rng.choices(addrs, k=rng.randint(0, 3)))
        assert pos_equiv(u, v) == (trace(u) == trace(v))


@settings(max_examples=40, deadline=None)
@given(terms_st, words_st)
def test_redressing_preserves_action(t, w):
    image = apply_word(t, w)
    if image is None:
        return
    fr = redress(w)
    via = apply_word(t, fr.num + inverse(fr.den))
    assert via == image


@settings(max_examples=40, deadline=None)
@given(words_st)
def test_fraction_represents_word(w):
    fr = redress(w)
    assert group_equiv(w, fr.num + inverse(fr.den))
