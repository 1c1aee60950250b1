import json
import random
from itertools import product

import pytest
from hypothesis import given, settings

from cdcalc import (
    Fraction,
    Leaf,
    StepBudgetExceeded,
    apply_word,
    cd_relations,
    check_cube,
    complement,
    f_cd,
    group_equiv,
    inverse,
    nu,
    parse_word,
    pos_equiv,
    pos_word,
    redress,
    render_word,
    trace,
)
from cdcalc.cli import main
from helpers import pos_words_st, terms_st, words_st


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


def test_redress_budget():
    with pytest.raises(StepBudgetExceeded) as err:
        redress(parse_word("-e.1"), budget=0)
    # the message reports how far redressing got
    assert str(err.value) == (
        "redressing stopped at its budget after 0 steps; the word has 2 letters, "
        "the input had 2")


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
    with pytest.raises(ValueError):
        complement(parse_word("-1"), ())


def test_pos_equiv_examples():
    assert pos_equiv(parse_word("1.e.0"), parse_word("e.1.e"))
    assert not pos_equiv(parse_word("e"), ())
    assert pos_equiv(parse_word("0.11"), parse_word("11.0"))


def test_group_equiv_examples():
    assert group_equiv(parse_word("e.1.e"), parse_word("1.e.0"))
    assert not group_equiv(parse_word("e"), ())
    assert group_equiv(parse_word("1.-1"), ())
    assert group_equiv(parse_word("-1.1"), ())


@settings(max_examples=40, deadline=None)
@given(words_st)
def test_group_equiv_reflexive(w):
    assert group_equiv(w, w)


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
