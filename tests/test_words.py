import pytest
from hypothesis import given

from cdcalc import (
    Letter,
    ParseError,
    chi,
    complement,
    delta,
    inverse,
    parse_word,
    pos_word,
    positive_addresses,
    redress,
    render_word,
    shift,
)
from helpers import cd_relations, one_var_upto, words_st


def test_parse_and_render():
    assert parse_word("eps") == ()
    assert parse_word("1.e.0") == pos_word(["1", "", "0"])
    assert parse_word("-1") == (Letter("1", -1),)
    assert parse_word("1.-10.e") == (Letter("1", 1), Letter("10", -1), Letter("", 1))
    assert render_word(()) == "eps"
    assert render_word(pos_word(["1", "", "0"])) == "1.e.0"


@pytest.mark.parametrize("bad", ["", "1..0", "x", "0e", "-", "e,1", "0 1"])
def test_parse_word_errors(bad):
    with pytest.raises(ParseError):
        parse_word(bad)


@pytest.mark.parametrize("text, position", [
    ("e.x", 2), ("  e.x", 4), ("\te.x", 3), (" \t0.1.x1", 6), ("  -x", 2), ("\t0e ", 1)])
def test_parse_word_error_positions_count_from_the_input(text, position):
    with pytest.raises(ParseError) as err:
        parse_word(text)
    assert err.value.position == position


@pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\u0085"],
                         ids=["ideographic", "no-break", "next-line"])
def test_parse_word_strips_only_ascii_whitespace(space):
    for text, letter, position in ((space + "e", space + "e", 0), ("e.1" + space, "1" + space, 2),
                                   (" 0." + space + "1", space + "1", 3)):
        with pytest.raises(ParseError) as err:
            parse_word(text)
        assert str(err.value) == f"bad letter {letter!r} (at position {position})"
    assert parse_word("\t1.e\n") == parse_word(" \r\n1.e\x0b\x0c") == pos_word(["1", ""])


@given(words_st)
def test_word_roundtrip(w):
    assert parse_word(render_word(w)) == w


@given(words_st)
def test_inverse_involution(w):
    assert inverse(inverse(w)) == w
    assert inverse(()) == ()


def test_shift():
    assert render_word(shift("1", parse_word("e"))) == "1"
    assert render_word(shift("1", parse_word("e.-0"))) == "1.-10"
    assert shift("0", ()) == ()


@given(words_st)
def test_shift_preserves_length_and_signs(w):
    out = shift("10", w)
    assert len(out) == len(w)
    assert [l.sign for l in out] == [l.sign for l in w]
    assert all(l.addr.startswith("10") for l in out)


def test_positive_helpers():
    w = pos_word(["", "01"])
    assert positive_addresses(w) == ("", "01")
    with pytest.raises(ValueError):
        positive_addresses((Letter("1", -1),))


def test_every_word_is_made_of_letters():
    # words are tuples of real Letters, however their letters were built
    words = [parse_word("1.-e.0"), pos_word(["", "01"])]
    for u, v in cd_relations(1):
        fraction = redress(inverse(u) + v)
        words += [fraction.num, fraction.den, complement(u, v), shift("1", u)]
    for t in one_var_upto(5):
        words += [chi(t), delta(t)]
    assert sum(map(len, words)) > 250
    assert all(type(l) is Letter for w in words for l in w)
