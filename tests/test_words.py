import random

import pytest
from hypothesis import given

from cdcalc import (
    Coset,
    Leaf,
    Letter,
    Node,
    ParseError,
    Term,
    apply_letter,
    apply_word,
    apply_word_partial,
    chi,
    classify,
    complement,
    coset_eq,
    coset_mul,
    delta,
    delta_transport,
    dil,
    expansions,
    group_equiv,
    inverse,
    lcm,
    parse_term,
    parse_word,
    pos_equiv,
    pos_word,
    positive_addresses,
    redress,
    render_word,
    shift,
    star,
    trace,
)
from cdcalc import terms
from helpers import (
    cd_relations,
    empty_parse_table,
    labeled_upto,
    mutate,
    one_var_upto,
    parse_outcome,
    reference_parse_word,
    words_st,
)


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


def test_two_parses_of_one_text_are_one_word(monkeypatch):
    empty_parse_table(monkeypatch)
    for text in ("1.e.0", " -1.01\t", "e"):
        assert parse_word(text) is parse_word(text)


def test_two_words_that_share_a_letter_share_its_object(monkeypatch):
    empty_parse_table(monkeypatch)
    u, v = parse_word("1.-10.e"), parse_word(" e.0.1.-10.1")
    assert v[0] is u[2] and v[2] is u[0] is v[4] and v[3] is u[1]
    assert all(type(l) is Letter for l in u + v)
    assert parse_word("-1")[0] is not u[0] and parse_word("10")[0] is not u[1]


def test_a_word_parsed_again_after_the_table_is_emptied_is_equal(monkeypatch):
    empty_parse_table(monkeypatch)
    text = "1.-10.e.1"
    before = parse_word(text)
    terms._table.clear()
    after = parse_word(text)
    assert after == before == (Letter("1", 1), Letter("10", -1), Letter("", 1), Letter("1", 1))
    assert after is not before and after[0] is not before[0] and after[0] is after[3]


def test_each_kind_of_key_keeps_to_its_own_values(monkeypatch):
    # term texts and variable tokens are strs, word texts 1-tuples, letters
    # (sign, addr) pairs and products one int of their two child ids, so a
    # text read as a term, as a word and as a letter's address stays apart
    empty_parse_table(monkeypatch)
    t = parse_term("((x1 x2) x1)")
    w = parse_word("e.-0.0")
    assert parse_word("0") == (Letter("0", 1),) and parse_word("-0") == (Letter("0", -1),)
    for text in ("0", "-0", "e.-0.0"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_term(text)
    with pytest.raises(ParseError, match="bad letter"):
        parse_word("x1")
    assert terms._table["((x1 x2) x1)"] is t and terms._table["x1"] is terms.X
    assert terms._table[("e.-0.0",)] is w and terms._table[("0",)] is not w
    assert terms._table[(1, "")] is w[0] and terms._table[(-1, "0")] is w[1]
    assert terms._table[(1, "0")] is w[2] is parse_word("0")[0]
    for key, value in terms._table.items():
        if type(key) is str:
            assert isinstance(value, Term)
        elif type(key) is int:
            assert type(value) is Node and key == id(value.left) << 64 | id(value.right)
        elif len(key) == 1:
            assert value is parse_word(key[0])
        else:
            assert type(value) is Letter and key == (value.sign, value.addr)
    assert len(terms._table) == 11


def test_one_table_keeps_word_and_term_texts_apart():
    assert parse_term("x1") == Leaf(1) and parse_word("1") == (Letter("1", 1),)
    with pytest.raises(ParseError, match="bad letter 'x1'"):
        parse_word("x1")
    with pytest.raises(ParseError, match="unexpected character '1'"):
        parse_term("1")


def test_parse_word_keeps_the_shared_table_within_its_ceiling(monkeypatch):
    for k in range(2**14 + 2):
        assert parse_word(format(k, "b")) == (Letter(format(k, "b"), 1),)
    assert len(terms._table) <= terms._MAX_ENTRIES
    # letters count as entries: one word of 2**14 + 1 distinct letters, in
    # under 2**18 characters, takes the table past the entry bound alone
    empty_parse_table(monkeypatch)
    addrs = [format(k, "b") for k in range(2**14 + 1)]
    assert parse_word(".".join(addrs)) == pos_word(addrs)
    assert not terms._table and terms._chars == 0
    # 400 distinct one-letter texts of 4,000 characters hold more than the
    # character bound
    for k in range(400):
        text = format(k, "b").rjust(4000, "1")
        assert parse_word(text) == (Letter(text, 1),)
        held = sum(len(key[0]) for key in terms._table if type(key) is tuple and type(key[0]) is str)
        assert held <= terms._MAX_CHARS
    # a failed parse counts too: its characters take the table past the bound
    empty_parse_table(monkeypatch)
    stored = parse_word("1" * (terms._MAX_CHARS - 10))
    assert parse_word("1" * (terms._MAX_CHARS - 10)) is stored
    with pytest.raises(ParseError, match="bad letter"):
        parse_word("2" * 20)
    assert not terms._table


def test_parse_word_matches_the_reference():
    # rendered words with ASCII spacing around them, then each mutated by up
    # to three character edits, and a resample so stored texts are read again
    rng = random.Random(40)
    texts = []
    for _ in range(600):
        letters = [(format(rng.randrange(2**k), f"0{k}b") if k else "", rng.choice((1, -1)))
                   for k in (rng.randint(0, 4) for _ in range(rng.randint(0, 5)))]
        text = render_word(tuple(Letter(*letter) for letter in letters))
        text = rng.choice(("", " ", "\t\n")) + text + rng.choice(("", " ", "\r\n"))
        texts.append(text)
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text, "01e-.ps \tx\u3000")
            texts.append(text)
    texts += rng.sample(texts, 400)
    oks = 0
    for text in texts:
        got = parse_outcome(parse_word, text)
        assert got == parse_outcome(reference_parse_word, text), text
        oks += got[0] == "ok"
    assert 800 < oks < len(texts) - 800


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


def _plain(w):
    return tuple(map(tuple, w))


def _signed_words(n):
    rng = random.Random(45)
    addresses = ["", "0", "1", "00", "01", "10", "11", "110"]
    return [tuple(Letter(rng.choice(addresses), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 7))) for _ in range(n)]


def test_every_function_reads_a_letter_as_a_pair():
    # each of the 19 public functions that take a word answers alike on
    # Letters and on plain (address, sign) pairs
    relations = cd_relations(1)
    for u, v in relations:
        pu, pv = _plain(u), _plain(v)
        assert positive_addresses(pu) == positive_addresses(u)
        assert (dil(1, pu), dil(2, pv)) == (dil(1, u), dil(2, v))
        assert complement(pu, pv) == complement(u, v)
        assert pos_equiv(pu, pv) == pos_equiv(u, v)
        assert lcm(pu, pv) == lcm(u, v)
    signed = _signed_words(40) + [inverse(u) + v for u, v in relations]
    for w, w2 in zip(signed, signed[1:]):
        p, p2 = _plain(w), _plain(w2)
        assert render_word(p) == render_word(w)
        assert redress(p) == redress(w)
        assert classify(p) is classify(w)
        assert group_equiv(p, p2) == group_equiv(w, w2)
        assert inverse(p) == inverse(w)
        assert shift("10", p) == shift("10", w)
        assert star(p, p2) == star(w, w2)
        assert trace(p) == trace(w)
        assert coset_eq(Coset(p), Coset(p2)) is coset_eq(Coset(w), Coset(w2))
        assert coset_mul(Coset(p), Coset(p2)) == coset_mul(Coset(w), Coset(w2))
    applied = 0
    for t in one_var_upto(5) + labeled_upto(3, 2):
        words = list(signed)
        for a, e in expansions(t):
            for u in [pos_word([a]), *[pos_word([a, b]) for b, _ in expansions(e)]]:
                assert delta_transport(t, _plain(u)) == delta_transport(t, u)
                words += [u, u + inverse(u)]
        for w in words:
            p = _plain(w)
            assert [apply_letter(t, l) for l in p] == [apply_letter(t, l) for l in w]
            assert apply_word(t, p) == apply_word(t, w)
            assert apply_word_partial(t, p) == apply_word_partial(t, w)
            applied += apply_word(t, w) is not None
    assert applied > 300


def test_lcm_and_star_build_letters_from_lists_and_plain_pairs():
    # the first argument's letters too, not only the ones built after them
    for u, v in cd_relations(1):
        pu, pv = list(map(tuple, u)), list(map(tuple, v))
        for got, want in ((lcm(pu, pv), lcm(u, v)), (star(pu, pv), star(u, v))):
            assert type(got) is tuple and got == want
            assert all(type(l) is Letter for l in got)


@pytest.mark.parametrize("call", [
    positive_addresses, lambda w: dil(1, w), lambda w: complement(w, ()),
    lambda w: pos_equiv((), w), lambda w: lcm(w, ()),
    lambda w: delta_transport(parse_term("(x1 (x1 x1))"), w),
], ids=["positive_addresses", "dil", "complement", "pos_equiv", "lcm", "delta_transport"])
def test_a_negative_plain_letter_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"^expected a positive word, got -e$"):
        call((("", -1),))


def test_every_word_built_from_plain_pairs_is_made_of_letters():
    # callers read .addr and .sign off the words the library returns, so
    # every letter it builds is a Letter, whatever its input letters were;
    # the functions that take no word are checked above
    t = parse_term("(x1 (x1 (x1 x1)))")
    words = [delta_transport(t, _plain(pos_word(["1", ""])))]
    for u, v in cd_relations(1):
        pu, pv = _plain(u), _plain(v)
        fraction = redress(_plain(inverse(u) + v))
        words += [inverse(pu), shift("1", pu), complement(pu, pv), fraction.num,
                  fraction.den, lcm(u, v), lcm(pu, pv)[len(pu):]]
    assert sum(map(len, words)) > 250
    assert all(type(l) is Letter for w in words for l in w)
