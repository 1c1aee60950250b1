import pytest

from cdcalc import (
    Coset,
    Verdict,
    chi,
    coset_eq,
    coset_mul,
    coset_of_term,
    group_equiv,
    oracle_equiv,
    parse_word,
    pos_word,
    render_word,
    shift,
    star,
)
from helpers import X, one_var_upto

x = X


def test_coset_of_term_examples():
    assert coset_of_term(x) == Coset((), x)
    assert render_word(coset_of_term(x * x).rep) == "e"
    assert render_word(coset_of_term(x * (x * x)).rep) == "1.e.-1"


def test_coset_mul():
    e = coset_of_term(x)
    assert render_word(coset_mul(e, e).rep) == "e"
    a, b = coset_of_term(x * x), coset_of_term(x * (x * x))
    ab = coset_mul(a, b)
    assert ab.origin == (x * x) * (x * (x * x))
    assert ab.rep == chi(ab.origin)
    anonymous = coset_mul(Coset(pos_word([""])), b)
    assert anonymous.origin is None


def test_coset_eq_examples():
    a, b = coset_of_term(x * (x * x)), coset_of_term((x * x) * (x * x))
    assert coset_eq(a, b) is Verdict.EQUIVALENT
    assert coset_eq(coset_of_term(x), coset_of_term(x * x)) is Verdict.NOT_EQUIVALENT
    assert coset_eq(Coset(pos_word(["0"])), Coset(())) is Verdict.UNKNOWN
    assert coset_eq(Coset(pos_word([""])), Coset(())) is Verdict.NOT_EQUIVALENT


def test_unknown_is_not_a_boolean():
    # nor is any other verdict, so no caller can read Unknown as a "no"
    for verdict in Verdict:
        with pytest.raises(TypeError):
            bool(verdict)
    assert Verdict.UNKNOWN.value == "Unknown"


def test_duplication_law_on_cosets():
    terms = one_var_upto(3)
    for ta in terms:
        for tb in terms:
            for tc in terms:
                a, b, c = map(coset_of_term, (ta, tb, tc))
                bc = coset_mul(b, c)
                lhs = coset_mul(a, bc)
                rhs = coset_mul(coset_mul(a, b), bc)
                assert coset_eq(lhs, rhs) is Verdict.EQUIVALENT


def test_representative_perturbation_does_not_change_products():
    # pushing a 0-shifted factor into either argument moves the product by
    # another 0-shifted factor, so the coset is unchanged
    u, v = chi(x * x), chi(x * (x * x))
    w = pos_word(["1", ""])
    assert group_equiv(star(u + shift("0", w), v), star(u, v) + shift("00", w))
    assert group_equiv(star(u, v + shift("0", w)), star(u, v) + shift("01", w))


def test_coset_equality_matches_term_decision():
    # against the oracle, which shares no code with decide
    terms = one_var_upto(4)
    for t in terms:
        for t2 in terms:
            verdict = oracle_equiv(t, t2, 8)
            assert verdict is not Verdict.UNKNOWN
            assert coset_eq(coset_of_term(t), coset_of_term(t2)) is verdict


def test_nontrivial_quotient():
    assert coset_eq(coset_of_term(x), coset_of_term(x * x)) is Verdict.NOT_EQUIVALENT


def test_normal_closure_relation_would_collapse():
    # the characteristic relation whose normal-subgroup reading trivializes
    # the group: g . 1g . g == 1g . g . 0g
    assert group_equiv(parse_word("e.1.e"), parse_word("1.e.0"))
