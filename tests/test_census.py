"""A census of the free system of rank 1: the one-variable terms of
`one_var_upto(n)` sorted by `compare`, with adjacent terms that `decide`
calls equal merged into one class, and the classes counted by the size of
their least member.  Any change to `decide`, `compare`, `redress` or
`blueprint` that moves an answer in this region moves a pinned count.
`compare` orders the census by blueprints, independently of the normal
forms, which the tests below hold to it.

Run as a script, `python tests/test_census.py N` prints the class counts of
`one_var_upto(N)` by least size 1, 2, ..., N on one line.
"""

import sys
from collections import Counter
from functools import cmp_to_key, lru_cache

from cdcalc import Classification, Verdict, compare, decide, normal_form, oracle_equiv
from cdcalc.terms import _lex, _normal_forms
from helpers import one_var_upto

_SIGN = {Classification.P_PLUS: -1, Classification.P_ZERO: 0, Classification.P_MINUS: 1}


@lru_cache(maxsize=None)
def census(n):
    """The classes of `one_var_upto(n)`, each a tuple of terms, in increasing
    order: the terms sorted by `compare`, adjacent `decide`-equal ones merged."""
    ranked = sorted(one_var_upto(n), key=cmp_to_key(lambda t, t2: _SIGN[compare(t, t2)]))
    classes = [[ranked[0]]]
    for t in ranked[1:]:
        if decide(classes[-1][-1], t):
            classes[-1].append(t)
        else:
            classes.append([t])
    return tuple(map(tuple, classes))


def least_members(classes):
    return [min(c, key=lambda t: t.size) for c in classes]


def counts_by_least_size(classes):
    """The number of classes whose least member has size k, for k = 1, 2, ..."""
    counts = Counter(t.size for t in least_members(classes))
    return [counts[k] for k in range(1, max(counts) + 1)]


def test_class_counts_by_least_size():
    assert counts_by_least_size(census(8)) == [1, 1, 2, 4, 9, 20, 48, 115]
    assert len(census(8)) == 200


def test_each_class_has_one_least_member_and_the_classes_increase():
    classes = census(8)
    least = least_members(classes)
    for c, m in zip(classes, least):
        assert [t.size for t in c].count(m.size) == 1
    for t, t2 in zip(least, least[1:]):
        assert compare(t, t2) is Classification.P_PLUS


def test_normal_forms_are_one_per_class_and_increase_with_the_census():
    # built in one call, so equal normal forms are one object
    classes = census(8)
    forms = iter(_normal_forms([t for c in classes for t in c]))
    per_class = [[next(forms) for _ in c] for c in classes]
    assert all(n is ns[0] for ns in per_class for n in ns)
    firsts = [ns[0] for ns in per_class]
    assert len(set(map(id, firsts))) == len(classes) == 200
    memo = {}
    assert all(_lex(a, b, memo) == -1 for a, b in zip(firsts, firsts[1:]))
    for m, n in zip(least_members(classes), firsts):
        assert n == m
        # a least member comes back as itself, and so does a normal form
        assert normal_form(m) is m
        assert normal_form(n) is n


def test_the_classes_are_the_pairwise_decide_partition():
    terms = one_var_upto(7)
    pairwise = {frozenset(t2 for t2 in terms if decide(t, t2)) for t in terms}
    assert pairwise == {frozenset(c) for c in census(7)}
    assert len(pairwise) == 85


def test_the_oracle_never_splits_a_class_and_refutes_adjacent_ones():
    classes = census(7)
    for c in classes:
        for t in c:
            for t2 in c:
                assert oracle_equiv(t, t2, 2) is not Verdict.NOT_EQUIVALENT
    least = least_members(classes)
    refuted = [oracle_equiv(t, t2, 2) is Verdict.NOT_EQUIVALENT for t, t2 in zip(least, least[1:])]
    assert len(refuted) == 84 and all(refuted)


if __name__ == "__main__":
    print(*counts_by_least_size(census(int(sys.argv[1]))))
