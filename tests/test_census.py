"""A census of the free system of rank 1: the one-variable terms of
`one_var_upto(n)` sorted by `compare`, with adjacent terms that `decide`
calls equal merged into one class, and the classes counted by the size of
their least member.  Any change to `decide`, `compare`, `redress` or
`blueprint` that moves an answer in this region moves a pinned count.
`compare` orders the census by blueprints, independently of the normal
forms, which the tests below hold to it.

Run as a script, `python tests/test_census.py N` prints the class counts of
`one_var_upto(N)` by least size 1, 2, ..., N on one line, and
`python tests/test_census.py --normal-forms N` prints the same counts found
by grouping the terms by normal form alone (`normal_form_class_counts`).
"""

import sys
from collections import Counter
from functools import cmp_to_key, lru_cache

from cdcalc import Classification, Verdict, compare, decide, normal_form, oracle_equiv
from cdcalc.terms import _nf_codes
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
    # numbered in one call, so equal normal forms are one code
    classes = census(8)
    number, _, _, lex = _nf_codes()
    codes = iter([number(t) for c in classes for t in c])
    per_class = [[next(codes) for _ in c] for c in classes]
    assert all(n == ns[0] for ns in per_class for n in ns)
    firsts = [ns[0] for ns in per_class]
    assert len(set(firsts)) == len(classes) == 200
    assert all(lex(a, b) == -1 for a, b in zip(firsts, firsts[1:]))
    for c, m in zip(classes, least_members(classes)):
        n = normal_form(c[0])
        assert n == m
        # a least member comes back as itself, and so does a normal form
        assert normal_form(m) is m
        assert normal_form(n) is n


def a000081(n):
    """The first n terms of OEIS A000081 (https://oeis.org/A000081), the
    rooted trees of 1, 2, ..., n nodes, from a(1) = 1 and
    m*a(m+1) = sum_{k=1..m} (sum_{d | k} d*a(d)) * a(m-k+1)."""
    a = [0, 1]
    for m in range(1, n):
        s = sum(sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[m - k + 1]
                for k in range(1, m + 1))
        a.append(s // m)
    return a[1:n + 1]


def normal_form_class_counts(n):
    """The number of distinct normal forms of `one_var_upto(n)` with k leaves,
    for k = 1, 2, ..., n: the terms are numbered by one `_nf_codes` call's
    `number`, and a code's size is summed from its lft and rgt codes, which
    are lower.  A normal form is the least member of its class, so these
    are the class counts by least size."""
    number, lft, rgt, _ = _nf_codes()
    codes = [number(t) for t in one_var_upto(n)]
    size = [1]
    for a, b in zip(lft[1:], rgt[1:]):
        size.append(size[a] + size[b])
    counts = Counter(size[c] for c in set(codes))
    return [counts[k] for k in range(1, n + 1)]


def test_normal_form_classes_are_counted_by_a000081():
    # an NF of k leaves is a rooted tree of k nodes: each leaf is a node,
    # and its children, which do not increase, are a multiset of subtrees
    want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]
    assert normal_form_class_counts(11) == a000081(11) == want


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
    if sys.argv[1] == "--normal-forms":
        print(*normal_form_class_counts(int(sys.argv[2])))
    else:
        print(*counts_by_least_size(census(int(sys.argv[1]))))
