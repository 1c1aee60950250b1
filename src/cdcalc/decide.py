"""Decision procedures built on the dilation invariant.

dil(i, u) tracks how a positive word u moves the i-th iterated left
subterm: applying u to t sends left^i(t) to an expansion sitting at
left^dil(i,u) of the image.  Only letters at addresses 0^p with p < i
deepen the left spine.  Comparing dil(1, -) of the numerator and denominator
of a redressed word is invariant under equivalence and classifies group
elements into P_minus / P_zero / P_plus; the blueprint difference of two
one-variable terms lies in P_zero exactly when they are equivalent, and in
P_plus exactly when the first is a proper iterated left divisor of the
second, which is the order `compare` returns.  `_class` is the one place
that reads a fraction's class: `classify`, `compare`, every level of
`decide`'s sweep and `freesystem.coset_eq` all go through it.

`decide` answers every term-equivalence question along one pipeline: a
right-spine reject, in O(1) on one-variable pairs, which compares the
right heights and `max_var` stored in each term, and in O(n) on others,
after the same O(1) height comparison; a bottom-path reject on the
one-variable projections, at one comparison of stored right heights per
step of the bottom path; then one sweep up the right spine of the
projections, from the deepest level that differs to the top, which refutes
at the first level whose blueprint difference is not in P_zero, and one
literal comparison of the expansions the top level's fraction builds.
Neither reject builds or redresses a blueprint difference.
"""

import enum

from .action import apply_word
from .blueprint import _difference
from .errors import StepBudgetExceeded
from .redress import DEFAULT_BUDGET, _reverse
from .terms import Node, Term, project, right_comb, same_spine
from .words import Word, pos_word, positive_addresses


def dil(i: int, u: Word) -> int:
    """Fold of the dilation step over a positive word: a letter at an
    all-zeros address 0^p with p < i bumps the count (the root is 0^0).

    Rewriting at 0^p strictly above the left spine sends the subterm at
    0^i to 0^(i+1); rewriting at or below 0^i, or anywhere off the spine,
    leaves the index alone.
    """
    if i < 0:
        raise ValueError("dil needs i >= 0")
    return _dil(i, positive_addresses(u))


def _dil(i: int, addrs) -> int:
    """dil(i, -) of the positive word with the given addresses."""
    for addr in addrs:
        if len(addr) < i and not addr.strip("0"):
            i += 1
    return i


class Classification(enum.Enum):
    P_MINUS = "P_minus"
    P_ZERO = "P_zero"
    P_PLUS = "P_plus"


def _class(num, den) -> Classification:
    """The class of the fraction num.den^-1, given as the address lists of
    its numerator and denominator: P_PLUS when dil(1, -) of den is below
    that of num, P_ZERO when the two are equal, P_MINUS otherwise."""
    d, n = _dil(1, den), _dil(1, num)
    if d == n:
        return Classification.P_ZERO
    return Classification.P_PLUS if d < n else Classification.P_MINUS


def classify(w: Word, budget: int = DEFAULT_BUDGET) -> Classification:
    """The class of w's fraction, read off the address lists that
    `_reverse` returns."""
    return _class(*_reverse(w, budget))


def decide(t: Term, t2: Term, budget: int = DEFAULT_BUDGET) -> bool:
    """Equivalence of arbitrary terms.

    First refute on the right spine: the first-occurrence variable sequence
    of every iterated right subterm (`spine_profile`) is invariant under
    equivalence.  s0*(s1*s2) and (s0*s1)*(s1*s2) have one first-occurrence
    order, so a letter of either sign keeps the sequence of the subterm it
    rewrites and of every subterm around it.  A letter at 1^k 0 b acts
    inside the left factor of level k, so levels 0..k keep their sequences
    and the deeper ones are untouched.  A letter at 1^k rewrites level k
    itself and keeps its right subterm s1*s2, so the right height and the
    deeper levels are untouched too.  A mismatch therefore means "not
    equivalent".  The check costs O(1) on one-variable pairs, whose profiles
    follow from the right heights and `max_var` that every term stores, and
    O(n) otherwise, after the same O(1) comparison of the right heights,
    instead of a redressing.

    Then refute on the bottom path of the one-variable projections.  The
    lowest node on a term's right spine is s*x, with x a leaf; s is the
    term's bottom factor, and the bottom path is the term, its bottom
    factor, that factor's bottom factor and so on down to a leaf.  No letter
    applies at s*x, since both sides of the identity need a product on the
    right.  A letter at a higher spine address rewrites s0*(s1*s2) to
    (s0*s1)*(s1*s2) or back, and keeps s1*s2, so s*x, literally.  Any other
    letter that reaches s*x acts inside s.  So equivalent terms have
    equivalent bottom factors, and by recursion the same right height at
    every step of the bottom path.  Both paths are walked in lockstep, at
    one comparison of the stored right heights per step: the first that
    differs means "not equivalent", and only where they agree does the walk
    go down the two right spines to the next bottom factors.  It runs
    before any blueprint difference is built.

    Otherwise sweep the iterated right subterms q_k, q2_k of the
    projections (level 0 is the term, level h its rightmost leaf) from the
    bottom up.  The same cases show that every letter keeps
    each level k up to equivalence: a letter at 1^j with j < k keeps its
    right subterm s1*s2, which holds level k, literally; a letter inside
    the left factor of a level j < k leaves level k alone; and any other
    letter acts on level k as one letter.  So equivalent terms have
    equivalent, and projection-equivalent, right subterms at every level,
    and a level whose blueprint difference chi(q_k)^-1.chi(q2_k) is not in
    P_zero refutes the pair.  The deeper levels have the smaller words and
    redress first and cheapest; the sweep stops at the first one that
    refutes.  A level with q_k == q2_k needs no redressing, and then
    neither does any level below it, so the sweep starts at the deepest
    level that differs.  Each level's difference is emitted letter by
    letter into one list, chi(q_k)^-1 and then chi(q2_k), each letter an
    (address, sign) pair made once at its final address (see
    `blueprint._difference`), so no word is copied on its way to
    redressing.  Fractions stay address lists until the certificate: the
    P_zero test reads each level's class off those lists through `_class`,
    and only the top level's become words of Letters, for the certificate
    below.  `budget` bounds each level's redressing; a budget error names
    the level and how many redressed levels below it were found in P_zero.

    When every level passes, extend both terms by one tall right comb, apply
    the top level's fraction numerator on one side and denominator on the
    other (the blueprint acts on comb-extended terms, so both applications
    are defined, and definedness of positive words only depends on the
    skeleton), and compare the resulting expansions literally: distinct
    terms with one skeleton are never equivalent.  If the projections are
    equal, that fraction is empty and the comparison is t == t2.  Every
    "yes" rests on that comparison.
    """
    if not same_spine(t, t2):
        return False
    q, q2 = project(t), project(t2)
    a, b = q, q2
    while type(a) is Node:  # the bottom paths, in lockstep, at one right height
        while type(a.right) is Node:
            a, b = a.right, b.right
        a, b = a.left, b.left
        if a.right_height != b.right_height:
            return False
    levels, levels2 = [q], [q2]
    while type(levels[-1]) is Node:  # one spine profile: one right height
        levels.append(levels[-1].right)
        levels2.append(levels2[-1].right)
    h = k = len(levels) - 1
    while k and levels[k - 1].left == levels2[k - 1].left:
        k -= 1
    num = den = ()
    for j in range(k - 1, -1, -1):
        try:
            num, den = _reverse(_difference(levels[j], levels2[j]), budget)
        except StepBudgetExceeded as exc:
            raise StepBudgetExceeded(
                f"{exc}; at right-spine level {j} of {h}, after {k - 1 - j} levels "
                f"found P_zero") from exc
        if _class(num, den) is not Classification.P_ZERO:
            return False
    comb = right_comb(max(t.size, t2.size))
    a = apply_word(Node(t, comb), pos_word(num))
    b = apply_word(Node(t2, comb), pos_word(den))
    assert a is not None and b is not None, "fraction must apply to the comb-extended terms"
    return a == b


def compare(t: Term, t2: Term, budget: int = DEFAULT_BUDGET) -> Classification:
    """The class of the blueprint difference chi(t)^-1.chi(t2) of two
    one-variable terms, emitted letter by letter into one list.  It orders
    the free system of rank 1 under iterated left division: P_PLUS means t
    is a proper iterated left divisor of t2, P_ZERO means t and t2 are
    equivalent, and P_MINUS means t2 is a proper iterated left divisor of
    t."""
    return classify(_difference(t, t2), budget)
