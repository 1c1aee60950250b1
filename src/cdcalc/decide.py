"""Decision procedures built on the dilation invariant and the normal form.

dil(i, u) tracks how a positive word u moves the i-th iterated left
subterm: applying u to t sends left^i(t) to an expansion sitting at
left^dil(i,u) of the image.  Only letters at addresses 0^p with p < i
deepen the left spine.  Comparing dil(1, -) of the numerator and denominator
of a redressed word is invariant under equivalence and classifies group
elements into P_minus / P_zero / P_plus; the blueprint difference of two
one-variable terms lies in P_zero exactly when they are equivalent, and in
P_plus exactly when the first is a proper iterated left divisor of the
second, which is the order `compare` returns.  `_class` is the one place
that reads a fraction's class: `classify`, `compare` and
`freesystem.coset_eq` all go through it.

`decide` answers every term-equivalence question along one pipeline of
five steps.  (1) A right-spine reject, in O(1) on one-variable pairs,
which compares the right heights and `max_var` stored in each term, and
in O(n) on others, after the same O(1) height comparison.  (2) A
bottom-path reject on the one-variable projections, at one comparison of
stored right heights per step of the bottom path.  (3) The normal forms of
the two projections, compared by `terms._nf_equal` level by level up their
right spines, each level's children read from the right: the first child
that differs means "no".  (4) On a one-variable pair, "yes".  (5) On a pair of
several variables, one redressing of the top level's blueprint difference
and one literal comparison of the expansions its fraction builds.  Neither
reject builds a normal form, and no one-variable pair is redressed.
"""

import enum

from .action import apply_word
from .blueprint import _difference
from .errors import StepBudgetExceeded
from .redress import DEFAULT_BUDGET, _reverse
from .terms import Node, Term, _nf_equal, project, right_comb, same_spine
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

    Then compare the normal forms (NFs, `terms.normal_form`) of the two
    projections.  Read a one-variable term as a left comb x*c1*...*ck, that
    is ((x*c1)*c2)...*ck, with children c1..ck, and write P*a*b for (P*a)*b.
    Absorption: P*a*b ~ P*b, where ~ is equivalence, whenever
    b = a*s1*...*sm literally, m >= 1.  For m = 1 that is the identity with x = P, y = a,
    z = s1.  For m > 1 write b = b'*sm: P*b ~ (P*b')*b by the identity,
    P*b' ~ (P*a)*b' by induction, and ((P*a)*b')*b ~ (P*a)*b by the
    identity with x = P*a, y = b', z = sm.  By congruence it holds as well
    when b is only equivalent to a*s1*...*sm.

    Order lemma: if a and b are NFs and a is below b in the order `lex` of
    `terms._nf_codes`, then b ~ a*s1*...*sm for some m >= 1.  By induction
    on size(a) + size(b), with a = x*c1*...*ck and b = x*d1*...*dn: if the
    c's are a proper prefix of the d's, it holds literally.  Otherwise let i
    be the first index with c_i != d_i, so c_i is below d_i.  For j = i,
    ..., k in turn, c_j is at most c_i, since an NF's children do not
    increase, so it is below d_i; by induction d_i ~ c_j*s1*...*sm', and
    absorption read backwards gives x*c1*...*c_(j-1)*d_i ~ x*c1*...*c_j*d_i.
    After j = k, b ~ a*d_i*...*dn.

    So NF(t) ~ t: each child that NF(l*r) drops is below NF(r), which the
    lemma writes as that child followed by more, and absorption removes
    it.  And distinct NFs a and b are inequivalent: say a is below b; then
    b ~ a*s1*...*sm, a term with a as a proper iterated left subterm, and
    by the paper's acyclicity no term is equivalent to a proper iterated
    left subterm of an equivalent term (`compare` finds such a pair in
    P_plus, never P_zero, and `oracle_equiv` refutes with the same
    invariant).  Two one-variable terms are therefore equivalent exactly
    when their NFs are equal.  Projection keeps equivalence, so projections
    of distinct NFs refute the pair, and on a one-variable pair equal NFs
    mean "yes".  Neither answer redresses anything, and `budget` bounds
    nothing on a one-variable pair.

    `terms._nf_equal` reads the two NFs lazily, as codes of one
    `terms._nf_codes` call, which are hash-consed, so two codes are equal
    exactly when their NFs are.  Write q's right spine as levels q = l0*s1,
    s1 = l1*s2, ..., down to a leaf.  NF(l*r)'s last child is NF(r), so two
    terms with one NF have one NF at every level of their right spines; the
    levels are compared from the deepest up, and at each the NFs of the
    level below are one code m.  NF(l*r) pushes the NFs of l's children and
    then NF(r), each after popping the tops below it, and what a push leaves
    never increases from the bottom.  So it drops a child exactly when a
    later one, NF(r) included, is above it: that one's push pops it if
    nothing did before, and a child at least every later one is never
    popped.  So NF(l*r)'s children, read from the right, are NF(r) and then,
    of the NFs of l's children read top down, each that is at least every
    one kept before it.  Two levels whose NFs below are both m thus have one
    NF exactly when these kept sequences are equal.  Both are read in
    lockstep: the first pair of kept codes that differ, or one side running
    out first, means "no" without reading on; both running out together make
    the level's code the next level's m.  A level whose read meets a
    left-spine node read before in the same call, as on a tower that repeats
    one left factor, compares the two levels' codes whole instead.  So each
    spine node is read at most once, and since `number` memoises what the
    reads number, they add at most one `lex` call per distinct spine node to
    the work of numbering both terms.

    On a pair of several variables whose projections have one NF, the
    projections q, q2 are equivalent, so their blueprint difference
    chi(q)^-1.chi(q2) is in P_zero, and so is that of every level of their
    right spines: no lower level can refute.  The difference is emitted
    letter by letter into one list (`blueprint._difference`), each letter
    an (address, sign) pair made once at its final address, and redressed
    once, within `budget`; a budget error keeps the redressing's progress
    and says that the projections' NFs agree.  Extend both terms by one
    tall right comb, apply the fraction's numerator on one side and its
    denominator on the other (the blueprint acts on comb-extended terms, so
    both applications are defined, and definedness of positive words only
    depends on the skeleton), and compare the resulting expansions
    literally: distinct terms with one skeleton are never equivalent.  If
    the projections are equal, the fraction is empty, nothing is
    redressed, and the comparison is t == t2.  Every "yes" on several
    variables rests on that comparison.
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
    if not _nf_equal(q, q2):
        return False
    if t.max_var == 1:  # and so is t2's, by same_spine
        return True
    num = den = ()
    if q != q2:
        try:
            num, den = _reverse(_difference(q, q2), budget)
        except StepBudgetExceeded as exc:
            raise StepBudgetExceeded(
                f"{exc}; at the top level, whose projections have one normal form") from exc
    comb = right_comb(max(t.size, t2.size))
    a = apply_word(Node(t, comb), pos_word(num))
    b = apply_word(Node(t2, comb), pos_word(den))
    if a is None or b is None:  # an explicit check, so that python -O keeps it
        raise RuntimeError("the fraction does not apply to the comb-extended terms")
    return a == b


def compare(t: Term, t2: Term, budget: int = DEFAULT_BUDGET) -> Classification:
    """The class of the blueprint difference chi(t)^-1.chi(t2) of two
    one-variable terms, emitted letter by letter into one list.  It orders
    the free system of rank 1 under iterated left division: P_PLUS means t
    is a proper iterated left divisor of t2, P_ZERO means t and t2 are
    equivalent, and P_MINUS means t2 is a proper iterated left divisor of
    t."""
    return classify(_difference(t, t2), budget)
