"""Decision procedures built on the dilation invariant.

dil(i, u) tracks how a positive word u moves the i-th iterated left
subterm: applying u to t sends left^i(t) to an expansion sitting at
left^dil(i,u) of the image.  Only letters at addresses 0^p with p < i
deepen the left spine.  Comparing dil(1, -) of the numerator and denominator
of a redressed word is invariant under equivalence and classifies group
elements into P_minus / P_zero / P_plus; a blueprint difference lies in
P_zero exactly when the two terms are equivalent, which decides the word
problem, first for one-variable terms and then in general by projecting
and comparing one explicit pair of expansions.

Before any of that, both decisions refute pairs whose right-spine
profiles differ (`same_spine`), in O(n) and without redressing.
"""

import enum
from typing import Optional

from .action import apply_word
from .blueprint import chi, require_one_variable
from .redress import Fraction, redress
from .terms import Node, Term, project, right_comb, same_spine
from .words import Word, inverse, positive_addresses


def dil(i: int, u: Word) -> int:
    """Fold of the dilation step over a positive word: a letter at an
    all-zeros address 0^p with p < i bumps the count (the root is 0^0).

    Rewriting at 0^p strictly above the left spine sends the subterm at
    0^i to 0^(i+1); rewriting at or below 0^i, or anywhere off the spine,
    leaves the index alone.
    """
    if i < 0:
        raise ValueError("dil needs i >= 0")
    for addr in positive_addresses(u):
        if len(addr) < i and not addr.strip("0"):
            i += 1
    return i


class Classification(enum.Enum):
    P_MINUS = "P_minus"
    P_ZERO = "P_zero"
    P_PLUS = "P_plus"


def _classify_fraction(fraction: Fraction) -> Classification:
    den = dil(1, fraction.den)
    num = dil(1, fraction.num)
    if den == num:
        return Classification.P_ZERO
    return Classification.P_PLUS if den < num else Classification.P_MINUS


def classify(w: Word, budget: Optional[int] = None) -> Classification:
    """Compare dil(1, -) of the denominator and numerator of w's fraction."""
    return _classify_fraction(redress(w, budget=budget))


def _p_zero_fraction(t: Term, t2: Term, budget: Optional[int]) -> Optional[Fraction]:
    # The pipeline shared by decide and decide_one_var: spine reject, then
    # the blueprint difference of the projections, redressed and classified.
    # None refutes the pair; otherwise the P_zero fraction is returned.
    if not same_spine(t, t2):
        return None
    fraction = redress(inverse(chi(project(t))) + chi(project(t2)), budget=budget)
    if _classify_fraction(fraction) is not Classification.P_ZERO:
        return None
    return fraction


def decide_one_var(t: Term, t2: Term, budget: Optional[int] = None) -> bool:
    """Equivalence of one-variable terms: equal right heights, and the
    blueprint difference must classify as P_zero."""
    require_one_variable(t)
    require_one_variable(t2)
    return _p_zero_fraction(t, t2, budget) is not None


def decide(t: Term, t2: Term, budget: Optional[int] = None) -> bool:
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
    equivalent", and costs O(n) instead of a redressing.

    Otherwise project to one variable and classify the blueprint
    difference; when it passes, extend both terms by a tall right comb,
    apply the fraction's numerator on one side and denominator on the
    other (the blueprint acts on comb-extended terms, so both applications
    are defined, and definedness of positive words only depends on the
    skeleton), and compare the resulting expansions literally: distinct
    terms with one skeleton are never equivalent.  Every "yes" rests on
    that comparison.
    """
    fraction = _p_zero_fraction(t, t2, budget)
    if fraction is None:
        return False
    p = max(t.size, t2.size)
    a = apply_word(Node(t, right_comb(p)), fraction.num)
    b = apply_word(Node(t2, right_comb(p)), fraction.den)
    assert a is not None and b is not None, "fraction must apply to the comb-extended terms"
    return a == b


class Comparison(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


def compare(t: Term, t2: Term, budget: Optional[int] = None) -> Comparison:
    """Trichotomy of one-variable terms under iterated left division:
    LESS means t is a proper iterated left divisor of t2."""
    c = classify(inverse(chi(t)) + chi(t2), budget=budget)
    if c is Classification.P_ZERO:
        return Comparison.EQUAL
    return Comparison.LESS if c is Classification.P_PLUS else Comparison.GREATER

