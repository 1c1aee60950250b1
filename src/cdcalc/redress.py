"""Word redressing: rewriting negative-positive letter pairs to fractions.

Every pair of addresses (a, b) has a positive complement word f_cd(a, b)
such that a.f_cd(a, b) and b.f_cd(b, a) present the same monoid element;
redressing repeatedly replaces a factor a^-1.b by f_cd(a, b).f_cd(b, a)^-1
until the word is a fraction: all positive letters before all negative
ones.  Redressing always terminates, and it is complete: two positive
words are equivalent exactly when their two complements are both empty.
That gives decision procedures for the positive-word and group word
problems, both exposed here.
"""

from typing import NamedTuple, Optional

from . import action
from .errors import StepBudgetExceeded
from .terms import size
from .words import (
    Letter,
    Word,
    inverse,
    is_positive,
    pos_word,
    positive_addresses,
    render_word,
)

DEFAULT_BUDGET = 10**6


def f_cd(alpha: str, beta: str):
    """The complement table on single addresses, as a tuple of addresses.

    Six cases: empty when alpha = beta; a00g when beta = a0g; a01g.a10g when
    beta = a10g; a1.a when beta = a1; b.b0 when alpha = b1; (beta,) otherwise.
    """
    if alpha == beta:
        return ()
    if beta.startswith(alpha):
        rest = beta[len(alpha):]
        if rest[0] == "0":
            return (alpha + "00" + rest[1:],)
        if rest == "1":
            return (alpha + "1", alpha)
        if rest.startswith("10"):
            tail = rest[2:]
            return (alpha + "01" + tail, alpha + "10" + tail)
        # beta = alpha.11... : disjoint enough, plain commutation
    if alpha == beta + "1":
        return (beta, beta + "0")
    return (beta,)


class Fraction(NamedTuple):
    """A word in fraction form: the positive numerator and denominator of
    num * den^-1."""

    num: Word
    den: Word

    def __str__(self):
        return f"{render_word(self.num)} | {render_word(self.den)}"


def redress(w: Word, budget: Optional[int] = None) -> Fraction:
    """Redress w to its unique fraction form, leftmost eligible factor first.

    Termination is guaranteed, but not speed: blueprint differences of
    random 32-leaf terms can need 10**6 to 10**7 steps.  `budget` (default
    10**6 replacement steps) is a resource limit; past it, redressing stops
    with StepBudgetExceeded.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    letters = list(w)
    steps = 0
    i = 0
    while i + 1 < len(letters):
        a, b = letters[i], letters[i + 1]
        if a.sign < 0 and b.sign > 0:
            steps += 1
            if steps > budget:
                raise StepBudgetExceeded(
                    f"redressing stopped at its budget after {budget} steps; the word "
                    f"has {len(letters)} letters, the input had {len(w)}")
            nums = f_cd(a.addr, b.addr)
            dens = f_cd(b.addr, a.addr)
            letters[i : i + 2] = [Letter(x, 1) for x in nums] + [
                Letter(x, -1) for x in reversed(dens)]
            i = max(i - 1, 0)
        else:
            i += 1
    boundary = len(letters)
    for k, letter in enumerate(letters):
        if letter.sign < 0:
            boundary = k
            break
    num = tuple(letters[:boundary])
    den = inverse(tuple(letters[boundary:]))
    if not (is_positive(num) and is_positive(den)):
        raise AssertionError("redressing stopped on a non-fraction word")
    return Fraction(num, den)


def complement(u: Word, v: Word, budget: Optional[int] = None) -> Word:
    """The positive complement u\\v: the numerator of redressing u^-1.v.
    Total on positive words."""
    positive_addresses(u)
    positive_addresses(v)
    return redress(inverse(u) + v, budget=budget).num


def pos_equiv(u: Word, v: Word, budget: Optional[int] = None) -> bool:
    """Decide equivalence of positive words: both complements must vanish."""
    return complement(u, v, budget=budget) == () and complement(v, u, budget=budget) == ()


def group_equiv(w: Word, w2: Word, budget: Optional[int] = None) -> bool:
    """Decide equivalence of arbitrary signed words in the presented group:
    redress w^-1.w2 and compare numerator with denominator."""
    fraction = redress(inverse(w) + w2, budget=budget)
    return pos_equiv(fraction.num, fraction.den, budget=budget)


def nu(u: Word) -> int:
    """The grading of a positive word: size difference of its trace pair.
    Equivalence-invariant, and strictly increased by prepending a letter."""
    positive_addresses(u)
    tr = action.trace(u)
    assert tr is not None, "positive words always have a nonempty operator"
    return size(tr.right) - size(tr.left)


def check_cube(a: str, b: str, c: str, budget: Optional[int] = None) -> bool:
    """The cube condition on a triple of addresses: the nested complement
    ((a\\b)\\(a\\c)) \\ ((b\\a)\\(b\\c)) must be empty, in both orientations."""
    x, y, z = pos_word([a]), pos_word([b]), pos_word([c])
    left = complement(complement(x, y, budget), complement(x, z, budget), budget)
    right = complement(complement(y, x, budget), complement(y, z, budget), budget)
    return (
        complement(left, right, budget) == ()
        and complement(right, left, budget) == ()
    )


def _addresses(maxlen: int):
    out = [""]
    level = [""]
    for _ in range(maxlen):
        level = [a + bit for a in level for bit in "01"]
        out.extend(level)
    return out


def cd_relations(maxlen: int):
    """All presentation relation pairs with parameter addresses of length
    at most maxlen.  Five families; each pair (w, w2) satisfies w == w2 both
    as operators and in the presented monoid."""
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    addresses = _addresses(maxlen)
    pairs = []
    for g in addresses:
        for a in addresses:
            for b in addresses:  # orthogonal positions commute
                pairs.append((pos_word([g + "0" + a, g + "1" + b]),
                              pos_word([g + "1" + b, g + "0" + a])))
            # the left subterm is copied to position 00
            pairs.append((pos_word([g + "0" + a, g]), pos_word([g, g + "00" + a])))
            # the central factor is duplicated at 01 and 10
            pairs.append((pos_word([g + "10" + a, g]),
                          pos_word([g, g + "01" + a, g + "10" + a])))
            # the right subterm is preserved
            pairs.append((pos_word([g + "11" + a, g]), pos_word([g, g + "11" + a])))
        # the characteristic relation of central duplication
        pairs.append((pos_word([g + "1", g, g + "0"]), pos_word([g, g + "1", g])))
    return pairs
