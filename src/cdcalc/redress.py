"""Word redressing: rewriting negative-positive letter pairs to fractions.

Every pair of addresses (a, b) has a positive complement word f_cd(a, b)
such that a.f_cd(a, b) and b.f_cd(b, a) present the same monoid element;
redressing repeatedly replaces a factor a^-1.b by f_cd(a, b).f_cd(b, a)^-1
until the word is a fraction: all positive letters before all negative
ones.  Most such cells are trivial: equal addresses cancel, and disjoint
addresses (neither a prefix of the other) commute, so a^-1.b becomes
b.a^-1 with the same two letters moved; only prefix-related addresses
consult f_cd.  Each cell, trivial or not, is one step.

Redressing always terminates; for positive u and v, one reversal of u^-1.v
yields both complements, as the fraction (u\\v).(v\\u)^-1, and u and v
are equivalent exactly when both are empty.  That decides the
positive-word and group word problems, both exposed here.
"""

from typing import NamedTuple, Optional

from .errors import StepBudgetExceeded
from .words import Letter, Word, inverse, is_positive, positive_addresses, render_word

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

    One loop over two stacks: `done`, a prefix with no negative letter
    before a positive one, and `todo`, the rest of the word reversed.
    A cell a^-1.b with equal addresses cancels; with disjoint addresses it
    commutes, pushing the letters a and b themselves back as b.a^-1; only
    when one address is a proper prefix of the other does it consult f_cd.

    Termination is guaranteed, but not speed: blueprint differences of
    random 32-leaf terms can need 10**6 to 10**7 steps.  `budget` (default
    10**6 replacement steps) is a resource limit; past it, redressing stops
    with StepBudgetExceeded.  Every cell, a cancellation or commutation
    too, counts as one step.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    done, todo = [], list(reversed(w))
    steps = 0
    while todo:
        b = todo.pop()
        if b.sign > 0 and done and done[-1].sign < 0:
            steps += 1
            if steps > budget:
                raise StepBudgetExceeded(
                    f"redressing stopped at its budget after {budget} steps; the word "
                    f"has {len(done) + len(todo) + 1} letters, the input had {len(w)}")
            a = done.pop()
            x, y = a.addr, b.addr
            if x == y:
                continue
            if x.startswith(y) or y.startswith(x):
                todo += [Letter(z, -1) for z in f_cd(y, x)]
                todo += [Letter(z, 1) for z in reversed(f_cd(x, y))]
            else:
                todo += (a, b)
        else:
            done.append(b)
    num = tuple(letter for letter in done if letter.sign > 0)
    den = inverse(done[len(num):])
    if not is_positive(den):
        raise AssertionError("redressing stopped on a non-fraction word")
    return Fraction(num, den)


def complement(u: Word, v: Word, budget: Optional[int] = None) -> Word:
    """The positive complement u\\v: the numerator of redressing u^-1.v.
    Total on positive words."""
    positive_addresses(u)
    positive_addresses(v)
    return redress(inverse(u) + v, budget=budget).num


def pos_equiv(u: Word, v: Word, budget: Optional[int] = None) -> bool:
    """Decide equivalence of positive words with one reversal: u^-1.v must
    redress to the empty fraction, so that both complements vanish."""
    positive_addresses(u)
    positive_addresses(v)
    return redress(inverse(u) + v, budget=budget) == Fraction((), ())


def group_equiv(w: Word, w2: Word, budget: Optional[int] = None) -> bool:
    """Decide equivalence of arbitrary signed words in the presented group:
    redress w^-1.w2 and compare numerator with denominator."""
    fraction = redress(inverse(w) + w2, budget=budget)
    return pos_equiv(fraction.num, fraction.den, budget=budget)
