"""Word redressing: rewriting negative-positive letter pairs to fractions.

Every pair of addresses (a, b) has a positive complement word f_cd(a, b)
such that a.f_cd(a, b) and b.f_cd(b, a) present the same monoid element;
redressing repeatedly replaces a factor a^-1.b by f_cd(a, b).f_cd(b, a)^-1
until the word is a fraction: all positive letters before all negative
ones.  Each such cell is one step.  Most cells are trivial: equal
addresses cancel, and disjoint addresses (neither a prefix of the other)
commute, a^-1.b becoming b.a^-1.  So a positive letter finds its next
nontrivial cell by scanning leftwards past the negatives it commutes with,
counting one step for each, and moves across the whole run at once; a
prefix-related cell reads f_cd's cases off the longer address inline.  By
the reversal grid, the fraction does not depend on the order of the cells.

Redressing always terminates; for positive u and v, one reversal of u^-1.v
yields both complements, as the fraction (u\\v).(v\\u)^-1, and u and v
are equivalent exactly when both are empty.  That decides the
positive-word and group word problems, both exposed here.

One core, `_reverse`, does the redressing on address strings and returns
the numerator and the denominator as lists of addresses.  `redress` wraps
them as a `Fraction` of positive words; `complement` builds only the
numerator's letters, `pos_equiv` and `group_equiv` none.  Callers that only
read addresses, such as `classify` and `decide`, call the core directly.
"""

from itertools import repeat
from typing import NamedTuple

from .errors import StepBudgetExceeded
from .words import Word, inverse, pos_word, positive_addresses, render_word

DEFAULT_BUDGET = 10**6


def f_cd(alpha: str, beta: str):
    """The complement table on single addresses, as a tuple of addresses.

    Six cases: empty when alpha = beta; a00g when beta = a0g; a01g.a10g when
    beta = a10g; a1.a when beta = a1; b.b0 when alpha = b1; (beta,) otherwise.
    `redress` mirrors these cases inline; the tests hold it to this table.
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


def redress(w: Word, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Redress w to its unique fraction form, leftmost eligible factor first.

    Termination is guaranteed, not speed: blueprint differences of random
    32-leaf terms can need 10**6 to 10**7 steps; past `budget` steps, an int
    (DEFAULT_BUDGET = 10**6), StepBudgetExceeded is raised.  `_reverse` does
    the work, on addresses; this builds the letters of both words.
    """
    num, den = _reverse(w, budget)
    return Fraction(pos_word(num), pos_word(den))


def _reverse(w: Word, budget: int):
    """The reversal core of `redress`: the numerator and the denominator of
    w's fraction as lists of addresses, the denominator in its own order.
    w may be a word or any sequence of (address, sign) pairs; `budget` is
    the int step bound of `redress`, which every caller passes.

    The word is held as addresses in a gap buffer: `left`, the letters
    before the gap, positives in left[:npos] and then negatives; `right`,
    the negatives after the gap, reversed; `pending`, the positives still
    to place, each tagged with len(right) when its cell made it, so that
    right[tag:] returns to `left` before its scan.  A positive letter y at
    the gap scans leftwards over the negatives of `left` to the first
    prefix-related one x, and the scan is applied at once: y escapes,
    cancels, or sends the passed run across the gap in one slice.  A prefix
    cell puts f_cd(y, x) on `right`; the first letter of f_cd(x, y) is then
    at the gap and scans on at once, and a second one waits on `pending`.

    Every cell, a passed commutation too, counts as one step, in the order
    of the reversal that takes the leftmost cell a^-1.b each time: the
    fraction, the step count and the budget error, with its word length,
    are that reversal's.  Handing a letter on skips a pop that would move
    nothing, so it changes no step.  An insertion or deletion in `left`
    shifts only the passed run, and a slice carries a letter across the gap
    only after a step passed it or a cell wrote it, and back at most once
    for that: O(1) amortised work per step.
    """
    left, right, pending = [], [], []
    npos = steps = read = 0
    while True:
        # both empty-run guards are kept for speed on garside's lcm and posequiv
        if pending:
            y, tag = pending.pop()
            if tag < len(right):
                left += reversed(right[tag:])
                del right[tag:]
        else:
            if right:
                left += reversed(right)
                right.clear()
            if read == len(w):
                break
            y, sign = w[read]
            read += 1
            if sign < 0:
                left.append(y)
                continue
        while True:  # y scans on until it escapes or cancels
            end = len(left)
            i = end - 1
            while i >= npos:
                x = left[i]
                if x.startswith(y) or y.startswith(x):
                    break
                i -= 1
            steps += end - i if i >= npos else end - npos
            if steps > budget:
                raise StepBudgetExceeded(
                    f"redressing stopped at its budget after {budget} steps; the word has "
                    f"{end + len(right) + len(pending) + 1 + len(w) - read} letters, "
                    f"the input had {len(w)}")
            if i < npos:
                left.insert(npos, y)
                npos += 1
                break
            if x == y:
                del left[i]
                break
            right += left[:i:-1]  # the passed run, reversed
            del left[i:]
            n, m = len(x), len(y)
            if n < m:  # y = x.r: f_cd(y, x) starts with x
                right.append(x)
                if y[n] == "0":
                    y = x + "0" + y[n:]
                elif m == n + 1:
                    right.append(x + "0")
                    pending.append((x, len(right)))
                elif y[n + 1] == "0":
                    pending.append((y, len(right)))
                    y = x + "01" + y[n + 2:]
            else:  # x = y.r: f_cd(x, y) starts with y
                if x[m] == "0":
                    right.append(y + "0" + x[m:])
                elif n == m + 1:
                    right += (x, y)
                    pending.append((y + "0", len(right)))
                elif x[m + 1] == "0":
                    right += (y + "01" + x[m + 2:], x)
                else:
                    right.append(x)
    return left[:npos], left[npos:][::-1]


def _over(u, v) -> list:
    """u^-1.v as (address, sign) pairs, from the address sequences of the
    positive words u and v."""
    return [*zip(reversed(u), repeat(-1)), *zip(v, repeat(1))]


def complement(u: Word, v: Word, budget: int = DEFAULT_BUDGET) -> Word:
    """The positive complement u\\v: the numerator of redressing u^-1.v.
    Total on positive words."""
    return pos_word(_reverse(_over(positive_addresses(u), positive_addresses(v)), budget)[0])


def pos_equiv(u: Word, v: Word, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide equivalence of positive words with one reversal: u^-1.v must
    redress to the empty fraction, so that both complements vanish."""
    return not any(_reverse(_over(positive_addresses(u), positive_addresses(v)), budget))


def group_equiv(w: Word, w2: Word, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide equivalence of arbitrary signed words in the presented group:
    redress w^-1.w2 to num.den^-1, then num^-1.den as `pos_equiv` does."""
    num, den = _reverse(inverse(w) + w2, budget)
    return not any(_reverse(_over(num, den), budget))
