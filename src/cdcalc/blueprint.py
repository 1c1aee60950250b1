"""Blueprint words: the bridge from one-variable terms to group elements.

The blueprint of a one-variable term t records how rewriting turns a tall
right comb x^[p+1] into t*x^[p]: chi(x) is empty and chi(t0*t1) is
chi(t0) . 1chi(t1) . phi . 1chi(t1)^-1, i.e. the star operation below
applied to the sub-blueprints.
"""

from .terms import Leaf, Term, render_term
from .words import Word, inverse, pos_word, shift

PHI = pos_word([""])  # the single-letter word acting at the root


def star(u: Word, v: Word) -> Word:
    """u * v = u . 1v . phi . 1v^-1, on arbitrary signed words."""
    lifted = shift("1", v)
    return u + lifted + PHI + inverse(lifted)


def chi(t: Term) -> Word:
    """The blueprint of a one-variable term; the unique homomorphism into
    words under star that sends x to the empty word.  The one-variable
    precondition is checked in O(1), from `max_var`."""
    if t.max_var != 1:
        raise ValueError(f"one-variable term required (all leaves x1): {render_term(t)}")
    memo = {}
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in memo:
            continue
        if type(cur) is Leaf:
            memo[cur] = ()
        elif cur.left in memo and cur.right in memo:
            memo[cur] = star(memo[cur.left], memo[cur.right])
        else:
            stack.append(cur)
            stack.append(cur.right)
            stack.append(cur.left)
    return memo[t]
