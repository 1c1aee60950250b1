"""Blueprint words: the bridge from one-variable terms to group elements.

The blueprint of a one-variable term t records how rewriting turns a tall
right comb x^[p+1] into t*x^[p]: chi(x) is empty and chi(t0*t1) is
chi(t0) . 1chi(t1) . phi . 1chi(t1)^-1, i.e. the star operation below
applied to the sub-blueprints.

Blueprints are emitted, not composed (see `_emit`): no subterm's word is
copied into its parent's, and `decide` and `compare` emit their blueprint
differences chi(t)^-1 . chi(t2) into one list the same way (`_difference`),
as plain (address, sign) pairs, since redressing reads only those.
"""

from .terms import Node, Term, render_term
from .words import Word, _letter, inverse, pos_word, shift

PHI = pos_word([""])  # the single-letter word acting at the root


def star(u: Word, v: Word) -> Word:
    """u * v = u . 1v . phi . 1v^-1, on arbitrary signed words."""
    lifted = shift("1", v)
    return tuple(map(_letter, u)) + lifted + PHI + inverse(lifted)


def _emit(t: Term, sign: int, out: list) -> None:
    """Append chi(t) to `out` when sign is 1, chi(t)^-1 when it is -1, as
    plain (address, sign) pairs.

    A walk entry (s, prefix, sign) stands for chi(s)^sign shifted under
    `prefix`; an entry of two fields is the phi of an entry already split.
    chi(s0*s1) is chi(s0).1chi(s1).phi.1chi(s1)^-1 and its inverse is
    1chi(s1).phi^-1.1chi(s1)^-1.chi(s0)^-1: one middle block, with s0
    before it or after it, pushed in reverse.  Each pair is built once, at
    its final address; leaves emit nothing and are never pushed."""
    if t.max_var != 1:
        raise ValueError(f"one-variable term required (all leaves x1): {render_term(t)}")
    if type(t) is not Node:
        return
    append = out.append
    stack = [(t, "", sign)]
    pop, push = stack.pop, stack.append
    while stack:
        entry = pop()
        if len(entry) == 2:
            append(entry)
            continue
        cur, prefix, s = entry
        left, right = cur.left, cur.right
        if s < 0 and type(left) is Node:
            push((left, prefix, -1))
        if type(right) is Node:
            lifted = prefix + "1"
            push((right, lifted, -1))
            push((prefix, s))
            push((right, lifted, 1))
        else:
            push((prefix, s))
        if s > 0 and type(left) is Node:
            push((left, prefix, 1))


def chi(t: Term) -> Word:
    """The blueprint of a one-variable term; the unique homomorphism into
    words under star that sends x to the empty word, emitted pair by pair
    (see `_emit`) in time and memory linear in its length, and each pair
    then made a Letter.  The one-variable precondition is checked in O(1),
    from `max_var`."""
    out = []
    _emit(t, 1, out)
    return tuple(map(_letter, out))


def _difference(t: Term, t2: Term) -> list:
    """The blueprint difference chi(t)^-1 . chi(t2), emitted into one list
    of (address, sign) pairs."""
    out = []
    _emit(t, -1, out)
    _emit(t2, 1, out)
    return out
