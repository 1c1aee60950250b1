"""Garside-style distinguished words attached to terms.

Every term t carries a positive word delta(t), built from the powers
phi^(p) along the right spine, whose action on t is always defined.  The
expansion partial(t) = (t)delta(t) dominates short expansions: any word of
length n applicable to t left-divides the product of the first n deltas.
That yields common right multiples, right lcms, and the confluence of
expansions.  Outputs of iterated partial grow as towers of exponentials;
callers bound the iteration count, and a configurable size ceiling turns
runaway growth into a SizeLimitExceeded error instead of a hang.
"""

from typing import Optional

from .action import DEFAULT_MAX_SIZE, apply_letter, apply_word
from .errors import SizeLimitExceeded
from .redress import complement, pos_equiv
from .terms import Node, Term, render_term, right_height
from .words import Letter, Word, pos_word, positive_addresses, render_word, shift


def alpha_power(alpha: str, p: int) -> Word:
    """The descending product a1^(p-1) ... a1.a; the empty word for p <= 0."""
    return pos_word(alpha + "1" * k for k in range(p - 1, -1, -1))


def delta(t: Term, max_size: Optional[int] = None) -> Word:
    """The distinguished positive word of t.

    With h the right height and (t)phi^(h-1) = s0*(s1*(...(s_{h-1}*x)...)),
    this is phi^(h-1) followed by the deltas of the s_i shifted under
    1^i 0.  Empty on a leaf.  Definedness of the action is an invariant,
    not a precondition.

    With `max_size`, raise SizeLimitExceeded as soon as a spread term or a
    built word is larger.  That happens only where partial(t, max_size)
    raises anyway: every positive letter adds at least one leaf, so
    len(delta(t)) <= size(partial t) - size(t), and every spread is a
    subterm of an intermediate term of (t)delta(t).
    """
    return _delta(t, max_size)


def _delta(t: Term, max_size: Optional[int]) -> Word:
    memo = {}
    stack = [(t, None)]
    while stack:
        term, prepared = stack.pop()
        if term in memo:
            continue
        if prepared is None:
            h = right_height(term)
            if h == 0:
                memo[term] = ()
                continue
            # (term)phi^(h-1) is s0*(s1*(...(s_{h-1}*x))) with s_{h-1} the
            # last left factor of the right spine and s_i = left_i * s_{i+1}
            children, cur = [], term
            while type(cur) is Node:
                children.append(cur.left)
                cur = cur.right
            for i in range(h - 2, -1, -1):
                children[i] = Node(children[i], children[i + 1])
            if max_size is not None and 1 + sum(c.size for c in children) > max_size:
                raise SizeLimitExceeded(f"delta spread a term past {max_size} leaves")
            head = alpha_power("", h - 1)
            stack.append((term, (head, children)))
            stack.extend((child, None) for child in children if child not in memo)
        else:
            head, children = prepared
            out = list(head)
            for i, child in enumerate(children):
                out.extend(shift("1" * i + "0", memo[child]))
            if max_size is not None and len(out) > max_size:
                raise SizeLimitExceeded(
                    f"delta grew past {max_size} letters, so its expansion passes {max_size} leaves")
            memo[term] = tuple(out)
    return memo[t]


def partial(t: Term, max_size: Optional[int] = DEFAULT_MAX_SIZE) -> Term:
    """The expansion (t)delta(t)."""
    # perfbench's traced run swaps `delta` in this module for a one-argument
    # stand-in, so the limited computation is called by its own name.
    result = apply_word(t, _delta(t, max_size), max_size=max_size)
    assert result is not None, "every term lies in the domain of its delta"
    return result


def partial_iter(t: Term, n: int, max_size: Optional[int] = DEFAULT_MAX_SIZE) -> Term:
    """n-fold iteration of partial.  Tower-exponential: keep n small."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(n):
        t = partial(t, max_size=max_size)
    return t


def _checked(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(f"postcondition failed: {what}")


def delta_left_factor(t: Term, alpha: str) -> Word:
    """A positive v with alpha.v equivalent to delta(t), given that the
    letter alpha applies to t.  The postcondition is checked."""
    if apply_letter(t, Letter(alpha, 1)) is None:
        raise ValueError(
            f"letter {render_word(pos_word([alpha]))} does not apply to {render_term(t)}")
    head = pos_word([alpha])
    v = complement(head, delta(t))
    _checked(pos_equiv(head + v, delta(t)), "alpha.v matches delta(t)")
    return v


def delta_transport(t: Term, u: Word) -> Word:
    """A positive u2 with u.delta((t)u) equivalent to delta(t).u2, given
    that u applies to t.  The postcondition is checked."""
    positive_addresses(u)
    t2 = apply_word(t, u)
    if t2 is None:
        raise ValueError(f"word {render_word(u)} does not apply to {render_term(t)}")
    d, d2 = delta(t), delta(t2)
    u2 = complement(d, u + d2)
    _checked(pos_equiv(u + d2, d + u2), "delta transport")
    return u2


def delta_bound(t: Term, u: Word) -> Word:
    """A positive v with u.v equivalent to delta(t).delta(partial t)...,
    one delta factor per letter of u.  The postcondition is checked."""
    positive_addresses(u)
    if apply_word(t, u) is None:
        raise ValueError(f"word {render_word(u)} does not apply to {render_term(t)}")
    product = ()
    cur = t
    for _ in range(len(u)):
        d = delta(cur)
        product += d
        cur = apply_word(cur, d)
    v = complement(u, product)
    _checked(pos_equiv(u + v, product), "delta product bound")
    return v


def lcm(u: Word, v: Word) -> Word:
    """The right lcm u.(u\\v) of two positive words; checked against v.(v\\u)."""
    out = u + complement(u, v)
    _checked(pos_equiv(out, v + complement(v, u)), "lcm is symmetric")
    return out
