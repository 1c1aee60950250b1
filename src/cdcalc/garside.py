"""Garside-style distinguished words attached to terms.

Every term t carries a positive word delta(t), built from the powers
phi^(p) along the right spine, whose action on t is always defined.  The
expansion partial(t) = (t)delta(t) dominates short expansions: any word of
length n applicable to t left-divides the product of the first n deltas.
That yields common right multiples, right lcms, and the confluence of
expansions.  delta is read off lists of left factors down right spines,
without building the terms it spreads.  partial is built directly, as a
product of the partials of smaller terms, without spelling out delta(t) or
applying it.  Outputs of iterated partial grow as towers of exponentials;
callers bound the iteration count, and a configurable size ceiling turns
runaway growth into a SizeLimitExceeded error instead of a hang.
"""

from .action import apply_word
from .errors import SizeLimitExceeded
from .redress import DEFAULT_BUDGET, complement
from .terms import Node, Term, render_term
from .words import Word, _letter, positive_addresses, render_word

DEFAULT_MAX_SIZE = 10**6


def delta(t: Term, max_size: int = DEFAULT_MAX_SIZE) -> Word:
    """The distinguished positive word of t.

    With h the right height, left factors l_0 ... l_{h-1} down the right
    spine and rightmost leaf x, (t)phi^(h-1) = s0*(s1*(...(s_{h-1}*x)...))
    with the spreads s_{h-1} = l_{h-1} and s_i = l_i * s_{i+1}.  delta(t)
    is phi^(h-1) followed by the deltas of the s_i shifted under 1^i 0.
    Empty on a leaf.  Definedness of the action is an invariant, not a
    precondition.

    No spread is built.  A list L at an index k stands for the right-nested
    product L[k] * (L[k+1] * (... * L[-1])), whose left factors down the
    right spine are L[k:-1] followed by those of L[-1].  So s_k is the list
    l_0 ... l_{h-1} at k, and each spread's spreads come from its list alike.

    One ceiling bounds what is built, the word: SizeLimitExceeded as soon
    as it passes `max_size` letters, 10^6 by default.  It counts no
    spread's leaves, since no spread is built.  delta raises only where
    partial(t, max_size) raises anyway: every positive letter adds at
    least one leaf, so len(delta(t)) <= size(partial t) - size(t).
    """
    # Preorder over spreads, leaves skipped: each letter is built once, at
    # its final address, and nothing is kept but the output.  s_0 is walked
    # next and the other spreads wait on the stack.
    out, stack = [], []
    lst, i, prefix = [t], 0, ""
    while True:
        spine, cur = lst[i:-1], lst[-1]
        while type(cur) is Node:
            spine.append(cur.left)
            cur = cur.right
        h = len(spine)
        if h > 1:
            out.extend([_letter((prefix + "1" * k, 1)) for k in range(h - 2, -1, -1)])
            if len(out) > max_size:
                raise SizeLimitExceeded(
                    f"delta grew past {max_size} letters, so its expansion passes {max_size} leaves")
            # s_{h-1} = l_{h-1} may be a leaf; the other spreads are products
            if type(spine[-1]) is Node:
                stack.append((spine, h - 1, prefix + "1" * (h - 1) + "0"))
            if h > 2:
                stack.extend([(spine, k, prefix + "1" * k + "0") for k in range(h - 2, 0, -1)])
        elif h == 0 or type(spine[0]) is not Node:
            if not stack:
                return tuple(out)
            lst, i, prefix = stack.pop()
            continue
        lst, i, prefix = spine, 0, prefix + "0"


def partial(t: Term, max_size: int = DEFAULT_MAX_SIZE) -> Term:
    """The expansion (t)delta(t), built from the partials of smaller terms.

    With the spreads s_i and the rightmost leaf x of delta's docstring,
    partial(t) = partial(s0)*(partial(s1)*(...(partial(s_{h-1})*x)...)).
    phi^(h-1) spreads t, and the letters of each delta(s_i) sit under 1^i 0,
    so each delta(s_i) rewrites its own s_i in place, in a subtree disjoint
    from the others.  For t = t0*t1 the part after partial(s0) is
    partial(t1), and s0 is t less its rightmost leaf, so
    partial(t) = partial(s0) * partial(t1); a leaf is its own partial.  A
    memo for the call maps each term met to its partial, so equal subterms
    of the result are one shared object.

    Raises SizeLimitExceeded exactly when size(partial t) > max_size: the
    finished parts awaiting assembly are disjoint subtrees of the result,
    and their total is checked whenever it grows.
    """
    # memo: term u -> (partial u, s0 of u); s0 of u0*u1 is u0 * (s0 of u1),
    # or u0 when u1 is a leaf, so each new term costs two nodes
    memo = {}
    done, total = [], 0  # finished partials, and their summed size
    todo = [(0, t, None)]
    while todo:
        stage, u, spread = todo.pop()
        if stage == 0:
            if type(u) is Node:
                hit = memo.get(u)
                if hit is None:
                    todo.append((1, u, None))
                    todo.append((0, u.right, None))
                    continue
                u = hit[0]
            done.append(u)
            total += u.size
            if total > max_size:
                raise SizeLimitExceeded(
                    f"partial grew past {max_size} leaves: its finished parts hold {total}")
        elif stage == 1:
            # partial(u1) is done: build s0 of u, then its partial
            r = u.right
            spread = u.left if type(r) is not Node else Node(u.left, memo[r][1])
            todo.append((2, u, spread))
            todo.append((0, spread, None))
        else:
            p = Node(done.pop(), done.pop())
            memo[u] = (p, spread)
            done.append(p)
    return done[0]


def partial_iter(t: Term, n: int, max_size: int = DEFAULT_MAX_SIZE) -> Term:
    """n-fold iteration of partial.  Tower-exponential: keep n small."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(n):
        t = partial(t, max_size=max_size)
    return t


def delta_transport(t: Term, u: Word) -> Word:
    """A positive u2 with u.delta((t)u) equivalent to delta(t).u2, given
    that u applies to t: the complement delta(t)\\(u.delta((t)u)), from one
    reversal.  delta(t) left-divides u.delta((t)u), so by the reversal grid
    the equivalence holds; the tests check it.  Both deltas run under
    delta's default ceiling of 10^6 letters."""
    positive_addresses(u)
    t2 = apply_word(t, u)
    if t2 is None:
        raise ValueError(f"word {render_word(u)} does not apply to {render_term(t)}")
    return complement(delta(t), u + delta(t2))


def lcm(u: Word, v: Word, budget: int = DEFAULT_BUDGET) -> Word:
    """The right lcm u.(u\\v), from one reversal of u^-1.v, which `budget`
    bounds.  It equals v.(v\\u) by the reversal grid; the tests check that."""
    return u + complement(u, v, budget=budget)
