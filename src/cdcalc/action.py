"""The partial rewriting operators and their action on terms.

The positive letter at address a rewrites the subterm s0*(s1*s2) found at a
into (s0*s1)*(s1*s2), duplicating the central factor; the negative letter
undoes this, and is defined only when the two middle factors are literally
equal trees.  Words act letterwise, left to right.

`trace` computes the canonical pair of terms characterizing a composite
operator (its most general instance), and `oracle_equiv` is a brute-force
semi-decision of term equivalence by breadth-first search for a common
expansion, used as an independent check of the algebraic decision
procedures.
"""

import enum
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import SizeLimitExceeded
from .terms import (
    Leaf,
    Node,
    Term,
    first_occurrences,
    project,
    replace,
    same_spine,
    skeleton,
    substitute,
    subterm,
    unify,
)
from .words import Letter, Word

DEFAULT_MAX_SIZE = 10**6


def apply_letter(t: Term, letter: Letter) -> Optional[Term]:
    """Apply one signed letter at its address; None when the shape test fails."""
    s = subterm(t, letter.addr)
    if s is None or type(s) is Leaf:
        return None
    if letter.sign > 0:
        r = s.right
        if type(r) is Leaf:
            return None
        return replace(t, letter.addr, Node(Node(s.left, r.left), r))
    l, r = s.left, s.right
    if type(l) is Leaf or type(r) is Leaf or l.right != r.left:
        return None
    return replace(t, letter.addr, Node(l.left, r))


def apply_word(t: Term, w: Word, max_size: Optional[int] = None) -> Optional[Term]:
    """Left-to-right fold of apply_letter; None as soon as one step is undefined."""
    for letter in w:
        t = apply_letter(t, letter)
        if t is None:
            return None
        if max_size is not None and t.size > max_size:
            raise SizeLimitExceeded(f"term grew past {max_size} leaves while applying a word")
    return t


def apply_word_partial(t: Term, w: Word, max_size: Optional[int] = None):
    """Like apply_word but reports progress: (result or None, letters applied)."""
    done = 0
    for letter in w:
        nxt = apply_letter(t, letter)
        if nxt is None:
            return None, done
        if max_size is not None and nxt.size > max_size:
            raise SizeLimitExceeded(f"term grew past {max_size} leaves while applying a word")
        t = nxt
        done += 1
    return t, done


def expansions(t: Term):
    """All one-step expansions of t as (address, result) pairs, addresses in
    lexicographic order."""
    out = []
    stack = [("", t)]
    while stack:
        addr, cur = stack.pop()
        if type(cur) is Node:
            if type(cur.right) is Node:
                rewritten = Node(Node(cur.left, cur.right.left), cur.right)
                out.append((addr, replace(t, addr, rewritten)))
            stack.append((addr + "0", cur.left))
            stack.append((addr + "1", cur.right))
    out.sort(key=lambda pair: pair[0])
    return out


def iter_expansions(t: Term, steps: int):
    """Yield (step count, term) for every distinct expansion reachable from t
    in at most `steps` positive rewrites, breadth first."""
    seen = {t}
    level = [t]
    yield 0, t
    for k in range(1, steps + 1):
        nxt = []
        for s in level:
            for _, e in expansions(s):
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        nxt.sort(key=lambda term: (term.size, skeleton(term), tuple(first_occurrences(term))))
        for e in nxt:
            yield k, e
        level = nxt


class Trace(NamedTuple):
    """Canonical term pair (left, right): the operator maps t to t' exactly
    when (t, t') instantiates (left, right)."""

    left: Term
    right: Term


def _letter_pattern(letter: Letter, fresh: int):
    # Minimal term whose subterm at the letter's address has the shape the
    # letter requires; every other position on the way down is a fresh leaf.
    a, b, c = Leaf(fresh), Leaf(fresh + 1), Leaf(fresh + 2)
    fresh += 3
    if letter.sign > 0:
        core = Node(a, Node(b, c))
    else:
        core = Node(Node(a, b), Node(b, c))
    t = core
    for bit in reversed(letter.addr):
        sibling = Leaf(fresh)
        fresh += 1
        t = Node(t, sibling) if bit == "0" else Node(sibling, t)
    return t, fresh


def trace(w: Word) -> Optional[Trace]:
    """The canonical trace of the word w, or None when the operator is empty.

    Built one letter at a time: unify the running right term against the
    letter's defining pattern, push the unifier through the pair, rewrite,
    and finally rename variables to x1, x2, ... by first occurrence.
    """
    left = right = Leaf(1)
    fresh = 2
    for letter in w:
        pattern, fresh = _letter_pattern(letter, fresh)
        h = unify(right, pattern)
        if h is None:
            return None
        left = substitute(left, h)
        right = apply_letter(substitute(pattern, h), letter)
        assert right is not None, "letter must apply after unification with its pattern"
    renaming = {old: Leaf(i) for i, old in enumerate(first_occurrences(left), start=1)}
    return Trace(substitute(left, renaming), substitute(right, renaming))


class Verdict(enum.Enum):
    EQUIVALENT = "Equivalent"
    NOT_EQUIVALENT = "NotEquivalent"
    UNKNOWN = "Unknown"


@lru_cache(maxsize=8192)
def _closure(t: Term, depth: int) -> frozenset:
    """All expansions of t reachable in at most `depth` positive steps."""
    if depth == 0:
        return frozenset((t,))
    prev = _closure(t, depth - 1)
    frontier = prev - _closure(t, depth - 2) if depth >= 2 else prev
    fresh = set()
    for s in frontier:
        for _, e in expansions(s):
            if e not in prev:
                fresh.add(e)
    return prev | fresh


@lru_cache(maxsize=8192)
def _skeleton_map(t: Term, depth: int) -> dict:
    """skeleton -> term over the depth-closure of t.  Within one equivalence
    class a skeleton determines the term, so a clash here is a bug."""
    out = {}
    for s in _closure(t, depth):
        key = skeleton(s)
        if out.setdefault(key, s) != s:
            raise RuntimeError("two distinct equivalent terms share a skeleton; theory violated")
    return out


def _strictly_left_divides(low: frozenset, high: frozenset) -> bool:
    # Witness that some member of `high` has a proper iterated left subterm
    # inside `low`, i.e. low's class strictly left-divides high's class.
    for s in high:
        cur = s
        while type(cur) is Node:
            cur = cur.left
            if cur in low:
                return True
    return False


def oracle_equiv(t: Term, t2: Term, depth: int) -> Verdict:
    """Brute-force equivalence check, independent of the word-based procedures.

    EQUIVALENT comes only from an explicit common expansion within `depth`
    steps of both terms.  NOT_EQUIVALENT comes only from sound invariants:
    a right-spine variable profile mismatch, two distinct same-skeleton
    expansions (distinct terms with one skeleton are never equivalent), a
    strict iterated-left-divisor witness (no term is equivalent to a proper
    iterated left subterm of an equivalent term), or a refutation for the
    right subterms or the one-variable projections.  Anything else is UNKNOWN.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not same_spine(t, t2):
        return Verdict.NOT_EQUIVALENT
    if t == t2:
        return Verdict.EQUIVALENT
    for k in range(depth + 1):
        a, b = _skeleton_map(t, k), _skeleton_map(t2, k)
        if len(b) < len(a):
            a, b = b, a
        for key, s in a.items():
            other = b.get(key)
            if other is not None:
                return Verdict.EQUIVALENT if s == other else Verdict.NOT_EQUIVALENT
        low, high = _closure(t, k), _closure(t2, k)
        if _strictly_left_divides(low, high) or _strictly_left_divides(high, low):
            return Verdict.NOT_EQUIVALENT
    if type(t) is Node and type(t2) is Node:
        if oracle_equiv(t.right, t2.right, depth) is Verdict.NOT_EQUIVALENT:
            return Verdict.NOT_EQUIVALENT
    p, p2 = project(t), project(t2)
    if (p, p2) != (t, t2):
        if oracle_equiv(p, p2, depth) is Verdict.NOT_EQUIVALENT:
            return Verdict.NOT_EQUIVALENT
    return Verdict.UNKNOWN
