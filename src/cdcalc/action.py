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
    return apply_word_partial(t, w, max_size)[0]


def apply_word_partial(t: Term, w: Word, max_size: Optional[int] = None):
    """apply_word with its progress: (result or None, letters applied)."""
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
    if steps < 0:
        raise ValueError("steps must be >= 0")
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
    """A three-valued answer to an equivalence question.  It is never read
    as a bool, so Unknown cannot pass for a "no"; compare with `is`."""

    EQUIVALENT = "Equivalent"
    NOT_EQUIVALENT = "NotEquivalent"
    UNKNOWN = "Unknown"

    def __bool__(self):
        raise TypeError(f"the verdict {self.value} cannot be coerced to a boolean")


def _strictly_left_divides(low: set, high: set) -> bool:
    # Witness that some member of `high` has a proper iterated left subterm
    # inside `low`, i.e. low's class strictly left-divides high's class.
    for s in high:
        cur = s
        while type(cur) is Node:
            cur = cur.left
            if cur in low:
                return True
    return False


def _search(t: Term, t2: Term, depth: int, shape: tuple, shape2: tuple) -> Verdict:
    # The closure search on one pair with skeletons shape, shape2, without the
    # spine check or descent.  Each side maps skeleton -> term over the
    # expansions found so far and grows by one positive step a round; within
    # one equivalence class a skeleton determines the term, so a clash on one
    # side is a bug.
    if t == t2:
        return Verdict.EQUIVALENT
    sides = (({shape: t}, [t]), ({shape2: t2}, [t2]))
    for k in range(depth + 1):
        for closure, frontier in sides if k else ():  # round 0 is the pair itself
            fresh = []
            for s in frontier:
                for _, e in expansions(s):
                    old = closure.setdefault(skeleton(e), e)
                    if old is e:
                        fresh.append(e)
                    elif old != e:
                        raise RuntimeError(
                            "two distinct equivalent terms share a skeleton; theory violated")
            frontier[:] = fresh
        a, b = sides[0][0], sides[1][0]
        for key in a.keys() & b.keys():  # one shared skeleton settles the pair
            return Verdict.EQUIVALENT if a[key] == b[key] else Verdict.NOT_EQUIVALENT
        low, high = set(a.values()), set(b.values())
        if _strictly_left_divides(low, high) or _strictly_left_divides(high, low):
            return Verdict.NOT_EQUIVALENT
    return Verdict.UNKNOWN


def oracle_equiv(t: Term, t2: Term, depth: int) -> Verdict:
    """Brute-force equivalence check, independent of the word-based procedures.

    EQUIVALENT comes only from an explicit common expansion within `depth`
    steps of both terms.  NOT_EQUIVALENT comes only from sound invariants:
    a right-spine variable profile mismatch, two distinct same-skeleton
    expansions (distinct terms with one skeleton are never equivalent), a
    strict iterated-left-divisor witness (no term is equivalent to a proper
    iterated left subterm of an equivalent term), or a refutation for the
    iterated right subterms or their one-variable projections.  Anything
    else is Unknown.

    The depth is swept: for d = 0, 1, ..., depth a pass walks the right
    spine from the top and searches every level pair (and, with several
    variables, its projections) at depth d, so a pair refuted cheaply deep
    down is never searched at full depth above.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not same_spine(t, t2):
        return Verdict.NOT_EQUIVALENT
    # Every letter keeps each iterated right subterm up to equivalence, so a
    # refutation at any level of the right spine refutes the pair.  One spine
    # profile makes both members nodes at every undecided level.  Projections
    # keep the skeletons, and each level's skeleton is the right half of the
    # one above.
    p, p2 = project(t), project(t2)
    one_var = (p, p2) == (t, t2)
    shape, shape2 = skeleton(t), skeleton(t2)
    for d in range(depth + 1):
        s, s2, q, q2, sh, sh2 = t, t2, p, p2, shape, shape2
        while True:
            verdict = _search(s, s2, d, sh, sh2)
            if verdict is Verdict.EQUIVALENT and s is not t:
                break  # the deeper levels of an equivalent pair are equivalent
            if verdict is not Verdict.UNKNOWN:
                return verdict
            if not one_var and _search(q, q2, d, sh, sh2) is Verdict.NOT_EQUIVALENT:
                return Verdict.NOT_EQUIVALENT
            s, s2, q, q2, sh, sh2 = s.right, s2.right, q.right, q2.right, sh[1], sh2[1]
    return Verdict.UNKNOWN
