"""The partial rewriting operators and their action on terms.

The positive letter at address a rewrites the subterm s0*(s1*s2) found at a
into (s0*s1)*(s1*s2), duplicating the central factor; the negative letter
undoes this, and is defined only when the two middle factors are literally
equal trees.  Words act letterwise, left to right.

`trace` gives the canonical term pair of a composite operator by one walk
per letter down the running right term, and `oracle_equiv` semi-decides
term equivalence by breadth-first search for a common expansion, an
independent check of the algebraic decision procedures.
"""

import enum
from itertools import count
from typing import NamedTuple, Optional

from .errors import SizeLimitExceeded
from .terms import (
    Leaf,
    Node,
    Term,
    _walk,
    canonicalize,
    project,
    resolve,
    same_spine,
    skeleton,
    unify_into,
)
from .words import Word


def apply_letter(t: Term, letter: tuple) -> Optional[Term]:
    """Apply one signed letter, an (address, sign) pair, at its address; None
    where the address leaves the tree or the shape test fails.  One descent
    keeps the path, and the rewritten subterm is rebuilt up it, sharing
    every subterm off the path."""
    path, s = [], t
    for bit in letter[0]:
        if type(s) is Leaf:
            return None
        path.append((s, bit))
        s = s.left if bit == "0" else s.right
    if type(s) is Leaf:
        return None
    l, r = s.left, s.right
    if letter[1] > 0:
        if type(r) is Leaf:
            return None
        out = Node(Node(l, r.left), r)
    else:
        if type(l) is Leaf or type(r) is Leaf or l.right != r.left:
            return None
        out = Node(l.left, r)
    for n, bit in reversed(path):
        out = Node(out, n.right) if bit == "0" else Node(n.left, out)
    return out


def apply_word(t: Term, w: Word) -> Optional[Term]:
    """Left-to-right fold of apply_letter; None as soon as one step is undefined."""
    return apply_word_partial(t, w)[0]


def apply_word_partial(t: Term, w: Word, max_size: Optional[int] = None):
    """apply_word with its progress: (result or None, letters applied).

    With `max_size`, raise SizeLimitExceeded when an intermediate term
    passes it.  Unlike the Garside functions, this defaults to no ceiling,
    the library's one unbounded mode: `decide`'s certificate applies
    fractions to comb-extended terms, and comb_20 against partial(comb_20)
    puts 2 x 524,288 = 1,048,576 leaves under the root, past 10^6."""
    done = 0
    for letter in w:
        nxt = apply_letter(t, letter)
        if nxt is None:
            return None, done
        if max_size is not None and nxt.size > max_size:
            raise SizeLimitExceeded(f"term grew past {max_size} leaves at letter {done + 1} of {len(w)}")
        t = nxt
        done += 1
    return t, done


def expansions(t: Term):
    """All one-step expansions of t as (address, result) pairs, addresses in
    lexicographic order, which is the preorder of the walk; each result is
    t under the positive letter at its address."""
    out = []
    stack = [("", t)]
    while stack:
        addr, cur = stack.pop()
        if type(cur) is Node:
            if type(cur.right) is Node:
                out.append((addr, apply_letter(t, (addr, 1))))
            stack.append((addr + "1", cur.right))
            stack.append((addr + "0", cur.left))
    return out


def iter_expansions(t: Term, steps: int):
    """Yield (step count, term) for every distinct expansion reachable from t
    in at most `steps` positive rewrites, breadth first; a round that finds
    no new skeleton ends the walk."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    key = skeleton(t)
    closure, level = {key: t}, [key]
    yield 0, t
    for k in range(1, steps + 1):
        # a skeleton is 2 * size - 1 long: this is the (size, skeleton) order
        level = sorted(_grow(closure, level), key=lambda shape: (len(shape), shape))
        if not level:
            return
        for key in level:
            yield k, closure[key]


def _grow(closure: dict, frontier: list) -> list:
    # One positive step from the frontier's skeletons into the closure, a
    # skeleton -> term dict over one equivalence class; returns the new
    # skeletons.  Within one class a skeleton determines the term, so a
    # clash is a bug.
    fresh = []
    for key in frontier:
        for _, e in expansions(closure[key]):
            shape = skeleton(e)
            old = closure.setdefault(shape, e)
            if old is e:
                fresh.append(shape)
            elif old != e:
                raise RuntimeError(
                    "two distinct equivalent terms share a skeleton; theory violated")
    return fresh


class Trace(NamedTuple):
    """Canonical term pair (left, right): the operator maps t to t' exactly
    when (t, t') instantiates (left, right)."""

    left: Term
    right: Term


def trace(w: Word) -> Optional[Trace]:
    """The canonical trace of the word w, or None when the operator is empty.

    Each letter walks the running right term to its address through one
    triangular store.  A variable met where the letter needs a product is bound
    to a product of two fresh ones, which occur nowhere yet, so no occurs check
    runs; these bindings give the least instance on which the letter's shape
    exists.  A negative letter then unifies its middle factors, the one
    equality it needs and the only step that can fail.  The letter reads only
    the shape along its path, so rewriting it commutes with every instance.
    """
    subst, fresh, right = {}, count(2), Leaf(1)

    def node(t):
        t = _walk(t, subst)
        if type(t) is Leaf:
            subst[t.index] = t = Node(Leaf(next(fresh)), Leaf(next(fresh)))
        return t

    for addr, sign in w:
        path, s = [], node(right)
        for bit in addr:
            path.append((s, bit))
            s = node(s.left if bit == "0" else s.right)
        if sign > 0:
            r = node(s.right)
            right = Node(Node(s.left, r.left), r)
        else:
            l, r = node(s.left), node(s.right)
            if not unify_into(l.right, r.left, subst):
                return None
            right = Node(l.left, r)
        for n, bit in reversed(path):
            right = Node(right, n.right) if bit == "0" else Node(n.left, right)
    pair = canonicalize(Node(resolve(Leaf(1), subst), resolve(right, subst)))
    return Trace(pair.left, pair.right)


class Verdict(enum.Enum):
    """A three-valued answer to an equivalence question.  It is never read
    as a bool, so Unknown cannot pass for a "no"; compare with `is`."""

    EQUIVALENT = "Equivalent"
    NOT_EQUIVALENT = "NotEquivalent"
    UNKNOWN = "Unknown"

    def __bool__(self):
        raise TypeError(f"the verdict {self.value} cannot be coerced to a boolean")


def _strictly_left_divides(low: dict, high: dict) -> bool:
    # Witness that some member of closure `high` has a proper iterated left
    # subterm in closure `low`, i.e. low's class strictly left-divides high's.
    # With key the skeleton of cur, cur.left's is key[1:2 * cur.left.size].
    for key, cur in high.items():
        while type(cur) is Node:
            cur = cur.left
            key = key[1:2 * cur.size]
            if low.get(key) == cur:
                return True
    return False


def _search(t: Term, t2: Term, depth: int, shape: str, shape2: str) -> Verdict:
    # The closure search on one pair with skeletons shape, shape2, without the
    # spine check or descent.  Each side's closure maps skeleton -> term over
    # the expansions found so far and grows by one positive step a round.
    a, b, front, front2 = {shape: t}, {shape2: t2}, [shape], [shape2]
    for k in range(depth + 1):
        if k:  # round 0 is the pair itself: its skeleton check settles equal pairs too
            front, front2 = _grow(a, front), _grow(b, front2)
        for key in a.keys() & b.keys():  # one shared skeleton settles the pair
            return Verdict.EQUIVALENT if a[key] == b[key] else Verdict.NOT_EQUIVALENT
        if _strictly_left_divides(a, b) or _strictly_left_divides(b, a):
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
    # keep the skeletons, and each level's skeleton is a suffix of the one
    # above: its right half, from index 2 * left.size.
    p, p2 = project(t), project(t2)
    one_var = t.max_var == 1  # and so is t2's, by same_spine
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
            sh, sh2 = sh[2 * s.left.size:], sh2[2 * s2.left.size:]
            s, s2, q, q2 = s.right, s2.right, q.right, q2.right
    return Verdict.UNKNOWN
