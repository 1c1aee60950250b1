"""Terms as binary trees with variable leaves.

A term is either a variable x1, x2, ... or a product t0*t1 of two terms.
Nodes are located by addresses: strings over {0, 1}, read left to right
from the root ("" is the root, "0" the left subterm, "1" the right one).

All values are immutable and all functions are pure.  Traversals are
iterative throughout so that very deep terms (left combs of ~10^6 leaves)
do not hit the interpreter recursion limit.
"""

from .errors import ParseError


class Term:
    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return Node(self, other)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is Leaf:
                if a.index != b.index:
                    return False
            else:
                stack.append((a.left, b.left))
                stack.append((a.right, b.right))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Term({render_term(self)!r})"


class Leaf(Term):
    """A variable occurrence; `index` >= 1 names the variable x_index."""

    __slots__ = ("index", "size", "_hash")

    def __init__(self, index):
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        self.index = index
        self.size = 1
        self._hash = hash((False, index))


class Node(Term):
    __slots__ = ("left", "right", "size", "_hash")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.size = left.size + right.size
        self._hash = hash((True, left._hash, right._hash))


X = Leaf(1)  # the variable x in one-variable contexts


def size(t: Term) -> int:
    """Number of variable occurrences (leaves) in t."""
    return t.size


def right_height(t: Term) -> int:
    """Length of the rightmost branch: 0 on a leaf, ht_r(t1) + 1 on t0*t1."""
    h = 0
    while type(t) is Node:
        t = t.right
        h += 1
    return h


def subterm(t: Term, address: str):
    """The subterm of t at `address`, or None when the address leaves the tree."""
    for bit in address:
        if type(t) is Leaf:
            return None
        t = t.left if bit == "0" else t.right
    return t


def replace(t: Term, address: str, s: Term) -> Term:
    """t with its subterm at `address` replaced by s. The address must be defined."""
    spine = []
    cur = t
    for bit in address:
        if type(cur) is Leaf:
            raise ValueError(f"address {address or 'phi'!r} undefined in {render_term(t)}")
        spine.append((cur, bit))
        cur = cur.left if bit == "0" else cur.right
    out = s
    for node, bit in reversed(spine):
        out = Node(out, node.right) if bit == "0" else Node(node.left, out)
    return out


def right_comb(p: int) -> Term:
    """The one-variable right comb of size p: x for p = 1, x*(comb of size p-1) after."""
    if p < 1:
        raise ValueError("right_comb needs p >= 1")
    t = X
    for _ in range(p - 1):
        t = Node(X, t)
    return t


def variables(t: Term):
    """Yield the leaf variable indices of t from left to right."""
    stack = [t]
    while stack:
        cur = stack.pop()
        if type(cur) is Leaf:
            yield cur.index
        else:
            stack.append(cur.right)
            stack.append(cur.left)


def first_occurrences(t: Term) -> list:
    """Distinct variable indices in order of first (leftmost) occurrence."""
    seen = set()
    out = []
    for i in variables(t):
        if i not in seen:
            seen.add(i)
            out.append(i)
    return out


def rightmost_variable(t: Term) -> int:
    while type(t) is Node:
        t = t.right
    return t.index


def spine_profile(t: Term) -> tuple:
    """The first-occurrence variable sequence of every iterated right
    subterm, from t itself down to its rightmost leaf.

    It encodes the right height, the rightmost variable and the variable
    order, and rewriting in either direction preserves it (see `decide`).
    Built bottom-up: level k is first_occurrences(left_k) followed by the
    part of level k+1 it has not seen, which costs O(n + h*v) for n leaves,
    right height h and v variables.  Equal consecutive levels share one
    tuple, so a one-variable profile is h+1 references to (1,).
    """
    lefts = []
    while type(t) is Node:
        lefts.append(t.left)
        t = t.right
    level = (t.index,)
    profile = [level]
    for left in reversed(lefts):
        head = first_occurrences(left)
        seen = set(head)
        nxt = tuple(head) + tuple(i for i in level if i not in seen)
        if nxt != level:
            level = nxt
        profile.append(level)
    profile.reverse()
    return tuple(profile)


def same_spine(t: Term, t2: Term) -> bool:
    """Whether t and t2 have one spine profile.  Compares the right heights
    and the rightmost variables first, and builds the profiles only when
    those agree."""
    if right_height(t) != right_height(t2) or rightmost_variable(t) != rightmost_variable(t2):
        return False
    return spine_profile(t) == spine_profile(t2)


def skeleton(t: Term):
    """The unlabelled tree shape of t, as nested pairs: () for a leaf."""
    work = [(t, False)]
    out = []
    while work:
        cur, done = work.pop()
        if type(cur) is Leaf:
            out.append(())
        elif done:
            right = out.pop()
            left = out.pop()
            out.append((left, right))
        else:
            work.append((cur, True))
            work.append((cur.right, False))
            work.append((cur.left, False))
    return out[0]


def canonicalize(t: Term) -> Term:
    """Rename variables so the first occurrences read x1, x2, ... left to right."""
    renaming = {old: Leaf(new) for new, old in enumerate(first_occurrences(t), start=1)}
    return substitute(t, renaming)


def project(t: Term) -> Term:
    """Replace every variable with x1 (keeps only the skeleton)."""
    return substitute(t, dict.fromkeys(variables(t), X))


def substitute(t: Term, mapping: dict) -> Term:
    """Apply the substitution {index: term} to t. Unmapped variables stay."""
    if not mapping:
        return t
    work = [(t, False)]
    out = []
    while work:
        cur, done = work.pop()
        if type(cur) is Leaf:
            out.append(mapping.get(cur.index, cur))
        elif done:
            right = out.pop()
            left = out.pop()
            if left is cur.left and right is cur.right:
                out.append(cur)
            else:
                out.append(Node(left, right))
        else:
            work.append((cur, True))
            work.append((cur.right, False))
            work.append((cur.left, False))
    return out[0]


def _walk(t, subst):
    while type(t) is Leaf and t.index in subst:
        t = subst[t.index]
    return t


def _occurs(index, t, subst):
    stack = [t]
    while stack:
        cur = _walk(stack.pop(), subst)
        if type(cur) is Leaf:
            if cur.index == index:
                return True
        else:
            stack.append(cur.left)
            stack.append(cur.right)
    return False


def unify(t1: Term, t2: Term):
    """Most general unifier of t1 and t2, or None on failure (occurs check).

    Variables with the same index in both terms are shared; renaming apart,
    when wanted, is the caller's job.  The result is idempotent: no bound
    variable occurs in any image.
    """
    subst = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = _walk(a, subst)
        b = _walk(b, subst)
        if a is b:
            continue
        if type(a) is Leaf and type(b) is Leaf:
            if a.index != b.index:
                subst[a.index] = b
        elif type(a) is Leaf:
            if _occurs(a.index, b, subst):
                return None
            subst[a.index] = b
        elif type(b) is Leaf:
            if _occurs(b.index, a, subst):
                return None
            subst[b.index] = a
        else:
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
    return {v: _resolve(img, subst) for v, img in subst.items()}


def _resolve(t, subst):
    # Expand a triangular binding chain into a fully substituted term.
    work = [(t, False)]
    out = []
    while work:
        cur, done = work.pop()
        if done:
            right = out.pop()
            left = out.pop()
            out.append(Node(left, right))
            continue
        cur = _walk(cur, subst)
        if type(cur) is Leaf:
            out.append(cur)
        else:
            work.append((cur, True))
            work.append((cur.right, False))
            work.append((cur.left, False))
    return out[0]


def render_term(t: Term) -> str:
    """Canonical text form: `x3` for leaves, `(t0 t1)` with a single space inside."""
    parts = []
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, str):
            parts.append(cur)
        elif type(cur) is Leaf:
            parts.append(f"x{cur.index}")
        else:
            stack.append(")")
            stack.append(cur.right)
            stack.append(" ")
            stack.append(cur.left)
            stack.append("(")
    return "".join(parts)


def parse_term(text: str) -> Term:
    """Parse the s-expression term grammar: term := var | '(' term term ')',
    var := 'x' [1-9][0-9]*, with arbitrary whitespace between tokens."""
    frames = []
    items = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            frames.append(items)
            items = []
            i += 1
        elif c == ")":
            if not frames:
                raise ParseError("unmatched ')'", i)
            if len(items) != 2:
                raise ParseError(f"'(...)' needs exactly 2 subterms, found {len(items)}", i)
            node = Node(items[0], items[1])
            items = frames.pop()
            items.append(node)
            i += 1
        elif c == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i + 1 : j]
            if not digits or digits[0] == "0":
                raise ParseError("variable must be 'x' followed by digits without leading zero", i)
            items.append(Leaf(int(digits)))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
        if not frames and len(items) > 1:
            raise ParseError("trailing input after complete term", i)
    if frames:
        raise ParseError("unclosed '('", n)
    if len(items) != 1:
        raise ParseError("empty input", 0)
    return items[0]
