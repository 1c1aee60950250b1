"""Terms as binary trees with variable leaves.

A term is either a variable x1, x2, ... or a product t0*t1 of two terms.
Nodes are located by addresses: strings over {0, 1}, read left to right
from the root ("" is the root, "0" the left subterm, "1" the right one).

Three kinds of state are written, and no equality, hash value or
rendering depends on any of them.  `unify_into` extends its caller's
binding store in place.  A product stores its hash on first use (below),
the value a fresh computation would give.  And `parse_term` and
`words.parse_word` write the module table below, which decides only which
object a parse returns.  Every other function is pure.  Traversals are
iterative, and derived values such as skeletons are flat strings, so very
deep terms (left combs of ~10^6 leaves) never recurse, in Python or in C.

Every term carries three values set at construction: `size`, its number
of leaves, `max_var`, its largest variable index, so `t.max_var == 1`
tells a one-variable term in O(1), and `right_height`, the length of its
rightmost branch, so two right heights compare in O(1).  A leaf's hash
is set at construction too, but a product's is stored on first use: its
first hash fills in its own and those of its unhashed subterms, so terms
that are only built, as Garside expansions mostly are, never pay for
one.

`parse_term` and `words.parse_word` intern what they parse, through
`_intern`, in one module-level table: a term text maps to its term, a
word text t, under the key (t,), to its word, a variable token to its
leaf (x1 is `X`), the int id(left) << 64 | id(right) to the product of
left and right, and (sign, addr) to the `Letter` of that address and
sign, through `_shared`.  A product key is one int, injective since an
id is below 2**64, and it stays valid because the product it maps to
keeps both children alive.  Equal texts come back as one object without
a second scan; equal subterms of the parses the table still holds are
one object, and so are equal letters of the words it still holds.
After every scan, failed ones included, the table is emptied in place if
it holds more than _MAX_ENTRIES = 2**14 entries, letters, leaves and
products counted, or if the texts scanned since it was last emptied,
stored or not, hold more than _MAX_CHARS = 2**20 characters.
"""

from itertools import chain
from string import whitespace

from .errors import ParseError


class Term:
    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return Node(self, other)

    def __eq__(self, other):
        """Literal equality, in the size of the two terms' DAGs.  One walk
        over pairs of subterms skips an identical pair and a pair already
        met in this call, and rejects on type, on the stored size and on a
        leaf's index.  The first unequal pair ends the walk, so a pair met
        before is equal or still being compared, and shared subterms are
        compared once, not once per path to them."""
        if not isinstance(other, Term):
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a.size != b.size:
                return False
            if type(a) is Leaf:
                if a.index != b.index:
                    return False
                continue
            key = (id(a), id(b))
            if key not in seen:
                seen.add(key)
                stack.append((a.left, b.left))
                stack.append((a.right, b.right))
        return True

    def __hash__(self):
        """hash((True, hash(left), hash(right))) on a product, filled in on
        first use by one postorder over the nodes not hashed yet, so that
        deep terms never recurse; a leaf's is set at construction."""
        if self._hash is None:
            stack = [self]
            while stack:
                u = stack[-1]
                left, right = u.left, u.right
                if left._hash is None:
                    stack.append(left)
                elif right._hash is None:
                    stack.append(right)
                else:
                    stack.pop()
                    u._hash = hash((True, left._hash, right._hash))
        return self._hash

    def __repr__(self):
        return f"Term({render_term(self)!r})"


class Leaf(Term):
    """A variable occurrence; `index` >= 1 names the variable x_index, and
    is also the leaf's `max_var`.  Every leaf has right height 0, a class
    attribute rather than a slot, so a leaf stays 64 bytes."""

    __slots__ = ("index", "size", "max_var", "_hash")
    right_height = 0

    def __init__(self, index):
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        self.index = self.max_var = index
        self.size = 1
        self._hash = hash((False, index))


class Node(Term):
    """The product left*right; `size` counts its leaves, `max_var` is the
    larger of its children's and `right_height` is one more than right's,
    all three stored at construction.  `_hash` starts as None and is
    stored on first use (see Term.__hash__)."""

    __slots__ = ("left", "right", "size", "max_var", "right_height", "_hash")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.size = left.size + right.size
        a, b = left.max_var, right.max_var
        self.max_var = a if a > b else b
        self.right_height = right.right_height + 1
        self._hash = None


X = Leaf(1)  # the variable x in one-variable contexts


def right_height(t: Term) -> int:
    """Length of the rightmost branch: 0 on a leaf, ht_r(t1) + 1 on t0*t1;
    the value stored at construction."""
    return t.right_height


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
    return list(dict.fromkeys(variables(t)))


def spine_profile(t: Term) -> tuple:
    """The first-occurrence variable sequence of every iterated right
    subterm, from t itself down to its rightmost leaf.

    It encodes the right height, the rightmost variable (last level) and the
    variable order; rewriting in either direction preserves it (see `decide`).
    Built bottom-up: level k is the first occurrences in the variables of
    left_k followed by level k+1, which costs O(n + h*v) for n leaves,
    right height h and v variables.
    """
    lefts = []
    while type(t) is Node:
        lefts.append(t.left)
        t = t.right
    level = (t.index,)
    profile = [level]
    for left in reversed(lefts):
        level = tuple(dict.fromkeys(chain(variables(left), level)))
        profile.append(level)
    profile.reverse()
    return tuple(profile)


def same_spine(t: Term, t2: Term) -> bool:
    """Whether t and t2 have one spine profile.  First the stored right
    heights are compared.  When they agree and either term has one
    variable, the answer is whether both do, in O(1): a one-variable profile
    is (1,) at every level, and any other has two variables at level 0.
    Otherwise both profiles are built and compared, in O(n + h*v); their
    last levels are the rightmost variables."""
    if t.right_height != t2.right_height:
        return False
    if t.max_var == 1 or t2.max_var == 1:
        return t.max_var == t2.max_var
    return spine_profile(t) == spine_profile(t2)


def skeleton(t: Term) -> str:
    """The tree shape of t as a preorder string, "1" per node and "0" per leaf:
    2*size - 1 characters, a node's right half starting at index 2 * left.size.
    Codes are prefix-free and sort as shapes: leaf, then by left, then right."""
    code = []
    stack = [t]
    while stack:
        cur = stack.pop()
        code.append("1" if type(cur) is Node else "0")
        if type(cur) is Node:
            stack += (cur.right, cur.left)
    return "".join(code)


def canonicalize(t: Term) -> Term:
    """Rename variables so the first occurrences read x1, x2, ... left to right,
    keeping (not copying) every subterm the renaming leaves alone."""
    renaming = {old: Leaf(new) for new, old in enumerate(first_occurrences(t), start=1)
                if old != new}
    return substitute(t, renaming)


def project(t: Term) -> Term:
    """Replace every variable with x1, keeping (not copying) subterms of x1 alone;
    a one-variable term comes back as itself without a walk, kept for speed
    on decide-random's `decide` queries."""
    if t.max_var == 1:
        return t
    return substitute(t, {i: X for i in variables(t) if i != 1})


def substitute(t: Term, mapping: dict) -> Term:
    """Apply the substitution {index: term} to t. Unmapped variables stay,
    and t comes back itself when nothing in it maps."""
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


def unify_into(t1: Term, t2: Term, subst: dict) -> bool:
    """Extend the triangular substitution `subst` (an image may hold bound
    variables) in place to a most general unifier of t1 and t2; False on
    failure (occurs check), when `subst` may hold part of the new bindings."""
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = _walk(a, subst)
        b = _walk(b, subst)
        if a is b:
            continue
        if type(a) is Node and type(b) is Node:
            stack += ((a.left, b.left), (a.right, b.right))
            continue
        if type(a) is Node:
            a, b = b, a
        if type(b) is Leaf and b.index == a.index:
            continue
        if _occurs(a.index, b, subst):
            return False
        subst[a.index] = b
    return True


def resolve(t: Term, subst: dict) -> Term:
    """t under the triangular substitution `subst`, with every binding chain
    expanded, keeping (not copying) every subterm that holds no bound variable."""
    work = [(t, False)]
    out = []
    while work:
        cur, done = work.pop()
        if done:
            right = out.pop()
            left = out.pop()
            out.append(cur if left is cur.left and right is cur.right else Node(left, right))
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


_MAX_ENTRIES = 1 << 14
_MAX_CHARS = 1 << 20
_table = {}
_chars = 0  # characters of the texts scanned since _table was last emptied


def _intern(key, text, scan):
    """The value stored under `key`, or else scan(text), stored under `key`;
    after a scan, failed ones included, the table is emptied if it is past
    either bound (see the module docstring)."""
    global _chars
    value = _table.get(key)
    if value is None:
        try:
            value = _table[key] = scan(text)
        finally:
            _chars += len(text)
            if _chars > _MAX_CHARS or len(_table) > _MAX_ENTRIES:
                _table.clear()
                _chars = 0
    return value


def _shared(key, make, arg):
    """The value stored under `key`, or else make(arg), stored under `key`,
    for a scan's parts: it checks no bound and counts no characters, since
    `_intern` does both once the scan ends."""
    value = _table.get(key)
    if value is None:
        value = _table[key] = make(arg)
    return value


def parse_term(text: str) -> Term:
    """Parse the s-expression term grammar: term := var | '(' term term ')',
    var := 'x' [1-9][0-9]*, with any run of ASCII `string.whitespace`
    between tokens; any other character, Unicode spaces included, is unexpected.
    An index of more digits than int() converts is a ParseError at its 'x'.

    Equal texts, and equal subterms of the parses the table still holds,
    come back as one object (see the module docstring)."""
    return _intern(text, text, _scan_term)


def _scan_term(text):
    frames, items, i, n = [], [], 0, len(text)
    while i < n:
        c = text[i]
        if c in whitespace:
            i += 1
        elif not frames and items and c in "(x":
            raise ParseError("trailing input after complete term", i)
        elif c == "(":
            frames.append(items)
            items = []
            i += 1
        elif c == ")":
            if not frames:
                raise ParseError("unmatched ')'", i)
            if len(items) != 2:
                raise ParseError(f"'(...)' needs exactly 2 subterms, found {len(items)}", i)
            key = id(items[0]) << 64 | id(items[1])
            node = _table.get(key)
            if node is None:
                node = _table[key] = Node(items[0], items[1])
            items = frames.pop()
            items.append(node)
            i += 1
        elif c == "x":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1 or text[i + 1] == "0":
                raise ParseError("variable must be 'x' followed by digits without leading zero", i)
            token = text[i:j]
            leaf = _table.get(token)
            if leaf is None:
                try:
                    leaf = _table[token] = X if token == "x1" else Leaf(int(token[1:]))
                except ValueError:  # more digits than int() converts
                    raise ParseError("variable index has too many digits", i) from None
            items.append(leaf)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    if frames:
        raise ParseError("unclosed '('", n)
    if not items:
        raise ParseError("empty input", 0)
    return items[0]
