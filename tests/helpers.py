"""Shared enumerations, oracles, lemma checkers, and hypothesis strategies."""

from functools import lru_cache
from string import whitespace

from hypothesis import strategies as st

from cdcalc import (
    Fraction,
    Leaf,
    Letter,
    Node,
    ParseError,
    SizeLimitExceeded,
    StepBudgetExceeded,
    Trace,
    apply_letter,
    apply_word,
    canonicalize,
    chi,
    complement,
    delta,
    dil,
    expansions,
    f_cd,
    first_occurrences,
    inverse,
    pos_word,
    positive_addresses,
    project,
    redress,
    render_term,
    render_word,
    right_comb,
    same_spine,
    skeleton,
    star,
    variables,
)
from cdcalc import terms
from cdcalc.garside import DEFAULT_MAX_SIZE
from cdcalc.redress import DEFAULT_BUDGET
from cdcalc.terms import resolve, unify_into

X = Leaf(1)


@lru_cache(maxsize=None)
def one_var_terms(n):
    """All one-variable terms of size exactly n (Catalan many)."""
    if n == 1:
        return (X,)
    out = []
    for i in range(1, n):
        for left in one_var_terms(i):
            for right in one_var_terms(n - i):
                out.append(Node(left, right))
    return tuple(out)


def one_var_upto(n):
    return [t for k in range(1, n + 1) for t in one_var_terms(k)]


def random_term(rng, n, nvars):
    """A term of size n over x1..x_nvars, split and labelled by `rng`."""
    if n == 1:
        return Leaf(rng.randint(1, nvars))
    k = rng.randint(1, n - 1)
    return Node(random_term(rng, k, nvars), random_term(rng, n - k, nvars))


@lru_cache(maxsize=None)
def _injective_from(n, start):
    if n == 1:
        return (Leaf(start),)
    out = []
    for i in range(1, n):
        for left in _injective_from(i, start):
            for right in _injective_from(n - i, start + i):
                out.append(Node(left, right))
    return tuple(out)


def injective_canonical(n):
    """All injective canonical terms of size exactly n (x1..xn left to right)."""
    return _injective_from(n, 1)


def injective_upto(n):
    return [t for k in range(1, n + 1) for t in injective_canonical(k)]


@lru_cache(maxsize=None)
def labeled_terms(n, nvars):
    """All terms of size exactly n over the variables x1..x_nvars."""
    if n == 1:
        return tuple(Leaf(i) for i in range(1, nvars + 1))
    out = []
    for i in range(1, n):
        for left in labeled_terms(i, nvars):
            for right in labeled_terms(n - i, nvars):
                out.append(Node(left, right))
    return tuple(out)


def labeled_upto(n, nvars):
    return [t for k in range(1, n + 1) for t in labeled_terms(k, nvars)]


def empty_parse_table(monkeypatch):
    """An empty parse table with no characters counted, for one test."""
    monkeypatch.setattr(terms, "_table", {})
    monkeypatch.setattr(terms, "_chars", 0)


def reference_parse_term(text):
    """parse_term with tables of its own for one call: one Leaf per variable
    and one Node per pair of child ids, shared within this parse only."""
    leaves = {}
    nodes = {}
    frames = []
    items = []
    i = 0
    n = len(text)
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
            key = (id(items[0]), id(items[1]))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = Node(items[0], items[1])
            items = frames.pop()
            items.append(node)
            i += 1
        elif c == "x":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            digits = text[i + 1 : j]
            if not digits or digits[0] == "0":
                raise ParseError("variable must be 'x' followed by digits without leading zero", i)
            leaf = leaves.get(digits)
            if leaf is None:
                try:
                    leaf = leaves[digits] = Leaf(int(digits))
                except ValueError:
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


def reference_parse_word(text):
    """parse_word with no table, checking each letter's body one character
    at a time."""
    pos = len(text) - len(text.lstrip(whitespace))
    text = text.strip(whitespace)
    if text == "eps":
        return ()
    letters = []
    for chunk in text.split("."):
        sign, body = (-1, chunk[1:]) if chunk.startswith("-") else (1, chunk)
        if body == "e":
            addr = ""
        elif body and all(c in "01" for c in body):
            addr = body
        else:
            raise ParseError(f"bad letter {chunk!r}", pos)
        letters.append(Letter(addr, sign))
        pos += len(chunk) + 1
    return tuple(letters)


def mutate(rng, text, alphabet):
    """text with one character of `alphabet` inserted or put in place of
    one of text's, or with one of text's deleted, at a random position."""
    i = rng.randint(0, len(text))
    c = rng.choice(alphabet)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + c + text[i:]
    return text[:i] + ("" if kind == 1 else c) + text[i + 1 :]


def parse_outcome(parse, text):
    """("ok", parse(text)), or ("error", message, position) of its ParseError."""
    try:
        return "ok", parse(text)
    except ParseError as err:
        return "error", str(err), err.position


def subterm(t, address):
    """The subterm of t at `address`, or None when the address leaves the tree."""
    for bit in address:
        if type(t) is Leaf:
            return None
        t = t.left if bit == "0" else t.right
    return t


def _replace(t, address, s):
    """t with its subterm at `address`, which must exist, replaced by s."""
    spine = []
    cur = t
    for bit in address:
        spine.append((cur, bit))
        cur = cur.left if bit == "0" else cur.right
    out = s
    for node, bit in reversed(spine):
        out = Node(out, node.right) if bit == "0" else Node(node.left, out)
    return out


def reference_apply_letter(t, letter):
    """apply_letter in two walks: `subterm` finds the subterm at the letter's
    address, and `_replace` walks the same path again to rebuild t around
    its rewrite."""
    s = subterm(t, letter.addr)
    if s is None or type(s) is Leaf:
        return None
    if letter.sign > 0:
        r = s.right
        if type(r) is Leaf:
            return None
        return _replace(t, letter.addr, Node(Node(s.left, r.left), r))
    l, r = s.left, s.right
    if type(l) is Leaf or type(r) is Leaf or l.right != r.left:
        return None
    return _replace(t, letter.addr, Node(l.left, r))


def is_expansion(s, target):
    """Exact expansion-reachability: positive rewriting strictly grows the
    size, so a breadth-first search capped at target.size is complete."""
    if s == target:
        return True
    seen, frontier = {s}, [s]
    while frontier:
        nxt = []
        for cur in frontier:
            for _, e in expansions(cur):
                if e.size <= target.size and e not in seen:
                    if e == target:
                        return True
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return False


def left_iter(t, i):
    """The i-fold left subterm of t, or None when the left spine is too short."""
    if i < 0:
        raise ValueError("left_iter needs i >= 0")
    for _ in range(i):
        if type(t) is Leaf:
            return None
        t = t.left
    return t


def is_injective(t):
    """True when no variable occurs twice in t."""
    indices = list(variables(t))
    return len(indices) == len(set(indices))


def is_canonical(t):
    """True when the variables of t, in order of first occurrence, are x1, x2, ..."""
    occurrences = first_occurrences(t)
    return occurrences == list(range(1, len(occurrences) + 1))


def match(pattern, target):
    """One-way matching: a substitution h with h(pattern) = target, or None."""
    bindings = {}
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if type(p) is Leaf:
            bound = bindings.get(p.index)
            if bound is None:
                bindings[p.index] = t
            elif bound != t:
                return None
        elif type(t) is Leaf:
            return None
        else:
            stack.append((p.left, t.left))
            stack.append((p.right, t.right))
    return bindings


def unify(t1, t2):
    """Most general unifier of t1 and t2, or None on failure (occurs check).

    Variables with the same index in both terms are shared; renaming apart,
    when wanted, is the caller's job.  The result is idempotent: no bound
    variable occurs in any image.
    """
    subst = {}
    if not unify_into(t1, t2, subst):
        return None
    return {v: resolve(img, subst) for v, img in subst.items()}


def reference_redress(w, budget=DEFAULT_BUDGET):
    """Redressing that consults the complement table f_cd at every cell,
    trivial or not: (fraction, steps), or StepBudgetExceeded past `budget`
    with the same message as `redress`."""
    done, todo = [], list(reversed(w))
    steps = 0
    while todo:
        b = todo.pop()
        if b.sign > 0 and done and done[-1].sign < 0:
            steps += 1
            if steps > budget:
                raise StepBudgetExceeded(
                    f"redressing stopped at its budget after {budget} steps; the word "
                    f"has {len(done) + len(todo) + 1} letters, the input had {len(w)}")
            a = done.pop()
            todo += [Letter(x, -1) for x in f_cd(b.addr, a.addr)]
            todo += [Letter(x, 1) for x in reversed(f_cd(a.addr, b.addr))]
        else:
            done.append(b)
    num = tuple(letter for letter in done if letter.sign > 0)
    return Fraction(num, inverse(done[len(num):])), steps


def reference_decide(t, t2, budget=DEFAULT_BUDGET):
    """The paper's level sweep on words of letters, through the public
    `chi`, `inverse`, `redress` and `dil`: from the deepest right-spine level
    that differs up, each level's blueprint difference is redressed to a
    Fraction and classified by dil(1, -) of its words, the first level not
    in P_zero refutes, and the top level's fraction is applied to the
    comb-extended terms.  A budget error names the level and how many
    levels below it were found in P_zero.  Wherever it answers, `decide`
    and the normal forms must give the same verdict."""
    if not same_spine(t, t2):
        return False
    levels, levels2 = [project(t)], [project(t2)]
    while type(levels[-1]) is Node:
        levels.append(levels[-1].right)
        levels2.append(levels2[-1].right)
    h = k = len(levels) - 1
    while k and levels[k - 1].left == levels2[k - 1].left:
        k -= 1
    fraction = Fraction((), ())
    for j in range(k - 1, -1, -1):
        try:
            fraction = redress(inverse(chi(levels[j])) + chi(levels2[j]), budget=budget)
        except StepBudgetExceeded as exc:
            raise StepBudgetExceeded(
                f"{exc}; at right-spine level {j} of {h}, after {k - 1 - j} levels "
                f"found P_zero") from exc
        if dil(1, fraction.num) != dil(1, fraction.den):
            return False
    p = max(t.size, t2.size)
    a = apply_word(Node(t, right_comb(p)), fraction.num)
    b = apply_word(Node(t2, right_comb(p)), fraction.den)
    assert a is not None and b is not None
    return a == b


def reference_chi(t):
    """chi(t) composed bottom up with `star` from a memo of every subterm's
    word, copying each into its parent's.  `chi` must give the same words."""
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


def reference_iter_expansions(t, steps):
    """iter_expansions by a set of terms: each level's new expansions are
    told apart by hashing, then sorted by (size, skeleton).
    `iter_expansions` must yield the same (step count, term) listing."""
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
        nxt.sort(key=lambda term: (term.size, skeleton(term)))
        for e in nxt:
            yield k, e
        level = nxt


def reference_delta(t, max_size=None):
    """delta(t) by the plain walk: each spread is built as a Node, then its
    right spine is walked.  `delta` must give the same words and, with a
    ceiling on the letters built, the same SizeLimitExceeded texts."""
    out = []
    stack = [(t, "")]
    while stack:
        term, prefix = stack.pop()
        # (term)phi^(h-1) is s0*(s1*(...(s_{h-1}*x))) with s_{h-1} the last
        # left factor of the right spine and s_i = left_i * s_{i+1}
        spreads, cur = [], term
        while type(cur) is Node:
            spreads.append(cur.left)
            cur = cur.right
        h = len(spreads)
        for i in range(h - 2, -1, -1):
            spreads[i] = Node(spreads[i], spreads[i + 1])
        out.extend(Letter(prefix + "1" * k, 1) for k in range(h - 2, -1, -1))
        if max_size is not None and len(out) > max_size:
            raise SizeLimitExceeded(
                f"delta grew past {max_size} letters, so its expansion passes {max_size} leaves")
        stack.extend((spreads[i], prefix + "1" * i + "0")
                     for i in range(h - 1, -1, -1) if type(spreads[i]) is Node)
    return tuple(out)


def reference_partial(t, max_size=DEFAULT_MAX_SIZE):
    """partial(t) by the spread memo: partial(t0*t1) = partial(s0) *
    partial(t1), with s0 = t less its rightmost leaf built as a term and
    looked up structurally.  Raises SizeLimitExceeded when the finished
    parts awaiting assembly, disjoint subtrees of the result, pass
    `max_size`.  `partial` must give equal terms and raise exactly when
    this does."""
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


def reference_transport(t, u):
    """delta_transport by one reversal: the complement
    delta(t)\\(u.delta((t)u)), with both deltas built.  `delta_transport`
    must give a pos_equiv-equal word and the same ValueError texts."""
    positive_addresses(u)
    t2 = apply_word(t, u)
    if t2 is None:
        raise ValueError(f"word {render_word(u)} does not apply to {render_term(t)}")
    return complement(delta(t), u + delta(t2))


def reference_trace(w):
    """trace by letter patterns: unify the running right term with the
    least term whose subterm at the letter's address has the letter's
    shape, every other position on the way down a fresh leaf, and rewrite
    the pattern.  `trace` must give the same pair, or None with this."""
    subst = {}
    right = Leaf(1)
    fresh = 2
    for letter in w:
        a, b, c = Leaf(fresh), Leaf(fresh + 1), Leaf(fresh + 2)
        fresh += 3
        pattern = Node(a, Node(b, c)) if letter.sign > 0 else Node(Node(a, b), Node(b, c))
        for bit in reversed(letter.addr):
            pattern = Node(pattern, Leaf(fresh)) if bit == "0" else Node(Leaf(fresh), pattern)
            fresh += 1
        if not unify_into(right, pattern, subst):
            return None
        right = apply_letter(pattern, letter)
    pair = canonicalize(Node(resolve(Leaf(1), subst), resolve(right, subst)))
    return Trace(pair.left, pair.right)


def _addresses(maxlen):
    out = [""]
    level = [""]
    for _ in range(maxlen):
        level = [a + bit for a in level for bit in "01"]
        out.extend(level)
    return out


def cd_relations(maxlen):
    """All presentation relation pairs with parameter addresses of length
    at most maxlen.  Five families; each pair (w, w2) satisfies w == w2 both
    as operators and in the presented monoid."""
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    addresses = _addresses(maxlen)
    pairs = []
    for g in addresses:
        for a in addresses:
            for b in addresses:  # orthogonal positions commute
                pairs.append((pos_word([g + "0" + a, g + "1" + b]),
                              pos_word([g + "1" + b, g + "0" + a])))
            # the left subterm is copied to position 00
            pairs.append((pos_word([g + "0" + a, g]), pos_word([g, g + "00" + a])))
            # the central factor is duplicated at 01 and 10
            pairs.append((pos_word([g + "10" + a, g]),
                          pos_word([g, g + "01" + a, g + "10" + a])))
            # the right subterm is preserved
            pairs.append((pos_word([g + "11" + a, g]), pos_word([g, g + "11" + a])))
        # the characteristic relation of central duplication
        pairs.append((pos_word([g + "1", g, g + "0"]), pos_word([g, g + "1", g])))
    return pairs


addresses_st = st.text(alphabet="01", max_size=4)
words_st = st.lists(
    st.tuples(addresses_st, st.sampled_from((1, -1))), max_size=6
).map(lambda ls: tuple(Letter(a, s) for a, s in ls))
pos_words_st = st.lists(addresses_st, max_size=6).map(pos_word)
one_var_term_st = st.recursive(
    st.just(X), lambda c: st.tuples(c, c).map(lambda p: Node(*p)), max_leaves=8
)
terms_st = st.recursive(
    st.integers(min_value=1, max_value=3).map(Leaf),
    lambda c: st.tuples(c, c).map(lambda p: Node(*p)),
    max_leaves=8,
)
