"""Shared enumerations, oracles, lemma checkers, and hypothesis strategies."""

from functools import lru_cache

from hypothesis import strategies as st

from cdcalc import Leaf, Letter, Node, expansions, first_occurrences, pos_word, variables

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
