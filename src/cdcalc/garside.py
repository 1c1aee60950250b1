"""Garside-style distinguished words attached to terms.

Every term t carries a positive word delta(t), built from the powers
phi^(p) along the right spine, whose action on t is always defined.  The
expansion partial(t) = (t)delta(t) dominates short expansions: any word of
length n applicable to t left-divides the product of the first n deltas.
That yields common right multiples, right lcms, and the confluence of
expansions.  delta is read off lists of left factors down right spines,
without building the terms it spreads.  partial is built directly, as a
left comb of the partials of prefixes, without spelling out delta(t) or
applying it.  With v|k the term made of v's first k leaves,

    partial(u0*u1) = (...(partial(u0) * partial(u1|1)) * ...) * partial(u1),

since partial(u) = partial(s0) * partial(u1) with s0 = u less its rightmost
leaf, and for m > size(u0) that leaf's removal takes u|m to u|(m-1) and
leaves the right factor u1|(m - size u0); induct on m.  So every node
built is a node of the result.  Outputs of iterated partial grow as
towers of exponentials; callers bound the iteration count, and a
configurable size ceiling turns runaway growth into a SizeLimitExceeded
error instead of a hang.

The delta-transport of a word u, a positive u2 with
u.delta((t)u) == delta(t).u2, is read off t's spreads too, with no delta
built and no word reversed.  Its argument (at delta_transport) rests on two
lemmas, proved here from the relations of the monoid, where == is
equivalence of positive words:

    0a.e == e.00a    10a.e == e.01a.10a    11a.e == e.11a    1.e.0 == e.1.e

each also under any prefix, and letters at orthogonal addresses commute.
Letter by letter, 0w.e == e.00w and 10w.e == e.01w.10w for a word w.  Write
phi_r = 1^(r-1) ... 1.e, r letters, so that phi_r = 1phi_(r-1).e and delta(t)
begins with phi_(h-1); and Z(n) = e.0.00 ... 0^(n-2), n-1 letters, so that
Z(n) = e.0Z(n-1).

Crossing.  For q < r, 1^q 0u.phi_r == phi_r.P, where P holds the copies
1^j 0 1^(q-j) 0u for j <= q.  For q = r, the same holds with the copies
1^j 0 1^(r-j) u for j < r and 1^r 0u.  For p <= r-2, 1^p.phi_r == phi_r.P with
the copies 1^j 0 1^(p-j) for j <= p.  The copies commute, so their order is
free.  By induction on q (on p): at q = 0, 0u commutes with 1phi_(r-1) and
0u.e == e.00u; at p = 0, e.11phi_(r-2).1.e == 11phi_(r-2).1.e.0 by 11a.e ==
e.11a and the triangle 1.e.0 == e.1.e.  Above that, the letter is 1
followed by the letter for q-1 (p-1), so it crosses 1phi_(r-1) by
induction, and then each copy crosses the final e by one relation: the
copy 10a becomes 01a.10a, and the others are 11a.

Product.  delta(u*v) == 0delta(u).1delta(v).Z(size v), by induction on
size(v).  For a leaf v, delta(u*x) = 0delta(u).  Otherwise let v have right
height g, so delta(v) = phi_(g-1).P, and let v' be its first spread, v less
its rightmost leaf.  The spreads of u*v are u*v' and those of v, so
delta(u*v) = phi_g.0delta(u*v').1P.  By induction, with n = size(v),
0delta(u*v') == 00delta(u).01delta(v').0Z(n-1), and e.00delta(u) ==
0delta(u).e.  On the other side 1P.e == e.01delta(v').1P, since the block
10delta(v') of 1P crosses e by 10w.e == e.01w.10w and the others are under 11.
So both sides equal 1phi_(g-1).0delta(u).e.01delta(v').0Z(n-1).1P.

The tests check both lemmas, and every case of the transport, with
pos_equiv.
"""

from itertools import accumulate, chain

from .action import apply_letter, apply_word
from .errors import SizeLimitExceeded
from .redress import DEFAULT_BUDGET, complement
from .terms import Node, Term, render_term
from .words import Word, pos_word, positive_addresses, render_word

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

    One ceiling bounds what is built, the word: SizeLimitExceeded before a
    block of letters that would take it past `max_size` letters, 10^6 by
    default, is built.  It counts no spread's leaves, since no spread is
    built.  delta raises only where partial(t, max_size) raises anyway:
    every positive letter adds at least one leaf, so len(delta(t)) <=
    size(partial t) - size(t).
    """
    # Preorder over spreads, leaves skipped: each letter's address is built
    # once, in full, and nothing is kept but the output.  s_0 is walked
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
            if len(out) + h - 1 > max_size:
                raise SizeLimitExceeded(
                    f"delta grew past {max_size} letters, so its expansion passes {max_size} leaves")
            out.extend([prefix + "1" * k for k in range(h - 2, -1, -1)])
            # s_{h-1} = l_{h-1} may be a leaf; the other spreads are products
            if type(spine[-1]) is Node:
                stack.append((spine, h - 1, prefix + "1" * (h - 1) + "0"))
            if h > 2:  # kept for speed on garside's delta queries
                stack.extend([(spine, k, prefix + "1" * k + "0") for k in range(h - 2, 0, -1)])
        elif h == 0 or type(spine[0]) is not Node:
            if not stack:
                return pos_word(out)
            lst, i, prefix = stack.pop()
            continue
        lst, i, prefix = spine, 0, prefix + "0"


def partial(t: Term, max_size: int = DEFAULT_MAX_SIZE) -> Term:
    """The expansion (t)delta(t), built as a left comb of prefix partials.

    With the spreads s_i and the rightmost leaf x of delta's docstring,
    partial(t) = partial(s0)*(partial(s1)*(...(partial(s_{h-1})*x)...)).
    phi^(h-1) spreads t, and the letters of each delta(s_i) sit under 1^i 0,
    so each delta(s_i) rewrites its own s_i in place, in a subtree disjoint
    from the others.  For t = t0*t1 the part after partial(s0) is
    partial(t1), and s0 is t less its rightmost leaf, so
    partial(t) = partial(s0) * partial(t1); a leaf is its own partial.

    Prefixes.  Write v|k for the term made of v's first k leaves, so that
    (u0*u1)|m = u0|m for m <= size(u0) and u0*(u1|(m - size u0)) above.
    Then, with n = size(u0),

        partial(u0*u1) = (...((partial(u0) * partial(u1|1)) * partial(u1|2)) ...) * partial(u1),

    a left comb whose right factors are the prefix partials of u1.  For
    m > n, u|m less its rightmost leaf is u|(m-1), and its right factor is
    u1|(m-n), so partial(u|m) = partial(u|(m-1)) * partial(u1|(m-n)) by the
    identity above; induct on m from u|n = u0.  The prefix partials of u1
    are its leftmost leaf, then the combs of the nodes down its left spine,
    from the bottom up.

    One postorder pass over t's distinct node objects stores each node's
    comb, partial(u|m) for size(u0) < m <= size(u), whose last entry is
    partial(u).  Every node built is a node of the result, each input node
    is met once, and the result shares its objects wherever the input
    shares its own.  A node u0*x with a leaf x, whose partial(u0) came
    back as u0 itself, is its own partial and is kept, not rebuilt: so the
    left-comb parts of t are shared with the result, and a left comb
    comes back as itself.
    Nothing recurses.

    Raises SizeLimitExceeded exactly when size(partial t) > max_size: every
    node built is a subterm of the result and the last one is the result.
    Each comb, of at most size(t) nodes, is checked once built, and the
    error gives the size of its first node past the ceiling.
    """
    if type(t) is not Node:
        if t.size > max_size:
            raise SizeLimitExceeded(
                f"partial grew past {max_size} leaves: its finished parts hold {t.size}")
        return t
    combs = {}  # id(u) -> the comb of the node u
    stack = [t]
    while stack:
        u = stack[-1]
        left, r = u.left, u.right
        if type(r) is Node and id(r) not in combs:
            stack.append(r)
            continue
        if type(left) is Node:
            if id(left) not in combs:
                stack.append(left)
                continue
            left = combs[id(left)][-1]
        stack.pop()
        if type(r) is Node:
            # the prefix partials of r past its leftmost leaf: the combs
            # down its left spine, read from the bottom up
            spine = []
            while type(r) is Node:
                spine.append(combs[id(r)])
                r = r.left
            spine.reverse()
            comb = list(accumulate(chain.from_iterable(spine), Node, initial=Node(left, r)))
        else:  # a leaf r: one node, kept for speed on garside's light partial2
            comb = [u if left is u.left else Node(left, r)]
        if comb[-1].size > max_size:
            n = next(p.size for p in comb if p.size > max_size)
            raise SizeLimitExceeded(
                f"partial grew past {max_size} leaves: its finished parts hold {n}")
        combs[id(u)] = comb
    return combs[id(t)][-1]


def partial_iter(t: Term, n: int, max_size: int = DEFAULT_MAX_SIZE) -> Term:
    """n-fold iteration of partial.  Tower-exponential: keep n small.  A
    term that is its own partial, a left comb or a leaf, ends the loop."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(n):
        t, prev = partial(t, max_size=max_size), t
        if t is prev:
            break
    return t


def delta_transport(t: Term, u: Word) -> Word:
    """A positive u2 with u.delta((t)u) == delta(t).u2, given that u applies
    to t: u2 = T(t, u_1).T((t)u_1, u_2)..., where T(t, a) is the word with
    delta(t).T == a.delta((t)a) for one letter a.

    With t = l_0*(l_1*(...(l_{h-1}*x))), its spreads s_j and phi = phi_(h-1)
    as in delta, so that delta(t) = phi.(1^j 0 delta(s_j) for j < h):
      (a) a = 1^k 0b, inside l_k: T = (1^j 0 T(s_j, a_j) for j <= k), where
          a_j is the address of l_k in s_j, then b: 1^(k-j) 0b for k < h-1,
          and 1^(k-j) b for k = h-1.
      (b) a = 1^k with k <= h-3: T = (1^j 0 T(s_j, 1^(k-j)) for j <= k).
      (c) a = 1^(h-2): T = phi.(1^j 0 F_j for j <= h-2), with F_(h-2) = Z(n),
          F_j = 1F_(j+1).Z(n) and n = size(l_{h-1}); T = phi for n = 1.
    Blocks under different 1^j 0 commute, so their order is free.  In (a),
    s_k = l_k*s_(k+1) for k < h-1, and unrolling (a) at k = 0 gives the
    block j = k as 1^k 0 0^m T(l_k, b), m = size(s_(k+1)).

    Proved by induction on size(t), with the lemmas of the module
    docstring; nothing here is only tested.
      (a) (t)a has the spreads (s_j)a_j for j <= k and s_j after.  So by
          Crossing (q = k) and induction on the smaller s_j,
          a.delta((t)a) == phi.(1^j 0 a_j.delta((s_j)a_j)).(the rest)
          == phi.(1^j 0 delta(s_j).T(s_j, a_j)).(the rest) == delta(t).T.
      (b) The same, with Crossing (p = k) and the spreads (s_j)1^(k-j) of
          (t)1^k for j <= k; l_(k+2) exists, since k <= h-3.
      (c) For h = 2, t = a'*(b'*x) and (t)e = (a'*b')*(b'*x).  Product on
          (a'*b')*b', 0w.e == e.00w and 10w.e == e.01w.10w turn both
          e.delta((t)e) and delta(t).e.0Z(n) into
          e.e.00delta(a'*b').01delta(b').0Z(n).10delta(b').
          For h >= 3, t = l_0*r and a = 1c, where c = 1^(h-3) is case (c)
          for r.  Product on t and on (t)a = l_0*(r)c, and induction on r,
          leave Z(m).T == 1T(r, c).Z(m+n), m = size(r).  Here
          T = 1phi_(h-2).e.0F_0.Q and 1T(r, c) = 1phi_(h-2).Q, with Q the
          blocks j >= 1.  Since Q.e == e.01F_1.Q, Z(m).phi == phi.0Z(m)
          (Crossing) and F_0 = 1F_1.Z(n), what is left is
          Z(m).1F_1.Z(n) == 1F_1.Z(m+n-1).  It is trivial for m = 1.  For
          m >= 3 it follows from m-1, as Z(m) = Z(m-1).0^(m-2), 0^(m-2)
          commutes with 1F_1, and 0^(m-2).Z(n) == Z(n).0^(m+n-3) by
          0a.e == e.00a under each 0^i.  For m = 2, 11a.e == e.11a leaves
          e.1Z(n).Z(n) == 1Z(n).Z(n+1), by induction on n from e == e at
          n = 1.  With Z' = Z(n-1), the left side is e.1.10Z'.e.0Z' ==
          1.e.0.01Z'.0Z'.10Z' by 10w.e == e.01w.10w and the triangle, the
          right side is 1.10Z'.e.0.00Z' == 1.e.01Z'.0.00Z'.10Z', and the
          middles are the case n-1 under 0.

    Each step emits its letters at their final addresses, from a stack of
    spreads with no recursion.  A step with one child copies nothing, so a
    chain of them down a 10^5-leaf comb costs O(size).  The word can be exponential in t's size
    (C(14, 7) = 3432 letters for the middle letter of right_comb(16)), so
    SizeLimitExceeded is raised, with the progress made, before it would
    pass DEFAULT_MAX_SIZE letters.
    """
    positive_addresses(u)
    if apply_word(t, u) is None:
        raise ValueError(f"word {render_word(u)} does not apply to {render_term(t)}")
    out = []
    for n, letter in enumerate(u, 1):
        if not _transport(t, letter[0], out):
            raise SizeLimitExceeded(
                f"delta_transport grew past {DEFAULT_MAX_SIZE} letters on letter {n} of "
                f"{len(u)}: {len(out)} letters built")
        t = apply_letter(t, letter)
    return pos_word(out)


def _transport(t: Term, alpha: str, out: list) -> bool:
    """Append the addresses of T(t, alpha) to `out`, for a letter alpha that
    applies to t; False, with `out` left short, where it would pass
    DEFAULT_MAX_SIZE addresses."""
    # A task is T of the right-nested product of `spine` for the letter
    # alpha[p:], emitted under prefix.0^zeros.  Its list is its own and is
    # extended in place into its right spine, so the step that continues
    # with the task's one remaining block copies nothing; the other blocks
    # are pushed with copies.  Blocks under different prefixes commute, so
    # the tasks may run in any order.
    todo = [([t], alpha, 0, "")]
    while todo:
        spine, alpha, p, prefix = todo.pop()
        zeros = 0
        while True:
            cur = spine.pop()
            while type(cur) is Node:
                spine.append(cur.left)
                cur = cur.right
            h = len(spine)
            z = alpha.find("0", p)
            k = (len(alpha) if z < 0 else z) - p
            if z >= 0:
                # (a) alpha = 1^k 0 beta: the blocks 1^j 0 for j < k, then
                # 1^k 0 0^size(s_{k+1}) T(l_k, beta), walked here
                if k:
                    prefix += "0" * zeros
                    tail = alpha[z:] if k < h - 1 else alpha[z + 1:]
                    todo.extend([(spine[j:], "1" * (k - j) + tail, 0, prefix + "1" * j + "0")
                                 for j in range(k)])
                    prefix += "1" * k + "0"
                    zeros = 0
                else:
                    zeros += 1
                zeros += sum([f.size for f in spine[k + 1:]])
                spine, p = [spine[k]], z + 1
            elif k < h - 2:
                # (b) alpha = 1^k: the blocks 1^j 0 for 0 < j <= k, then the
                # block 0 T(s_0, 1^k), walked here; s_0 is all of spine
                if k:
                    prefix += "0" * zeros
                    zeros = 0
                    todo.extend([(spine[j:], alpha, p + j, prefix + "1" * j + "0")
                                 for j in range(1, k + 1)])
                zeros += 1
            else:
                # (c) alpha = 1^(h-2): phi, then F_j under 1^j 0, where
                # F_j = 1^(h-2-j) Z ... 1Z.Z and Z = e.0...0^(n-2)
                prefix += "0" * zeros
                n = spine[-1].size
                if len(out) + h - 1 + (n - 1) * h * (h - 1) // 2 > DEFAULT_MAX_SIZE:
                    return False
                out.extend([prefix + "1" * i for i in range(h - 2, -1, -1)])
                if n > 1:
                    zs = ["0" * q for q in range(n - 1)]
                    for j in range(h - 1):
                        block = prefix + "1" * j + "0"
                        for i in range(h - 2 - j, -1, -1):
                            b = block + "1" * i
                            out.extend([b + q for q in zs])
                break
    return True


def lcm(u: Word, v: Word, budget: int = DEFAULT_BUDGET) -> Word:
    """The right lcm u.(u\\v), from one reversal of u^-1.v, which `budget`
    bounds.  It equals v.(v\\u) by the reversal grid; the tests check that."""
    return u + complement(u, v, budget=budget)
