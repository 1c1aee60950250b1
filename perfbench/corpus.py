"""Build one workload's corpus from a seed and label every query.

    python3 perfbench/corpus.py --workload decide-random --seed 1 --out DIR

Writes DIR/queries.tsv (the format is described in common.py).  Labelling
happens here, once, in a process separate from the timed one.  The same
seed gives a byte-identical file.
"""

import argparse
import random
import sys
from pathlib import Path

from common import OPS, WORKLOADS, import_cdcalc, limit_memory, render_profile, spine_profile

cd = import_cdcalc()

# Two random 32-leaf one-variable terms (right heights 6 and 4) whose
# blueprint difference needs more than 10^6 redressing steps, so
# `cdcalc decide` exits 2 on them at the default budget.  A spine check
# refutes the pair in O(n).
KNOWN_32 = (
    "(((x1 x1) ((x1 (((x1 x1) x1) ((x1 x1) x1))) x1)) ((((((x1 x1) ((x1 x1) x1)) "
    "(x1 (x1 x1))) x1) (x1 x1)) ((x1 x1) (x1 (((x1 (x1 x1)) ((x1 x1) x1)) (x1 x1))))))",
    "(((x1 x1) x1) (((((x1 x1) x1) (x1 (x1 x1))) (x1 ((x1 x1) x1))) (((x1 x1) x1) "
    "((((x1 x1) ((x1 x1) x1)) ((x1 ((x1 x1) (x1 (((x1 x1) x1) (x1 x1))))) x1)) x1))))",
)

ORACLE_DEPTH = 2

# decide-random: for each leaf count, random pairs drawn from --seed in
# strata of their redressing cost, with each stratum's count at its share of
# 3000 random pairs of that size, so that every corpus holds as many pairs
# that fail, and as many of each cost, as the next.  Drawn without strata,
# the failure count alone moved decided_share by ~0.06 between seeds, and
# with it every time metric.  The cost is the number of steps of leftmost
# redressing of the blueprint difference (see redress_steps), which predicts
# a pair's time closely (log-log correlation 0.97).  Strata are given by
# their lower bounds; the last holds the pairs that exceed the step budget.
RANDOM_SIZES = (16, 20, 24)
RANDOM_STEPS = (0, 250, 500, 1000, 2000, 4000, 7000, WORKLOADS["decide-random"]["budget"] + 1)
RANDOM_QUOTAS = {
    16: (4, 20, 32, 26, 19, 9, 3, 7),
    20: (0, 3, 13, 24, 26, 18, 8, 28),
    24: (0, 0, 3, 11, 19, 18, 11, 58),
}

# decide-equiv: walk pairs and negatives come EQUIV_PER_CELL to each cell of
# leaf count x walk length, a balanced design, because both drive the cost
# steeply and drawing them at random made p90 swing by ~40% between seeds.
# Cost grows so fast with size that 24-leaf cells took 60% of a run and set
# p90 alone; stopping at 20 leaves buys twice as many pairs per cell.
EQUIV_LEAVES = (12, 16, 20)
EQUIV_WALK_LENS = (6, 11, 16)
EQUIV_PER_CELL = 60
EQUIV_PARTIALS = 80
PARTIAL_LEAVES = (8, 14)
COMBS = range(6, 13)

# garside: random 8-14-leaf terms, drawn from --seed in strata, with each
# stratum's count at its share of 20000 random terms (4000 for the light
# strata), so that every corpus holds the costly few in the same number.
# Terms with size(partial(t)) >= 120 (15% of draws) fail or nearly fail
# partial_iter(t, 2) and take most of the run time; they are stratified by
# size(partial(t)), and from ~290 on they mostly exhaust memory.  The rest
# are stratified by size(partial_iter(t, 2)), which predicts that query's
# cost closely (log-log correlation 0.98).  Drawn without strata, run time
# swung by ~25% and p90 by ~2x between seeds.  Each stratum is (lower bound,
# count); it ends where the next begins.  The largest light terms set the
# timed process's peak memory, so the top light strata are narrow.  Light
# terms whose partial_iter(t, 2) exceeds max_size (1 in 4000) round to none
# at their share; one such term had raised a corpus's peak from ~27 to 39 MiB.
GARSIDE_HEAVY = ((120, 9), (140, 6), (160, 4), (180, 4), (200, 4), (230, 3), (260, 3), (300, 4),
                 (400, 4))
GARSIDE_LIGHT = ((0, 45), (50, 43), (100, 39), (200, 37), (400, 34), (800, 21), (1600, 15),
                 (3200, 6), (6400, 1), (WORKLOADS["garside"]["max_size"] + 1, 0))
# delta_transport queries are drawn apart, as pairs (t, u) with u one
# letter, in strata of len(delta((t)u)), which predicts their cost closely
# (log-log correlation 0.96), at the shares of 5000 random pairs.  Pairs
# with len(delta((t)u)) >= 800 (0.2% of draws, 0.3 per corpus at share)
# round to none; one of them took 4 s.  With u of 2-4 letters,
# 0.5% of pairs took 2-10 s each and moved queries_per_s by ~35% between
# seeds.
GARSIDE_TRANSPORT = ((0, 80), (25, 31), (50, 17), (100, 8), (200, 3), (400, 1), (800, 0))
GARSIDE_LEAVES = (8, 14)
GARSIDE_WALK_LEN = (2, 4)


INPUTS = {
    "decide-random": f"{sum(map(sum, RANDOM_QUOTAS.values()))} one-variable pairs, "
                     f"{'/'.join(str(sum(RANDOM_QUOTAS[n])) for n in RANDOM_SIZES)} of "
                     f"{'/'.join(map(str, RANDOM_SIZES))} leaves, and one 32-leaf pair",
    "decide-equiv": f"{EQUIV_PER_CELL} walk pairs and {EQUIV_PER_CELL} same-spine negatives per cell "
                    f"of {'/'.join(map(str, EQUIV_LEAVES))} leaves x "
                    f"{'/'.join(map(str, EQUIV_WALK_LENS))}-letter walks; {EQUIV_PARTIALS} t vs "
                    f"partial(t) on {PARTIAL_LEAVES[0]}-{PARTIAL_LEAVES[1]} leaves; comb_p vs "
                    f"partial(comb_p) for p = {COMBS[0]}..{COMBS[-1]}",
    "garside": f"{sum(count for _, count in GARSIDE_HEAVY + GARSIDE_LIGHT)} terms of "
               f"{GARSIDE_LEAVES[0]}-{GARSIDE_LEAVES[1]} leaves with delta, partial_iter, lcm and "
               f"pos_equiv each, on positive words of {GARSIDE_WALK_LEN[0]}-{GARSIDE_WALK_LEN[1]} "
               f"letters; {sum(count for _, count in GARSIDE_TRANSPORT)} delta_transport pairs "
               f"(t, one letter)",
}

def random_term(rng, n, nvars=1):
    """A random term with n leaves: every internal node splits its leaves
    uniformly at random; leaves draw one of nvars variables, then the
    variables are renamed to first-occurrence order."""
    sizes = [n]
    shape = []  # preorder: leaf count of each node
    while sizes:
        k = sizes.pop()
        shape.append(k)
        if k > 1:
            left = rng.randint(1, k - 1)
            sizes.append(k - left)
            sizes.append(left)
    out = []
    for k in reversed(shape):
        if k == 1:
            out.append(cd.Leaf(rng.randint(1, nvars)))
        else:
            out.append(cd.Node(out.pop(), out.pop()))
    return cd.canonicalize(out[0])


def applicable_letters(t):
    """Every signed letter whose shape test passes on t, in address order."""
    out = []
    stack = [("", t)]
    while stack:
        addr, s = stack.pop()
        if type(s) is cd.Node:
            if type(s.right) is cd.Node:
                out.append(cd.Letter(addr, 1))
                if type(s.left) is cd.Node and s.left.right == s.right.left:
                    out.append(cd.Letter(addr, -1))
            stack.append((addr + "1", s.right))
            stack.append((addr + "0", s.left))
    out.sort()
    return out


def walk(rng, t, length, signed=True):
    """A random applicable walk from t of at most `length` letters, shorter
    only if it reaches a term where no letter applies; returns (word, image)."""
    word = []
    for _ in range(length):
        choices = [x for x in applicable_letters(t) if signed or x.sign > 0]
        if not choices:
            break
        letter = rng.choice(choices)
        t = cd.apply_letter(t, letter)
        word.append(letter)
    return tuple(word), t


def label_pair(t, t2):
    """(label, source) for an arbitrary pair: a spine-profile mismatch is a
    sound "no"; otherwise oracle_equiv at a fixed depth, which may leave
    the pair unlabelled."""
    if spine_profile(cd, t) != spine_profile(cd, t2):
        return "no", "spine"
    verdict = cd.oracle_equiv(t, t2, ORACLE_DEPTH)
    if verdict is cd.Verdict.UNKNOWN:
        return "?", "oracle"
    return ("yes" if verdict is cd.Verdict.EQUIVALENT else "no"), "oracle"


def redress_steps(w, limit):
    """The number of steps of leftmost redressing of w, counted up to
    `limit`: a pair's stratum key.  The benchmark counts them itself, from
    cdcalc's complement table f_cd, so that the corpus does not depend on
    how cdcalc implements or budgets redress."""
    letters = [(x.addr, x.sign) for x in w]
    steps = i = 0
    while i + 1 < len(letters) and steps < limit:
        (a, sign_a), (b, sign_b) = letters[i], letters[i + 1]
        if sign_a < 0 and sign_b > 0:
            steps += 1
            letters[i:i + 2] = [(x, 1) for x in cd.f_cd(a, b)] + \
                [(x, -1) for x in reversed(cd.f_cd(b, a))]
            i = max(i - 1, 0)
        else:
            i += 1
    return steps


def blueprint_difference(t, t2):
    return cd.inverse(cd.chi(cd.project(t))) + cd.chi(cd.project(t2))


def decide_random(rng):
    rows = [("k32", "decide", "no", "spine", KNOWN_32)]
    t, t2 = (cd.parse_term(x) for x in KNOWN_32)
    assert spine_profile(cd, t) != spine_profile(cd, t2)
    for n in RANDOM_SIZES:
        quota = dict(zip(RANDOM_STEPS, RANDOM_QUOTAS[n]))
        i = 0
        while any(quota.values()):
            t, t2 = random_term(rng, n), random_term(rng, n)
            # Once every stratum from some bound up is full, counting steps
            # past that bound cannot place the pair.
            limit = min((lo for lo in RANDOM_STEPS
                         if not any(quota[b] for b in RANDOM_STEPS if b >= lo)),
                        default=RANDOM_STEPS[-1])
            steps = redress_steps(blueprint_difference(t, t2), limit)
            key = max(lo for lo in RANDOM_STEPS if steps >= lo)
            if not quota[key]:
                continue
            quota[key] -= 1
            label, source = label_pair(t, t2)
            rows.append((f"r{n}-{i}", "decide", label, source,
                         (cd.render_term(t), cd.render_term(t2))))
            i += 1
    return rows


def decide_equiv(rng):
    rt = cd.render_term
    rows = []
    for p in COMBS:
        comb = cd.right_comb(p)
        rows.append((f"comb{p}", "decide", "yes", "partial", (rt(comb), rt(cd.partial(comb)))))
    for i in range(EQUIV_PARTIALS):
        t = random_term(rng, rng.randint(*PARTIAL_LEAVES), rng.randint(1, 3))
        rows.append((f"part{i}", "decide", "yes", "partial", (rt(t), rt(cd.partial(t)))))
    for n in EQUIV_LEAVES:
        for length in EQUIV_WALK_LENS:
            for i in range(EQUIV_PER_CELL):
                t = random_term(rng, n, rng.randint(1, 3))
                _, t2 = walk(rng, t, length)
                rows.append((f"walk{n}-{length}-{i}", "decide", "yes", "walk", (rt(t), rt(t2))))
                # t is a proper left subterm of t*t.right, so no walk from the
                # latter reaches t; the spine profiles agree, so no spine
                # check applies.
                t = random_term(rng, n, rng.randint(1, 3))
                _, t2 = walk(rng, cd.Node(t, t.right), length)
                rows.append((f"neg{n}-{length}-{i}", "decide", "no", "left-subterm", (rt(t), rt(t2))))
    return rows


def stratum(strata, value):
    return max(lo for lo, _ in strata if value >= lo)


def stratified(rng, quota, draw, stratum_of):
    """Draw until every stratum holds its count; `quota` maps each stratum
    to its count.  Returns (stratum, draw) pairs in the order drawn."""
    quota = dict(quota)
    out = []
    while any(quota.values()):
        x = draw(rng)
        key = stratum_of(x)
        if quota[key]:
            quota[key] -= 1
            out.append((key, x))
    return out


def garside_term(rng):
    return random_term(rng, rng.randint(*GARSIDE_LEAVES), rng.randint(1, 3))


def garside_stratum(t):
    """("h", lower bound) by size(partial(t)) for a heavy term, else
    ("g", lower bound) by size(partial_iter(t, 2))."""
    size = cd.partial(t).size
    if size >= GARSIDE_HEAVY[0][0]:
        return "h", stratum(GARSIDE_HEAVY, size)
    max_size = WORKLOADS["garside"]["max_size"]
    try:
        size = cd.partial_iter(t, 2, max_size=max_size).size
    except cd.SizeLimitExceeded:
        size = max_size + 1
    return "g", stratum(GARSIDE_LIGHT, size)


def transport_pair(rng):
    t = garside_term(rng)
    u, tu = walk(rng, t, 1, signed=False)
    return t, u, tu


def garside(rng):
    rt, rw = cd.render_term, cd.render_word
    quota = {("h", lo): count for lo, count in GARSIDE_HEAVY}
    quota.update({("g", lo): count for lo, count in GARSIDE_LIGHT})
    rows = []
    for i, ((kind, _), t) in enumerate(stratified(rng, quota, garside_term, garside_stratum)):
        u, tu = walk(rng, t, rng.randint(*GARSIDE_WALK_LEN), signed=False)
        v, tv = walk(rng, t, rng.randint(*GARSIDE_WALK_LEN), signed=False)
        # Equivalent positive words act alike where defined: different
        # images refute pos_equiv; literally equal words confirm it.
        if tu != tv:
            peq = "no"
        elif u == v:
            peq = "yes"
        else:
            peq = "?"
        ts, us, vs = rt(t), rw(u), rw(v)
        qid = f"{kind}{i}"
        rows += [
            (f"{qid}-delta", "delta", "defined", "invariant", (ts,)),
            (f"{qid}-partial2", "partial2", render_profile(spine_profile(cd, t)), "invariant", (ts,)),
            (f"{qid}-lcm", "lcm", "common", "invariant", (ts, us, vs)),
            (f"{qid}-posequiv", "posequiv", peq, "action", (ts, us, vs)),
        ]
    pairs = stratified(rng, dict(GARSIDE_TRANSPORT), transport_pair,
                       lambda pair: stratum(GARSIDE_TRANSPORT, len(cd.delta(pair[2]))))
    for i, (_, (t, u, _)) in enumerate(pairs):
        rows.append((f"d{i}-transport", "transport", "common", "invariant", (rt(t), rw(u))))
    return rows


BUILDERS = {"decide-random": decide_random, "decide-equiv": decide_equiv, "garside": garside}


def build(workload: str, seed: int) -> str:
    """The corpus text of a workload; queries in a seeded random order."""
    rng = random.Random(f"{workload}:{seed}")
    rows = BUILDERS[workload](rng)
    # The known 32-leaf pair stays first, so the CLI slice always holds it.
    head = [row for row in rows if row[0] == "k32"]
    rest = [row for row in rows if row[0] != "k32"]
    rng.shuffle(rest)
    lines = []
    for qid, op, label, source, args in head + rest:
        assert len(args) == len(OPS[op])
        lines.append("\t".join((qid, op, label, source, *args)))
    return "\n".join(lines) + "\n"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    limit_memory()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "queries.tsv").write_text(build(args.workload, args.seed), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
