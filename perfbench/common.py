"""Shared pieces of the cdcalc benchmark: the workload table, the corpus
format, query execution and verdict checks, machine-speed calibration, and
small statistics helpers.

Every script of the benchmark runs from the root of a checkout and imports
cdcalc from `src/` of that checkout only, never from an installed copy.
"""

import gc
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

# Per-workload resource limits, passed to cdcalc as ordinary arguments and
# set below the 10^6 defaults so that one query cannot dominate a run.
# About a quarter of decide-random pairs run out of 1e4 steps, so its p90 is
# the time to give up; at 2e5 steps only ~4% fail, but a pass then holds too
# few pairs for a steady p90.  decide-equiv needs ~1.3e5 steps for comb12 vs
# partial(comb12).
WORKLOADS = {
    "decide-random": {"budget": 10_000, "max_size": 10_000},
    "decide-equiv": {"budget": 200_000, "max_size": 10_000},
    "garside": {"budget": 200_000, "max_size": 10_000},
}

# Address-space ceiling (RLIMIT_AS) of every process that runs queries.
# delta() can exhaust memory before partial_iter's max_size is checked; the
# ceiling turns that into a MemoryError after a bounded time, and caps what
# such a query costs.  Answered queries peaked at 64 MiB or less in every
# corpus tried.
MEMORY_CEILING_MB = 128

# The CLI slice: the first CLI_SLICE corpus queries that have a CLI form,
# each run once per round; process start-up dominates and is noisy.
CLI_SLICE = 24


# Machine-speed calibration.  The benchmark runs on shared virtual machines
# whose speed drifts within seconds: 80 fixed decide queries took 1.0-1.9 s
# in consecutive fresh processes, and a run's times moved by up to ~1.5x
# with the load of other tenants.  So every timed interval is bracketed by
# runs of a fixed reference loop, and times are reported in calibrated
# seconds: wall seconds x REFERENCE_S / the reference's time around the
# interval, i.e. wall time on a machine where the reference takes
# REFERENCE_S.  The reference does not touch cdcalc, so a change to cdcalc
# moves calibrated times exactly as it moves wall times.
REFERENCE_S = 0.001


def reference_loop():
    """Fixed work of the kind cdcalc does most: splicing a list of
    (address, sign) pairs and building short strings."""
    words = [("01" * (i % 6), i % 2) for i in range(240)]
    for step in range(1200):
        j = step * 37 % 230
        (a, _), (b, _) = words[j], words[j + 1]
        if a.startswith(b[:2]):
            words[j:j + 2] = [(b + "0", 1), (a[1:], -1)]
        else:
            words[j:j + 2] = [(b, 1), (a + "1", -1)]
        if len(words[j][0]) > 12:
            words[j] = ("", 0)
    return words


def reference_s():
    """The reference loop's time now: the fastest of three runs, with the
    garbage collector off so that the caller's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds, before_s, after_s):
    """Wall seconds between two reference measurements, in calibrated seconds."""
    return seconds * 2 * REFERENCE_S / (before_s + after_s)


def import_cdcalc():
    """Import cdcalc from this checkout's src/, or exit nonzero."""
    if not (SRC / "cdcalc" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'cdcalc'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import cdcalc

    if Path(cdcalc.__file__).resolve().parent != (SRC / "cdcalc").resolve():
        sys.exit(f"perfbench: imported cdcalc from {cdcalc.__file__}, not from {SRC}")
    return cdcalc


def limit_memory():
    ceiling = MEMORY_CEILING_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))


def corpus_dir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}"


# Corpus format, one query per line, tab-separated:
#   id  op  label  source  arg...
# op is one of OPS; label is "yes", "no", "?" (unlabelled) or an expected
# value; source names where the label came from.
OPS = {
    "decide": ("term", "term"),
    "delta": ("term",),
    "partial2": ("term",),
    "lcm": ("term", "word", "word"),
    "posequiv": ("term", "word", "word"),
    "transport": ("term", "word"),
}


def read_corpus(path: Path):
    """The raw corpus rows: (id, op, label, source, [arg texts])."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, op, label, source, *args = line.split("\t")
        if op not in OPS or len(args) != len(OPS[op]):
            raise ValueError(f"bad corpus line: {line[:80]}")
        rows.append((qid, op, label, source, args))
    return rows


def parse_query(cd, op, args_text):
    """Parse a query's arguments with cdcalc's own parse_term / parse_word."""
    return tuple(cd.parse_term(a) if kind == "term" else cd.parse_word(a)
                 for kind, a in zip(OPS[op], args_text))


def parse_rows(cd, rows):
    return [(qid, op, label, parse_query(cd, op, args)) for qid, op, label, _, args in rows]


def spine_profile(cd, t):
    """First-occurrence variable order of every iterated right subterm.
    Preserved by both rewriting directions, so a mismatch refutes equivalence."""
    profile = [tuple(cd.first_occurrences(t))]
    for _ in range(cd.right_height(t)):
        t = t.right
        profile.append(tuple(cd.first_occurrences(t)))
    return tuple(profile)


def render_profile(profile) -> str:
    return "|".join(",".join(map(str, level)) for level in profile)


def run_query(cd, op, args, params):
    """Run one query against the library; returns its raw result."""
    budget, max_size = params["budget"], params["max_size"]
    if op == "decide":
        return cd.decide(args[0], args[1], budget=budget)
    if op == "delta":
        return cd.delta(args[0])
    if op == "partial2":
        return cd.partial_iter(args[0], 2, max_size=max_size)
    if op == "lcm":
        return cd.lcm(args[1], args[2])
    if op == "posequiv":
        return cd.pos_equiv(args[1], args[2], budget=budget)
    if op == "transport":
        return cd.delta_transport(args[0], args[1])
    raise ValueError(f"unknown op {op}")


def isolated(qid, op):
    """Is this query run in a child process of the timed one?  Only
    partial_iter on the heavy garside terms can exhaust memory; in a child,
    a failed query's peak resident memory does not pin the timed process's."""
    return op == "partial2" and qid.startswith("h")


def failure_types(cd):
    """Exceptions that end a query without an answer, by failure kind."""
    return {cd.StepBudgetExceeded: "budget", cd.SizeLimitExceeded: "size", MemoryError: "memory"}


def failure_record(qid, kind, params):
    return {"id": qid, "kind": kind, "budget": params["budget"], "max_size": params["max_size"]}


def check_result(cd, op, label, args, result) -> bool:
    """Does a query's result agree with its label?  Unlabelled ("?") queries
    pass.  Garside results are checked by invariants that need no labeller:
    the action of equivalent positive words agrees where defined, and
    rewriting preserves the spine profile."""
    if op in ("decide", "posequiv"):
        return label == "?" or result == (label == "yes")
    t = args[0]
    if op == "delta":
        return cd.apply_word(t, result) is not None
    if op == "partial2":
        return render_profile(spine_profile(cd, result)) == label and result.size >= t.size
    if op == "lcm":
        u, v = args[1], args[2]
        a = cd.apply_word(t, result)
        b = cd.apply_word(t, v + cd.complement(v, u))
        return a is not None and a == b and result[: len(u)] == u
    if op == "transport":
        u = args[1]
        t2 = cd.apply_word(t, u)
        a = cd.apply_word(t, u + cd.delta(t2))
        b = cd.apply_word(t, cd.delta(t) + result)
        return a is not None and a == b
    raise ValueError(f"unknown op {op}")


# The `cdcalc` subcommand of each op that has one, from the argument texts.
CLI_COMMANDS = {
    "decide": lambda a: ["decide", a[0], a[1]],
    "delta": lambda a: ["delta", a[0]],
    "partial2": lambda a: ["partial", "-n", "2", a[0]],
    "lcm": lambda a: ["lcm", a[1], a[2]],
    "posequiv": lambda a: ["posequiv", a[1], a[2]],
}


def cli_slice(rows):
    return [row for row in rows if row[1] in CLI_COMMANDS][:CLI_SLICE]


def cli_argv(op, args_text, params):
    """The `cdcalc --json` arguments of a query, with the workload's limits."""
    return ["--json", "--budget", str(params["budget"]), "--max-size", str(params["max_size"]),
            *CLI_COMMANDS[op](args_text)]


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
