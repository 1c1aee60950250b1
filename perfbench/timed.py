"""The timed process: one round of a run, against the library, untraced.

    python3 perfbench/timed.py --workload W --corpus DIR --round I --rounds R
    python3 perfbench/timed.py --workload W --corpus DIR --setup-only

Runs the corpus queries once each, in corpus order, and times each run, in
wall and in calibrated seconds (see common.py): the reference loop runs
whenever PROBE_INTERVAL_S has passed since it last ran, and each query's
time is calibrated by the two reference runs around it.
partial_iter on the heavy garside terms is the exception: it runs in a
forked child, timed in the child, and only in one round of the R, so that
those queries, ~75% of garside's time, are split over the rounds.  Each
result is checked against its label outside the timed interval.  A query that fails there stops
where a limit stops it, at max_size or at the memory ceiling, so its peak
resident memory shows the limit, not the program's need; the peak reported
is that of this process and of every child whose query was answered.
Prints one JSON object.  --setup-only imports cdcalc, parses the corpus and
exits; the caller times that as the set-up cost.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from common import (
    WORKLOADS,
    calibrated,
    check_result,
    failure_types,
    import_cdcalc,
    isolated,
    limit_memory,
    parse_rows,
    read_corpus,
    reference_s,
    run_query,
)

PROBE_INTERVAL_S = 0.2


def run_one(cd, op, label, qargs, params, kinds):
    """Run one query.  Returns (seconds, failure kind or None, whether the
    result agrees with its label)."""
    start = time.perf_counter()
    try:
        result = run_query(cd, op, qargs, params)
    except tuple(kinds) as exc:
        result, kind = None, kinds[type(exc)]
    else:
        kind = None
    elapsed = time.perf_counter() - start
    ok = kind is not None or check_result(cd, op, label, qargs, result)
    return elapsed, kind, ok


def run_forked(*args):
    """run_one in a forked child; also returns the child's peak resident
    memory in MiB.  A fork, not a fresh interpreter: the child starts from
    this process's parsed query and memory, and this process has no threads."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.write(write_fd, json.dumps(run_one(*args)).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            # The child must never return into the caller's loop.
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        reply = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"query child exited with status {status}")
    return (*json.loads(reply), usage.ru_maxrss / 1024)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--corpus", required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    limit_memory()
    cd = import_cdcalc()
    rows = read_corpus(Path(args.corpus) / "queries.tsv")
    if args.setup_only:
        parse_rows(cd, rows)
        return 0
    queries = parse_rows(cd, [row for i, row in enumerate(rows)
                              if not isolated(row[0], row[1]) or i % args.rounds == args.round])
    params = WORKLOADS[args.workload]
    kinds = failure_types(cd)

    runs = []  # [id, calibrated seconds, wall seconds, failure kind]
    wrong = []
    child_peak_mb = 0.0
    block = []
    probe_s = reference_s()
    probed = time.perf_counter()
    for n, (qid, op, label, qargs) in enumerate(queries, 1):
        query_args = (cd, op, label, qargs, params, kinds)
        if isolated(qid, op):
            elapsed, kind, ok, peak_mb = run_forked(*query_args)
            if kind is None:
                child_peak_mb = max(child_peak_mb, peak_mb)
        else:
            elapsed, kind, ok = run_one(*query_args)
        block.append([qid, elapsed, elapsed, kind])
        if not ok:
            wrong.append(qid)
        if time.perf_counter() - probed >= PROBE_INTERVAL_S or n == len(queries):
            next_s = reference_s()
            for run in block:
                run[1] = calibrated(run[2], probe_s, next_s)
            runs += block
            block, probe_s, probed = [], next_s, time.perf_counter()

    print(json.dumps({
        "runs": runs,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "child_peak_rss_mb": child_peak_mb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
