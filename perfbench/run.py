"""cdcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-random --seed 1 --seconds 24 --trace 0

Run from the repository root.  Builds and labels the seeded corpus in a
separate process, then with --trace 0 measures the end-to-end metrics
(set-up time, library query latency and throughput, share answered, peak
memory, CLI latency) in round(--seconds / 12) rounds of about 12 s each,
and with --trace 1 runs the traced replay that gives the per-layer metrics.  Progress and every failed query go to stdout; the
last line of stdout is the JSON result.  Exits nonzero, without a result,
when a run cannot complete, and with "correct": false when a verdict
disagrees with its label.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

from common import (
    REFERENCE_S,
    ROOT,
    SRC,
    WORKLOADS,
    check_result,
    cli_argv,
    cli_slice,
    corpus_dir,
    failure_record,
    import_cdcalc,
    limit_memory,
    median,
    parse_rows,
    percentile,
    read_corpus,
    reference_s,
)
from corpus import INPUTS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 21
# A run is round(--seconds / ROUND_SECONDS) rounds; see end_to_end.
ROUND_SECONDS = 12
CHILD_TIMEOUT_S = 170


def child(script, *args, timeout=CHILD_TIMEOUT_S, **kw):
    """Run a benchmark script in a fresh interpreter; raises on failure."""
    cmd = [sys.executable, os.path.join(HERE, script), *map(str, args)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, **kw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(workload, corpus, repeats, probes):
    """Wall times of fresh interpreters importing cdcalc and parsing the
    stored corpus.  Runs the reference loop before each, into probes."""
    times = []
    for _ in range(repeats):
        probes.append(reference_s())
        start = time.perf_counter()
        child("timed.py", "--workload", workload, "--corpus", corpus, "--setup-only")
        times.append(time.perf_counter() - start)
    return times


def cli_call(cd, op, label, args, argv):
    """One `cdcalc --json` subprocess.  Returns (wall seconds, failure kind
    or None, whether the answer agrees with the label)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "cdcalc.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, preexec_fn=limit_memory)
    elapsed = time.perf_counter() - start
    if proc.returncode == 2:
        return elapsed, "cli-exit-2", True
    if "MemoryError" in proc.stderr:
        return elapsed, "memory", True
    try:
        result = json.loads(proc.stdout)["result"]
    except (ValueError, KeyError):
        return elapsed, None, False
    if op in ("delta", "lcm"):
        result = cd.parse_word(result)
    elif op == "partial2":
        result = cd.parse_term(result)
    return elapsed, None, check_result(cd, op, label, args, result)


def run_cli(cd, params, picked, first, probes, failures, wrong):
    """One round of the CLI slice, one subprocess at a time.  Returns each
    call's wall time by query id, and runs the reference loop before each
    call, into probes.  Failures and verdicts count in the first round."""
    times = {}
    for (qid, op, label, _, args_text), (_, _, _, args) in zip(picked, parse_rows(cd, picked)):
        probes.append(reference_s())
        times[qid], kind, ok = cli_call(cd, op, label, args, cli_argv(op, args_text, params))
        if not first:
            continue
        if kind is not None:
            failures.append(failure_record(qid, kind, params))
        elif not ok:
            wrong.append(qid)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cd, workload, corpus, seconds):
    """The end-to-end metrics of one run: `rounds` rounds, each a fresh timed
    process over the corpus (see timed.py), one round of the CLI slice and
    a share of the set-up measurements, so that every metric is sampled
    across the whole run.  A query that runs in several rounds counts once,
    at its fastest run.  Times are calibrated (see common.py): a library
    query's by the reference runs around it in the timed process, a round's
    set-up and CLI times by the median of the reference runs before each of
    them.  The wall-time figures are printed beside them."""
    params = WORKLOADS[workload]
    rows = read_corpus(corpus / "queries.tsv")
    picked = cli_slice(rows)
    rounds = max(1, round(seconds / ROUND_SECONDS))
    runs, kinds, wrong, failures = {}, {}, [], []
    cli_times, cli_wrong = {}, []
    setup_times, setup_wall, cli_wall = [], [], {}
    peak_mb = child_peak_mb = 0.0
    for r in range(rounds):
        timed = json.loads(child("timed.py", "--workload", workload, "--corpus", corpus,
                                 "--round", r, "--rounds", rounds))
        for qid, cal_s, wall_s, kind in timed["runs"]:
            runs.setdefault(qid, []).append((cal_s, wall_s))
            if qid not in kinds:
                kinds[qid] = kind
                if kind is not None:
                    failures.append(failure_record(qid, kind, params))
        wrong += [qid for qid in timed["wrong"] if qid not in wrong]
        peak_mb = max(peak_mb, timed["peak_rss_mb"])
        child_peak_mb = max(child_peak_mb, timed["child_peak_rss_mb"])
        probes = []
        cli_round = run_cli(cd, params, picked, r == 0, probes, failures, cli_wrong)
        setup_round = measure_setup(workload, corpus, math.ceil(SETUP_REPEATS / rounds), probes)
        scale = REFERENCE_S / median(probes)
        for qid, wall_s in cli_round.items():
            cli_times.setdefault(qid, []).append(wall_s * scale)
            cli_wall.setdefault(qid, []).append(wall_s)
        setup_times += [wall_s * scale for wall_s in setup_round]
        setup_wall += setup_round

    fastest = [min(times) for times in runs.values()]
    samples = sorted(cal_s for cal_s, _ in fastest)
    wall = sorted(wall_s for _, wall_s in fastest)
    answered = sum(1 for kind in kinds.values() if kind is None)
    attempted = len(runs) + len(cli_times)
    wrong += cli_wrong
    print(f"workload {workload}: {INPUTS[workload]}")
    print(f"{rounds} round(s): {len(runs)} queries "
          f"({sum(1 for row in rows if row[0] in runs and row[2] == '?')} unlabelled), "
          f"{sum(map(len, runs.values()))} runs, {len(samples)} latency samples "
          f"({len(samples) - math.ceil(0.9 * len(samples))} beyond p90), "
          f"{sum(map(len, cli_times.values()))} CLI calls on {len(cli_times)} queries, "
          f"{len(setup_times)} set-ups; one process, one thread, closed loop: no queueing")
    print(f"wall time, uncalibrated: set-up {median(setup_wall):.4f} s, "
          f"query p50 {percentile(wall, 0.5) * 1e3:.4f} ms, p90 {percentile(wall, 0.9) * 1e3:.4f} ms, "
          f"{answered / sum(wall):.4f} queries/s, "
          f"CLI p50 {median([min(times) for times in cli_wall.values()]) * 1e3:.4f} ms")
    if child_peak_mb:
        print(f"heavy partial_iter queries, run in child processes: peak resident memory "
              f"{child_peak_mb:.1f} MiB over the answered ones")
    (corpus / "failures.json").write_text(json.dumps(failures, indent=1), encoding="utf-8")
    for f in failures:
        print(f"failed query {f['id']}: {f['kind']} (budget {f['budget']}, max_size {f['max_size']})")
    for qid in wrong:
        print(f"WRONG verdict on query {qid}")
    metrics = {
        "setup_s": metric(median(setup_times), "s"),
        "query_p50_ms": metric(percentile(samples, 0.5) * 1e3, "ms"),
        "query_p90_ms": metric(percentile(samples, 0.9) * 1e3, "ms"),
        "queries_per_s": metric(answered / sum(samples), "1/s"),
        "decided_share": metric((attempted - len(failures)) / attempted, "share"),
        "peak_rss_mb": metric(peak_mb, "MiB"),
        "cli_p50_ms": metric(median([min(times) for times in cli_times.values()]) * 1e3, "ms"),
    }
    return not wrong, attempted, len(failures), metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # Every process of the run on one CPU: the reference loop then measures
    # the CPU the queries run on, and nothing migrates mid-query.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cd = import_cdcalc()
    corpus = corpus_dir(args.workload, args.seed)
    try:
        child("corpus.py", "--workload", args.workload, "--seed", args.seed, "--out", corpus)
        if args.trace:
            out = json.loads(child("traced.py", "--workload", args.workload, "--corpus", corpus))
            print(f"spans written to {out['spans_file']}")
            result = (not out["wrong"], out["attempted"], out["failed"], out["metrics"])
        else:
            result = end_to_end(cd, args.workload, corpus, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {exc}")
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
