"""The traced run: replay every query through the public functions of each
layer of cdcalc, under spans, and derive the per-layer metrics.

    python3 perfbench/traced.py --workload W --corpus DIR

Each query first runs once untraced, as in the timed run, then again under
a parent span.  decide is replayed stage by stage from the public functions:
project -> chi -> redress -> dil -> apply_word x2 -> ==.  The Garside
operations run as the library's own functions, with the delta, apply_word
and complement calls made inside cdcalc.garside and cdcalc.redress routed
through spans for the length of the query.  Spans (name, start, end,
parent, query id) are kept in memory and written to DIR/spans.jsonl at the
end; a span's self time is its duration minus its children's.  Every "yes"
of decide is re-checked by its certificate: the replayed fraction N | D,
derived through the public redress, must give
apply_word(t*comb_p, N) == apply_word(t2*comb_p, D).  Prints one JSON object.
"""

import argparse
import contextlib
import io
import json
import operator
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import (
    WORKLOADS,
    check_result,
    cli_argv,
    cli_slice,
    failure_types,
    import_cdcalc,
    limit_memory,
    median,
    parse_query,
    read_corpus,
    run_query,
    spine_profile,
)

# Layer metrics that sum the self time of the spans of one name.
SELF_TIME_MS = {
    "redress.redress_ms": "redress.redress",
    "redress.complement_ms": "redress.complement",
    "blueprint.chi_ms": "blueprint.chi",
    "terms.project_ms": "terms.project",
    "terms.parse_ms": "terms.parse",
    "decide.dil_ms": "decide.dil",
    "action.apply_ms": "action.apply",
    "action.term_eq_ms": "action.term_eq",
    "garside.delta_ms": "garside.delta",
}
COUNTS = ("redress.fraction_letters", "redress.budget_hits", "blueprint.word_letters",
          "action.letters_applied", "action.result_leaves_max", "garside.delta_letters",
          "garside.size_limit_hits")


class Tracer:
    """In-memory spans: [name, start, end, parent index, query id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.query])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name, fn, *args, **kw):
        with self.span(name):
            return fn(*args, **kw)

    def self_times(self):
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")


class Replay:
    """The decide replay, stage by stage, and traced stand-ins for the
    delta, apply_word and complement calls the Garside operations make;
    all of them keep the layer counters."""

    def __init__(self, cd, tracer, params):
        self.cd, self.tr, self.params = cd, tracer, params
        self.counts = dict.fromkeys(COUNTS, 0)
        self.redress_ms_refutable = 0.0

    def apply(self, t, w, **kw):
        # delta applies a word once per subterm it spreads; those calls are
        # delta's own work, and a span each would swamp the trace.
        if self.tr.stack and self.tr.spans[self.tr.stack[-1]][0] == "garside.delta":
            return self.cd.apply_word(t, w, **kw)
        image = self.tr.call("action.apply", self.cd.apply_word, t, w, **kw)
        if image is not None:
            self.counts["action.letters_applied"] += len(w)
            self.counts["action.result_leaves_max"] = max(
                self.counts["action.result_leaves_max"], image.size)
        return image

    def delta(self, t):
        d = self.tr.call("garside.delta", self.cd.delta, t)
        self.counts["garside.delta_letters"] += len(d)
        return d

    def complement(self, u, v, **kw):
        return self.tr.call("redress.complement", self.cd.complement, u, v, **kw)

    @contextlib.contextmanager
    def library_traced(self):
        """Route the delta, apply_word and complement calls made inside
        cdcalc.garside and cdcalc.redress through the traced stand-ins, so
        the Garside operations run on the library's own path.  The
        stand-ins call the originals, which the package namespace keeps."""
        garside, redress = sys.modules["cdcalc.garside"], sys.modules["cdcalc.redress"]
        patches = [(garside, "delta", self.delta), (garside, "apply_word", self.apply),
                   (garside, "complement", self.complement), (redress, "complement", self.complement)]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, stand_in in patches:
            setattr(module, name, stand_in)
        try:
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def decide(self, t, t2):
        cd, tr = self.cd, self.tr
        p = tr.call("terms.project", cd.project, t)
        p2 = tr.call("terms.project", cd.project, t2)
        w = tr.call("blueprint.chi", lambda: cd.inverse(cd.chi(p)) + cd.chi(p2))
        self.counts["blueprint.word_letters"] += len(w)
        fraction = tr.call("redress.redress", cd.redress, w, budget=self.params["budget"])
        self.counts["redress.fraction_letters"] += len(fraction.num) + len(fraction.den)
        if tr.call("decide.dil", cd.dil, 1, fraction.num) != tr.call("decide.dil", cd.dil, 1, fraction.den):
            return False
        comb = cd.right_comb(max(t.size, t2.size))
        a = self.apply(cd.Node(t, comb), fraction.num)
        b = self.apply(cd.Node(t2, comb), fraction.den)
        if a is None or b is None:
            raise AssertionError("fraction does not apply to the comb-extended terms")
        return tr.call("action.term_eq", operator.eq, a, b)

    def run(self, op, args):
        if op == "decide":
            return self.decide(*args)
        with self.library_traced():
            if op == "delta":
                return self.delta(args[0])
            return run_query(self.cd, op, args, self.params)


def cli_in_process(cd, tracer, rows, params):
    """Time cdcalc.cli.main in this process over the CLI slice: the CLI
    layer without interpreter start-up."""
    from cdcalc import cli

    times = []
    for qid, op, _, _, args_text in cli_slice(rows):
        tracer.query = qid
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                tracer.call("cli.call", cli.main, cli_argv(op, args_text, params))
            except MemoryError:
                pass
        times.append(time.perf_counter() - start)
    return median(times) if times else 0.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--corpus", required=True)
    args = p.parse_args(argv)

    limit_memory()
    cd = import_cdcalc()
    params = WORKLOADS[args.workload]
    kinds = failure_types(cd)
    rows = read_corpus(Path(args.corpus) / "queries.tsv")
    tracer = Tracer()
    replay = Replay(cd, tracer, params)

    untraced_s = traced_s = stage_s = 0.0
    decides = refutable = failed = 0
    wrong = []
    for qid, op, label, _, args_text in rows:
        tracer.query = qid
        parsed = tracer.call("terms.parse", parse_query, cd, op, args_text)

        start = time.perf_counter()
        try:
            expected = run_query(cd, op, parsed, params)
        except tuple(kinds):
            expected = None
        untraced_s += time.perf_counter() - start

        spine_refutable = False
        if op == "decide":
            decides += 1
            spine_refutable = spine_profile(cd, parsed[0]) != spine_profile(cd, parsed[1])
            refutable += spine_refutable
        first = len(tracer.spans)
        try:
            with tracer.span(f"query.{op}"):
                result = replay.run(op, parsed)
        except tuple(kinds) as exc:
            result, kind = None, kinds[type(exc)]
        else:
            kind = None
        root = tracer.spans[first]
        traced_s += root[2] - root[1]
        for name, start, end, parent, _ in tracer.spans[first + 1:]:
            if parent == first:
                stage_s += end - start
            if spine_refutable and name == "redress.redress":
                replay.redress_ms_refutable += (end - start) * 1e3
        if kind is not None:
            failed += 1
            replay.counts["redress.budget_hits"] += kind == "budget"
            replay.counts["garside.size_limit_hits"] += kind == "size"
        elif (op in ("decide", "posequiv") and result != expected) or \
                not check_result(cd, op, label, parsed, result):
            wrong.append(qid)

    cli_ms = cli_in_process(cd, tracer, rows, params) * 1e3
    self_ms = defaultdict(float)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        self_ms[span[0]] += self_s * 1e3
    partial_ms = sum((end - start) * 1e3 for name, start, end, _, _ in tracer.spans
                     if name == "query.partial2")
    spans_file = Path(args.corpus) / "spans.jsonl"
    tracer.write(spans_file)

    metrics = {name: (self_ms[span], "ms") for name, span in SELF_TIME_MS.items()}
    metrics.update({name: (value, "count") for name, value in replay.counts.items()})
    metrics.update({
        "redress.ms_on_spine_refutable": (replay.redress_ms_refutable, "ms"),
        "decide.spine_refutable_share": (refutable / decides if decides else 0.0, "share"),
        "garside.partial_ms": (partial_ms, "ms"),
        "cli.call_ms": (cli_ms, "ms"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.coverage": (stage_s / untraced_s, "ratio"),
    })
    print(json.dumps({
        "attempted": len(rows),
        "failed": failed,
        "wrong": wrong,
        "spans_file": str(spans_file),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
