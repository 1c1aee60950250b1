"""Self-tests of the benchmark (not of cdcalc).

    python3 perfbench/selftest.py

Run from the repository root.  Named so that the repository's pytest run
does not collect it.
"""

import json
import random
import shutil
import subprocess
import sys
import unittest

import corpus
import run
import timed
import traced
from common import ROOT, WORK, WORKLOADS, failure_types, import_cdcalc, run_query

cd = import_cdcalc()
SCRATCH = WORK / "selftest"


def one_var_terms(n):
    """All one-variable terms with exactly n leaves."""
    if n == 1:
        return [cd.Leaf(1)]
    return [cd.Node(a, b) for k in range(1, n) for a in one_var_terms(k) for b in one_var_terms(n - k)]


def small_corpus(workload, keep):
    """A few light queries of a real corpus, in their own directory."""
    rows = corpus.build(workload, 1).splitlines()
    picked = [line for line in rows if keep(line.split("\t")[0])][:10]
    path = SCRATCH / workload
    path.mkdir(parents=True, exist_ok=True)
    (path / "queries.tsv").write_text("\n".join(picked) + "\n", encoding="utf-8")
    return path


class CorpusTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = corpus.build(workload, 7)
                self.assertEqual(first, corpus.build(workload, 7))
                self.assertNotEqual(first, corpus.build(workload, 8))

    def test_labels_agree_with_oracle_on_exhaustive_slice(self):
        # Every pair of one-variable terms up to 5 leaves: the label, where
        # given, must match a deeper oracle run and decide itself.
        terms = [t for n in range(1, 6) for t in one_var_terms(n)]
        for t in terms:
            for t2 in terms:
                label, _ = corpus.label_pair(t, t2)
                oracle = cd.oracle_equiv(t, t2, 3)
                if label == "?":
                    continue
                if oracle is not cd.Verdict.UNKNOWN:
                    self.assertEqual(label == "yes", oracle is cd.Verdict.EQUIVALENT)
                self.assertEqual(label == "yes", cd.decide(t, t2))

    def test_step_count_agrees_with_the_budget(self):
        # A pair is in the failing stratum exactly when decide runs out of
        # the step budget.
        rng = random.Random(5)
        budget = 300
        for _ in range(40):
            t, t2 = corpus.random_term(rng, 12), corpus.random_term(rng, 12)
            steps = corpus.redress_steps(corpus.blueprint_difference(t, t2), budget + 1)
            try:
                cd.decide(t, t2, budget=budget)
            except cd.StepBudgetExceeded:
                self.assertEqual(steps, budget + 1)
            else:
                self.assertLessEqual(steps, budget)

    def test_construction_labels_agree_with_oracle(self):
        rng = random.Random(3)
        terms = [t for n in range(2, 6) for t in one_var_terms(n)]
        terms += [corpus.random_term(rng, rng.randint(3, 6), 3) for _ in range(40)]
        for t in terms:
            _, walked = corpus.walk(rng, t, 3)
            _, negative = corpus.walk(rng, cd.Node(t, t.right), 2)
            self.assertIsNot(cd.oracle_equiv(t, walked, 2), cd.Verdict.NOT_EQUIVALENT)
            self.assertIsNot(cd.oracle_equiv(t, cd.partial(t), 2), cd.Verdict.NOT_EQUIVALENT)
            self.assertIsNot(cd.oracle_equiv(t, negative, 2), cd.Verdict.EQUIVALENT)


class PrinterTest(unittest.TestCase):
    def test_every_metric_is_printed(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        keep = {"decide-random": lambda q: q != "k32", "decide-equiv": lambda q: q.startswith("walk"),
                "garside": lambda q: q.startswith("g")}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                path = small_corpus(workload, keep[workload])
                correct, attempted, _, metrics = run.end_to_end(cd, workload, path, 0.1)
                self.assertTrue(correct)
                self.assertGreaterEqual(attempted, 1)
                self.assertEqual(set(metrics), {m["name"] for m in spec["end_to_end"]})
                traced = json.loads(run.child("traced.py", "--workload", workload, "--corpus", path))
                self.assertEqual(set(traced["metrics"]), {m["name"] for m in spec["per_layer"]})
                for m in spec["end_to_end"] + spec["per_layer"]:
                    got = metrics.get(m["name"]) or traced["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])

    def test_forked_query_matches_in_process(self):
        t = cd.parse_term("((x1 x2) (x1 (x2 x1)))")
        label = corpus.render_profile(corpus.spine_profile(cd, t))
        query = (cd, "partial2", label, (t,), WORKLOADS["garside"], failure_types(cd))
        elapsed, kind, ok, peak_mb = timed.run_forked(*query)
        self.assertEqual((kind, ok), timed.run_one(*query)[1:])
        self.assertTrue(ok)
        self.assertGreater(elapsed, 0)
        self.assertGreater(peak_mb, 0)

    def test_traced_garside_runs_the_library_functions(self):
        garside = sys.modules["cdcalc.garside"]
        originals = (garside.delta, garside.apply_word, garside.complement)
        tracer = traced.Tracer()
        replay = traced.Replay(cd, tracer, WORKLOADS["garside"])
        t = cd.parse_term("((x1 x2) (x1 (x2 x1)))")
        u = cd.parse_word("e")
        with tracer.span("query.transport"):
            u2 = replay.run("transport", (t, u))
        self.assertEqual(u2, cd.delta_transport(t, u))
        self.assertEqual((garside.delta, garside.apply_word, garside.complement), originals)
        names = [span[0] for span in tracer.spans]
        # delta_transport computes delta(t) and delta((t)u) twice each.
        self.assertEqual(names.count("garside.delta"), 4)
        self.assertIn("redress.complement", names)

    def test_wrong_label_fails_the_run(self):
        path = small_corpus("decide-random", lambda q: q != "k32")
        rows = (path / "queries.tsv").read_text(encoding="utf-8").splitlines()
        # Flip the label of the first labelled query that decide answers.
        params = WORKLOADS["decide-random"]
        for i, row in enumerate(rows):
            qid, op, label, source, *args = row.split("\t")
            try:
                run_query(cd, op, [cd.parse_term(a) for a in args], params)
            except cd.StepBudgetExceeded:
                continue
            if label != "?":
                break
        else:
            self.fail("no labelled, answered query in the slice")
        rows[i] = "\t".join((qid, op, {"yes": "no", "no": "yes"}[label], source, *args))
        (path / "queries.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        correct, _, _, _ = run.end_to_end(cd, "decide-random", path, 0.1)
        self.assertFalse(correct)

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "garside", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
