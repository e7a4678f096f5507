"""Self-tests of the campaign benchmark's arithmetic and output checks, on
synthetic inputs. run.py runs them before every measurement and fails the
command if any fails; `run.py --selftest` runs them verbosely.

The planted-defect tests feed run.evaluate (the path every invocation takes)
documents carrying one defect each and require the command to fail.
"""

import contextlib
import copy
import io
import json
import statistics
import unittest
from unittest import mock

import benchlib
import run
from benchlib import BenchError


def record(index, injections=4, events=1000, sent=10, received=9):
    classes = dict.fromkeys(benchlib.CLASSES, 0)
    classes["m_masked"] = injections - 1
    classes["m_timeout"] = 1 if injections else 0
    if not injections:
        classes["m_masked"] = 0
    rec = {"run": index, "name": f"gap-go/both/base/r{index}", "seed": 7,
           "outcome": "ok", "attempts": 1, "timeouts": 0, "sent": sent,
           "received": received, "injections": injections, "events": events}
    rec.update(classes)
    return rec


def jsonl_of(records):
    return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records)


def spans_for(n_runs, events=1000, symbols=800):
    spans, next_id = [], 1
    for i in range(n_runs):
        t = i * 100
        run_id, boot_id, camp_id = next_id, next_id + 1, next_id + 2
        next_id += 10
        counts = dict(injector_chars=50, injector_fires=4, packets_routed=3,
                      flow_symbols=2, fc_frames_received=0,
                      messages_sent=10, messages_received=9,
                      analysis_injections=4, analysis_observations=2)
        spans += [
            {"id": run_id, "parent": 0, "layer": "orchestrator",
             "name": "run", "run": i, "round": 0, "t0": t, "t1": t + 90},
            {"id": boot_id, "parent": run_id, "layer": "nftape",
             "name": "boot", "run": i, "round": 0, "t0": t, "t1": t + 10},
            {"id": next_id - 1, "parent": boot_id, "layer": "nftape",
             "name": "make_fabric", "run": i, "round": 0, "t0": t,
             "t1": t + 2},
            {"id": camp_id, "parent": run_id, "layer": "nftape",
             "name": "campaign", "run": i, "round": 0, "t0": t + 10,
             "t1": t + 90, "events": events, "symbols": symbols,
             "counts": counts},
            {"id": next_id - 2, "parent": camp_id, "layer": "sim",
             "name": "settle", "phase": "traffic", "run": i, "round": 0,
             "t0": t + 20, "t1": t + 80, "events": events,
             "symbols": symbols},
            {"id": next_id - 3, "parent": 0, "layer": "orchestrator",
             "name": "jsonl", "run": i, "round": 0, "t0": 0, "t1": 1,
             "cpu": 1000},
        ]
    return spans


def make_doc(n_runs=3, plain_passes=2, traced_passes=0):
    """One invocation's document: `plain_passes` plain passes, then
    `traced_passes` traced ones, and 10 set-up-only passes. Plain pass k
    takes 2 + k seconds."""
    jsonl = jsonl_of([record(i) for i in range(n_runs)])

    def a_pass(k, is_traced):
        return {"traced": is_traced, "setup_s": 0.001, "wall_s": 2.0 + k,
                "sim_span_s": 0.75, "rounds": 0, "retries": 0,
                "overhead_ns": 5 if is_traced else 0,
                "runs": [{"index": i, "outcome": "ok", "wall_ms": 100.0 + i,
                          "symbols": 800} for i in range(n_runs)],
                "jsonl": jsonl,
                "spans": spans_for(n_runs) if is_traced else []}

    return {"env": {"compiler": "12.2.0", "build_type": "RelWithDebInfo",
                    "cxx_flags": " -O2 -g -DNDEBUG", "optimized": True,
                    "sanitizers": ""},
            "workers": 2, "peak_rss_kb": 10240,
            "setup_only_s": [0.0005] * 10,
            "passes": [a_pass(k, False) for k in range(plain_passes)] +
                      [a_pass(0, True) for _ in range(traced_passes)]}


NON_DEFAULT_SEED = run.DEFAULT_SEED + 1


class Statistics(unittest.TestCase):
    def test_median_and_percentiles(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertAlmostEqual(benchlib.percentile(range(1, 11), 90), 9.1)
        self.assertEqual(benchlib.percentile([5.0], 90), 5.0)
        with self.assertRaises(BenchError):
            benchlib.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7, 1, 9, 3, 5, 2, 8, 6, 4, 10]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q[0], q[2]))
        self.assertEqual(benchlib.quartiles(range(1, 10)), (2.5, 7.5))
        self.assertAlmostEqual(benchlib.spread(range(1, 10)), 1.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(99), 50)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(112), 90)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_busy_and_barrier_idle_fractions(self):
        self.assertEqual(benchlib.busy_frac([(0, 10), (0, 5)], 2, 10), 0.75)
        # Batch 1: 2 workers x 10 = 20 capacity, 15 busy. Batch 2: full.
        batches = [[(0, 10), (0, 5)], [(20, 30), (20, 30)], []]
        self.assertEqual(benchlib.barrier_idle_frac(batches, 2), 5 / 40)
        with self.assertRaises(BenchError):
            benchlib.barrier_idle_frac([[]], 2)

    def test_self_time(self):
        parent = {"t0": 0, "t1": 100}
        kids = [{"t0": 10, "t1": 40}, {"t0": 50, "t1": 60}]
        self.assertEqual(benchlib.self_time(parent, kids), 60)

    def test_end_to_end_pools_every_pass(self):
        # Plain passes of 2, 3 and 4 s, each 3 runs of 0.75 simulated s.
        doc = make_doc(plain_passes=3)
        m = benchlib.end_to_end(doc["passes"], doc["setup_only_s"],
                                doc["peak_rss_kb"])
        self.assertEqual(m["runs_per_s"][0], 9 / 9.0)
        self.assertEqual(m["sim_s_per_wall_s"][0], 2.25 / 9.0)
        self.assertEqual(m["run_wall_ms_p90"][0],
                         benchlib.percentile([100, 101, 102] * 3, 90))

    def test_events_per_symbol_with_zero_symbols_fails(self):
        traced = make_doc(plain_passes=1, traced_passes=1)["passes"][1]
        for s in traced["spans"]:
            if "symbols" in s:
                s["symbols"] = 0
        with self.assertRaises(BenchError):
            benchlib.layer_metrics(traced, 2)

    def test_layer_metrics_on_synthetic_trace(self):
        traced = make_doc(n_runs=2, plain_passes=1,
                          traced_passes=1)["passes"][1]
        m = benchlib.layer_metrics(traced, 2)
        self.assertEqual(m["sim.events"][0], 2000)
        self.assertEqual(m["sim.events_per_symbol"][0], 1.25)
        self.assertEqual(m["sim.ns_per_event"][0], 120 / 2000)
        self.assertEqual(m["nftape.traffic_frac"][0], 120 / 180)
        self.assertEqual(m["nftape.fabric_builds"][0], 1 * 2)
        self.assertEqual(m["nftape.runner_self_ms"][0], 20 / 1e6)
        self.assertEqual(m["orchestrator.jsonl_us"][0], 1.0)
        self.assertEqual(m["host.messages_sent"][0], 20)
        self.assertEqual(m["orchestrator.worker_busy_frac"][0],
                         180 / (2 * 2e9))

    def test_strip_events(self):
        line = '{"run":0,"injections":3,"events":12345,"m_masked":3}'
        self.assertEqual(benchlib.strip_events(line),
                         '{"run":0,"injections":3,"m_masked":3}')


class ResultSchema(unittest.TestCase):
    expected = {"runs_per_s": "1/s", "setup_s": "s"}

    def line(self, **over):
        doc = {"correct": True, "attempted": 4, "failed": 0,
               "metrics": {"runs_per_s": {"value": 1.5, "unit": "1/s"},
                           "setup_s": {"value": 0.001, "unit": "s"}}}
        doc.update(over)
        return json.dumps(doc)

    def test_good_result_passes(self):
        benchlib.check_result(self.line(), self.expected)
        line = benchlib.result_line(4, 0, {"runs_per_s": (1.5, "1/s"),
                                           "setup_s": (0.001, "s")})
        benchlib.check_result(line, self.expected)

    def test_bad_results_fail(self):
        bad = [
            self.line(extra=1),
            self.line(attempted=0),
            self.line(attempted=2.5),
            self.line(failed=5),
            self.line(metrics={"runs_per_s": {"value": 1, "unit": "1/s"}}),
            self.line(metrics={"runs_per_s": {"value": 1, "unit": "ms"},
                               "setup_s": {"value": 1, "unit": "s"}}),
            self.line(metrics={"runs_per_s": {"value": "1", "unit": "1/s"},
                               "setup_s": {"value": 1, "unit": "s"}}),
            json.dumps({"correct": True, "attempted": 4, "failed": 0,
                        "metrics": {"runs_per_s": {"value": float("nan"),
                                                   "unit": "1/s"},
                                    "setup_s": {"value": 1, "unit": "s"}}}),
        ]
        for line in bad:
            with self.assertRaises(BenchError, msg=line):
                benchlib.check_result(line, self.expected)


class PlantedDefects(unittest.TestCase):
    """Each defect the output checks exist for must fail the command."""

    def evaluate(self, doc, seed=NON_DEFAULT_SEED, trace=0):
        return run.evaluate(doc, "fc_grid", seed, trace)

    def test_clean_documents_pass(self):
        attempted, failed, metrics, _ = self.evaluate(make_doc())
        self.assertEqual((attempted, failed), (6, 0))
        # 2 pass set-ups of 1 ms and 10 set-up-only passes of 0.5 ms.
        self.assertEqual(metrics["setup_s"][0], 0.0005)
        self.assertEqual(metrics["run_wall_ms_p50"][0], 101.0)
        self.assertEqual(metrics["peak_rss_mb"][0], 10.0)
        benchlib.check_result(benchlib.result_line(attempted, failed, metrics),
                              run.declared_metrics(0))
        attempted, failed, metrics, _ = self.evaluate(
            make_doc(plain_passes=1, traced_passes=1), trace=1)
        benchlib.check_result(benchlib.result_line(attempted, failed, metrics),
                              run.declared_metrics(1))

    def test_run_not_ok(self):
        doc = make_doc()
        for p in doc["passes"]:
            p["runs"][1]["outcome"] = "timed_out"
            p["jsonl"] = p["jsonl"].replace('"outcome":"ok"',
                                            '"outcome":"timed_out"', 1)
        with self.assertRaises(BenchError):
            self.evaluate(doc)

    def test_record_not_ok_in_jsonl_only(self):
        doc = make_doc()
        for p in doc["passes"]:
            p["jsonl"] = p["jsonl"].replace('"outcome":"ok"',
                                            '"outcome":"error"', 1)
        with self.assertRaises(BenchError):
            self.evaluate(doc)

    def test_classes_do_not_sum_to_injections(self):
        doc = make_doc()
        for p in doc["passes"]:
            p["jsonl"] = p["jsonl"].replace('"m_masked":3', '"m_masked":2', 1)
        with self.assertRaises(BenchError):
            self.evaluate(doc)

    def test_jsonl_differs_between_repetitions(self):
        doc = make_doc()
        plain = doc["passes"][1]
        plain["jsonl"] = plain["jsonl"].replace('"sent":10', '"sent":11', 1)
        with self.assertRaises(BenchError):
            self.evaluate(doc)

    def test_traced_jsonl_differs_from_plain(self):
        doc = make_doc(plain_passes=1, traced_passes=1)
        traced = doc["passes"][1]
        traced["jsonl"] = traced["jsonl"][:-1]
        with self.assertRaises(BenchError):
            self.evaluate(doc, trace=1)

    def test_digest_mismatch_at_default_seed(self):
        doc = make_doc()
        with self.assertRaises(BenchError):
            self.evaluate(doc, seed=run.DEFAULT_SEED)
        pinned = benchlib.digest(doc["passes"][0]["jsonl"])
        with mock.patch.dict(run.WORKLOADS["fc_grid"], digest=pinned):
            self.evaluate(doc, seed=run.DEFAULT_SEED)

    def test_unoptimized_or_sanitized_build(self):
        for env in ({"optimized": False}, {"cxx_flags": " -O0 -g"},
                    {"sanitizers": "address "},
                    {"cxx_flags": " -O2 -fsanitize=undefined"}):
            doc = make_doc()
            doc["env"].update(env)
            with self.assertRaises(BenchError, msg=env):
                self.evaluate(doc)

    def test_zero_metric(self):
        doc = make_doc()
        for p in doc["passes"]:
            p["setup_s"] = 0.0
        doc["setup_only_s"] = [0.0] * len(doc["setup_only_s"])
        with self.assertRaises(BenchError):
            self.evaluate(doc)

    def test_traced_count_differs_from_plain(self):
        doc = make_doc(plain_passes=1, traced_passes=1)
        doc["passes"][1]["spans"][3]["events"] += 1
        with self.assertRaises(BenchError):
            self.evaluate(doc, trace=1)

    def test_counts_differ_between_traced_passes(self):
        doc = make_doc(plain_passes=1, traced_passes=2)
        doc["passes"][2]["spans"][3]["counts"]["injector_chars"] += 1
        with self.assertRaises(BenchError):
            self.evaluate(doc, trace=1)

    def test_command_exits_nonzero_without_a_result(self):
        bad = make_doc()
        plain = bad["passes"][1]
        plain["jsonl"] += plain["jsonl"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "selftest"), \
                mock.patch.object(run, "build"), \
                mock.patch.object(run, "measure",
                                  return_value=copy.deepcopy(bad)), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run.main(["--workload", "fc_grid", "--seed",
                             str(NON_DEFAULT_SEED), "--seconds", "1"])
        self.assertNotEqual(code, 0)
        self.assertEqual(stdout.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
