"""Tests of the benchmark's own logic (no build, no vtrans run).

    python3 -m unittest discover -s layerbench
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def fake_rep(ops=10, failed=0, checks=None, digest="d0", sim=None,
             wall=1.0, points=(0.5, 0.5), workload="sweep", layers=None):
    return {"workload": workload, "setup_s": 0.1, "wall_s": wall,
            "point_s": list(points), "peak_rss_mb": 10.0,
            "ops": ops, "failed_ops": failed, "digest": digest,
            "sim_ms": sim if sim is not None else [1.0, 2.0, 3.0],
            "checks": checks if checks is not None else {"ok": True},
            "layers": layers if layers is not None else {},
            "provenance": {}}


class Streams(unittest.TestCase):
    def plan(self, workload, seed, stream=0):
        return workloads.plan_text(workload, seed, stream, traced=False,
                                   check_attribution=False, workers=2)

    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(self.plan(w, 7), self.plan(w, 7), w)

    def test_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(self.plan(w, 7), self.plan(w, 8), w)

    def test_farm_streams_of_one_seed_differ(self):
        for w in ("farm_zipf", "farm_chunked"):
            self.assertNotEqual(self.plan(w, 7, 0), self.plan(w, 7, 1), w)

    def test_sweep_spans_the_fig3_ranges(self):
        for seed in range(20):
            grid = workloads.sweep_grid(seed)
            crfs = sorted({c for c, _ in grid})
            refs = sorted({r for _, r in grid})
            self.assertEqual(len(grid), 9)
            self.assertTrue(1 <= crfs[0] <= 9 and 43 <= crfs[-1] <= 51)
            self.assertTrue(1 <= refs[0] <= 2 and 12 <= refs[-1] <= 16)

    def test_zipf_stream_shape(self):
        jobs = workloads.zipf_stream(3, 0)
        self.assertEqual(len(jobs), workloads.ZIPF_JOBS)
        times = [t for _, t in jobs]
        self.assertEqual(times, sorted(times))
        catalog = workloads.zipf_catalog()
        self.assertEqual(len(set(catalog)), workloads.ZIPF_ITEMS)
        counts = {}
        for rendition, _ in jobs:
            counts[rendition] = counts.get(rendition, 0) + 1
        # Rank 0 is the most popular rendition.
        self.assertEqual(max(counts, key=counts.get), catalog[0])

    def test_chunked_renditions_are_distinct(self):
        jobs = workloads.chunked_stream(3, 0)
        self.assertEqual(len(jobs), workloads.CHUNK_GRAPHS)
        self.assertEqual(len({r for r, _ in jobs}), workloads.CHUNK_GRAPHS)


class Percentiles(unittest.TestCase):
    def test_tail_level_keeps_ten_samples_beyond(self):
        cases = {9: 100.0, 19: 100.0, 20: 50.0, 99: 50.0, 100: 90.0,
                 999: 90.0, 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for n, level in cases.items():
            self.assertEqual(report.tail_level(n), level, n)
            if level < 100.0:
                self.assertGreaterEqual(round(n * (100.0 - level) / 100.0, 6),
                                        10.0)

    def test_percentile_interpolates(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(report.percentile(values, 50), 3.0)
        self.assertEqual(report.percentile(values, 100), 5.0)
        self.assertAlmostEqual(report.percentile(values, 90), 4.6)
        with self.assertRaises(ValueError):
            report.percentile([], 50)

    def test_farm_sample_pools_each_stream_once(self):
        reps = [fake_rep(sim=[1.0]), fake_rep(sim=[2.0]),
                fake_rep(sim=[3.0]), fake_rep(sim=[1.0])]
        self.assertEqual(report.latency_sample("farm_zipf", reps),
                         [1.0, 2.0, 3.0])
        self.assertEqual(report.latency_sample("sweep", reps), [1.0])


class HostTime(unittest.TestCase):
    def test_sweep_sums_each_points_fastest_repetition(self):
        reps = [fake_rep(points=(1.0, 3.0)), fake_rep(points=(2.0, 2.0))]
        self.assertEqual(report.host_wall("sweep", reps), 3.0)

    def test_farm_takes_the_fastest_repetition(self):
        reps = [fake_rep(wall=w) for w in (6.0, 9.0, 5.0)]
        self.assertEqual(report.host_wall("farm_zipf", reps), 5.0)

    def test_setup_is_the_median_over_every_setup(self):
        reps = [fake_rep(), fake_rep()]  # setup_s 0.1 each
        self.assertEqual(report.setup_seconds(reps), 0.1)
        self.assertEqual(report.setup_seconds(reps, [0.3, 0.4, 0.5]), 0.3)
        e2e = report.end_to_end("sweep", reps, [0.3, 0.4, 0.5])
        self.assertEqual(e2e["setup_s"], 0.3)

    def test_repetition_count_depends_on_seconds_alone(self):
        for w in workloads.WORKLOADS:
            for traced in (False, True):
                n = run.repetitions(w, traced, 30)
                self.assertGreaterEqual(n, workloads.STREAMS[w])
                self.assertGreaterEqual(n, run.MIN_REPS[traced])
                self.assertLessEqual(n, run.repetitions(w, traced, 60))
        self.assertEqual(run.repetitions("sweep", False, 30), 9)
        self.assertEqual(run.repetitions("farm_zipf", False, 1), 3)


class Ledger(unittest.TestCase):
    ARMS = {"codec.transcode_s": 0.2, "trace.emit_s": 0.1,
            "uarch.model_s": 0.5, "core.self_s": 0.0, "obs.attr_s": 0.1,
            "core.run_s": 0.9, "farm.submit_s": 0.1, "farm.drain_s": 0.9,
            "farm.control_s": 0.2, "farm.execute_s": 0.7, "arms.runs": 4}

    def reps(self, workload, walls):
        return [fake_rep(workload=workload, wall=w, layers=dict(self.ARMS))
                for w in walls]

    def test_sweep_residual_is_wall_minus_arms(self):
        rep = self.reps("sweep", [1.0])[0]
        self.assertAlmostEqual(report.layer_values(rep)["core.residual_s"],
                               0.1)

    def test_farm_residual_is_not_a_layer(self):
        rep = self.reps("farm_zipf", [5.0])[0]
        self.assertEqual(report.layer_values(rep)["core.residual_s"], 0.0)

    def test_only_the_sweep_gets_a_verdict(self):
        sweep = "\n".join(report.ledger("sweep", self.reps(
            "sweep", [0.8, 1.0, 1.2])))
        self.assertIn("adds up", sweep)
        far = "\n".join(report.ledger("sweep", self.reps(
            "sweep", [1.5, 1.5, 1.5])))
        self.assertIn("outside the spread", far)
        farm = "\n".join(report.ledger("farm_zipf", self.reps(
            "farm_zipf", [1.0, 1.0, 1.0])))
        self.assertNotIn("adds up", farm)
        self.assertNotIn("outside the spread", farm)


class FailAccounting(unittest.TestCase):
    def test_failed_operations_count_against_attempted(self):
        reps = [fake_rep(ops=100, failed=1), fake_rep(ops=100, failed=3)]
        correct, attempted, failed, bad = report.verdict("sweep", reps)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed, bad), (200, 4, []))
        e2e = report.end_to_end("sweep", reps)
        self.assertAlmostEqual(e2e["ok_frac"], 0.98)

    def test_failed_check_makes_the_run_incorrect(self):
        reps = [fake_rep(), fake_rep(checks={"decode_frames": False})]
        correct, _, _, bad = report.verdict("sweep", reps)
        self.assertFalse(correct)
        self.assertEqual(bad, ["decode_frames"])

    def test_rerun_stream_must_reproduce_its_digest(self):
        streams = workloads.STREAMS["farm_zipf"]
        reps = [fake_rep(digest="s%d" % i) for i in range(streams)]
        reps.append(fake_rep(digest="s0"))
        self.assertTrue(report.verdict("farm_zipf", reps)[0])
        reps.append(fake_rep(digest="changed"))
        self.assertEqual(report.verdict("farm_zipf", reps)[3],
                         ["rep_identity"])

    def finish(self, reps):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.finish("sweep", False, reps, {})
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_failing_check_exits_nonzero(self):
        code, line = self.finish([fake_rep(), fake_rep()])
        self.assertEqual(code, 0)
        self.assertTrue(line["correct"])
        code, line = self.finish(
            [fake_rep(), fake_rep(checks={"attribution_fingerprint": False})])
        self.assertEqual(code, 1)
        self.assertFalse(line["correct"])

    def test_result_line_has_exactly_the_contract_keys(self):
        _, line = self.finish([fake_rep(), fake_rep()])
        self.assertEqual(sorted(line),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(line["metrics"]), sorted(report.END_TO_END))


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", report.END_TO_END),
                           ("per_layer", report.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"])
                        for m in spec[key]}
            self.assertEqual(declared, table, key)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
