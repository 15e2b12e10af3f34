#!/usr/bin/env python3
"""Self-tests of the benchmark harness's reductions.

    python3 perfbench/test_run.py

Needs no build: it checks the percentile rules, self time from nested
spans, and that the metric names the harness prints are exactly the ones
BENCHMARK.json declares.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def span(span_id, parent, name, ts, dur):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"id": span_id, "parent": parent, "session": -1}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        samples = list(range(1, 101))
        self.assertEqual(run.nearest_rank(samples, 50), 50)
        self.assertEqual(run.nearest_rank(samples, 99), 99)
        self.assertEqual(run.nearest_rank(samples, 100), 100)
        self.assertEqual(run.nearest_rank([7.0], 99), 7.0)

    def test_nearest_rank_ignores_order_and_rounds_up(self):
        self.assertEqual(run.nearest_rank([5, 1, 4, 2, 3], 50), 3)
        # ceil(0.99 * 10) = 10: the p99 of ten samples is the largest one.
        self.assertEqual(run.nearest_rank(list(range(10)), 99), 9)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertTrue(run.supports(1000, 99))
        self.assertFalse(run.supports(999, 99))
        self.assertFalse(run.supports(0, 50))
        self.assertTrue(run.supports(20, 50))

    def test_round_percentile_is_the_median_over_rounds(self):
        rounds = [{"event_ms": [1, 2, 3]}, {"event_ms": [10, 20, 30]},
                  {"event_ms": [4, 5, 100]}]
        self.assertEqual(run.round_percentile(rounds, 50), 5)
        self.assertEqual(run.round_percentile(rounds, 99), 30)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        events = [
            span(0, -1, "round", 0, 100),
            span(1, 0, "setup", 0, 10),
            span(2, 1, "parser.parse", 2, 5),
            span(3, 0, "eval.materialize", 20, 50),
            span(4, 0, "eval.materialize", 80, 10),
        ]
        selfs = run.self_times(events)
        self.assertAlmostEqual(selfs["round"], 30e-6)
        self.assertAlmostEqual(selfs["setup"], 5e-6)
        self.assertAlmostEqual(selfs["parser.parse"], 5e-6)
        self.assertAlmostEqual(selfs["eval.materialize"], 60e-6)
        total = sum(e["dur"] for e in events if e["args"]["parent"] < 0)
        self.assertAlmostEqual(sum(selfs.values()), total * 1e-6)

    def test_children_are_clipped_to_the_parent(self):
        events = [span(0, -1, "check", 10, 10),
                  span(1, 0, "storage.decode", 5, 10),
                  span(2, 0, "engine.restore", 12, 3)]
        # Coverage is [10, 15) from the clipped child: the overlapping
        # second child adds nothing new.
        self.assertAlmostEqual(run.self_times(events)["check"], 5e-6)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            self.spec = json.load(f)
        self.rounds = [
            {"kind": kind, "setup_s": 0.01, "wall_s": wall, "cpu_s": wall,
             "chase_s": wall,
             "sessions": 3, "event_ms": [float(i) for i in range(1000)]}
            for kind, wall in (("plain", 2.0), ("traced", 2.1),
                               ("guarded", 2.05))]

    def names(self, section):
        return [m["name"] for m in self.spec[section]]

    def test_end_to_end_names_match(self):
        raw = {"rounds": self.rounds[:1], "setup_s": [0.01, 0.02],
               "peak_rss_mb": 100.0}
        self.assertEqual(sorted(run.end_to_end(raw, "paper_batch")),
                         sorted(self.names("end_to_end")))

    def test_throughput_clock_per_workload(self):
        raw = {"rounds": [{"kind": "plain", "wall_s": 4.0, "cpu_s": 2.0,
                           "sessions": 1000, "event_ms": [1.0]}],
               "setup_s": [0.01], "peak_rss_mb": 100.0}
        # The fleet's throughput is elapsed; the one-thread workloads' is CPU.
        self.assertEqual(run.end_to_end(raw, "fleet_small")["sessions_per_s"],
                         250.0)
        self.assertEqual(run.end_to_end(raw, "paper_batch")["sessions_per_s"],
                         500.0)
        self.assertEqual(sorted(run.THROUGHPUT_CLOCK), sorted(run.WORKLOADS))

    def test_per_layer_names_match(self):
        raw = {"rounds": self.rounds, "layers": {"eval.rounds": 7.0},
               "layer_samples_ms": {"streaming.advance_ms": [1.0, 2.0]}}
        values = run.per_layer(raw, self.names("per_layer"))
        self.assertEqual(sorted(values), sorted(self.names("per_layer")))
        self.assertEqual(values["eval.rounds"], 7.0)
        self.assertEqual(values["streaming.advance_p99_ms"], 2.0)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.05)
        self.assertAlmostEqual(values["common.guard_overhead_frac"], 0.025)

    def test_undeclared_driver_metric_is_refused(self):
        raw = {"rounds": self.rounds, "layers": {"eval.no_such": 1.0},
               "layer_samples_ms": {}}
        with self.assertRaises(ValueError):
            run.per_layer(raw, self.names("per_layer"))

    def test_driver_emits_only_declared_layers(self):
        # The driver names its spans and counters as string literals; each
        # one that becomes a metric must be declared in BENCHMARK.json.
        source = (run.HERE / "driver.cc").read_text()
        declared = set(self.names("per_layer"))
        spans = set(re.findall(r'Span \w+\(b\.tracer, "([a-z]+\.[a-z_]+)"', source))
        self.assertTrue(spans)
        for name in spans:
            self.assertIn(name + "_s", declared)
        keys = set(re.findall(r'(?:per_round|values)\["([a-z]+\.[a-z_0-9]+)"\]',
                              source))
        self.assertTrue(keys)
        self.assertFalse(keys - declared)


if __name__ == "__main__":
    unittest.main()
