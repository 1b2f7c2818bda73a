"""Tests of the benchmark's metric grammar, its output parsing and its
correctness gate. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The gate test runs the built benchmark binary and is skipped when it has
not been built (`cargo build --release --manifest-path perfbench/Cargo.toml`).
"""

import copy
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def rust_metrics(block):
    """(name, unit) pairs of the metric tuples in a block of Rust source."""
    return re.findall(r'\(\s*"([A-Za-z0-9_.]+)",\s*[^;]*?,\s*"([^"]+)",?\s*\)', block)


class SpecTests(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
        self.source = read(os.path.join(HERE, "src", "metrics.rs"))

    def test_benchmark_json_passes_the_grammar(self):
        self.assertEqual(run.spec_errors(self.spec), [])

    def test_benchmark_json_has_exactly_the_contract_keys(self):
        self.assertEqual(
            sorted(self.spec),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        )
        for w in self.spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
        for m in self.spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
        for m in self.spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])

    def test_grammar_rejects_bad_names_units_and_bounds(self):
        bad = copy.deepcopy(self.spec)
        bad["per_layer"][0]["name"] = "_leading_underscore"
        bad["per_layer"][1]["name"] = "has space"
        bad["per_layer"][2]["name"] = "x" * 65
        bad["per_layer"][3]["unit"] = "micro seconds"
        bad["end_to_end"][0]["bound"] = 0.3
        bad["end_to_end"][1]["name"] = bad["end_to_end"][0]["name"]
        errors = " | ".join(run.spec_errors(bad))
        for fragment in ["_leading_underscore", "has space", "x" * 65, "micro seconds",
                         "outside (0, 0.25]", "not unique"]:
            self.assertIn(fragment, errors)

    def test_setup_metric_is_required(self):
        bad = copy.deepcopy(self.spec)
        bad["end_to_end"] = [m for m in bad["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in e for e in run.spec_errors(bad)))

    def test_binary_reports_the_declared_metrics(self):
        e2e = self.source[self.source.index("pub fn end_to_end"):]
        e2e = e2e[:e2e.index("}\n}")]
        layers = self.source[self.source.index("let per_layer = vec!["):]
        layers = layers[:layers.index("];")]
        declared = lambda key: [(m["name"], m["unit"]) for m in self.spec[key]]
        self.assertEqual(rust_metrics(e2e), declared("end_to_end"))
        self.assertEqual(rust_metrics(layers), declared("per_layer"))

    def test_binary_knows_every_workload(self):
        line = re.search(r"pub const WORKLOADS: \[&str; \d+\] =\s*\[(.*?)\];", self.source, re.S)
        names = re.findall(r'"([^"]+)"', line.group(1))
        self.assertEqual(sorted(names), sorted(w["name"] for w in self.spec["workloads"]))

    def test_default_and_held_out_seeds_differ(self):
        seeds = run.seeds()
        self.assertNotEqual(seeds["default"], seeds["held_out"])


class SummaryTests(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
        self.metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in self.spec["end_to_end"]}

    def line(self, **override):
        summary = {"correct": True, "attempted": 10, "failed": 0, "metrics": self.metrics}
        summary.update(override)
        return json.dumps(summary)

    def test_well_formed_summary_parses(self):
        summary = run.parse_summary(self.line(), self.spec, trace=False)
        self.assertEqual(summary["attempted"], 10)

    def test_traced_summary_needs_the_per_layer_metrics(self):
        with self.assertRaisesRegex(ValueError, "metrics differ"):
            run.parse_summary(self.line(), self.spec, trace=True)
        layers = {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in self.spec["per_layer"]}
        run.parse_summary(self.line(metrics=layers), self.spec, trace=True)

    def test_keys_must_be_exact_and_ordered(self):
        summary = json.loads(self.line())
        reordered = json.dumps({k: summary[k] for k in ["attempted", "correct", "failed", "metrics"]})
        extra = json.dumps(dict(summary, note="x"))
        missing = json.dumps({k: v for k, v in summary.items() if k != "failed"})
        for line in [reordered, extra, missing]:
            with self.assertRaisesRegex(ValueError, "keys"):
                run.parse_summary(line, self.spec, trace=False)

    def test_counts_must_be_whole_and_consistent(self):
        for bad in [{"attempted": 2.0}, {"attempted": 0}, {"failed": 11}, {"failed": True},
                    {"correct": "yes"}]:
            with self.assertRaises(ValueError, msg=bad):
                run.parse_summary(self.line(**bad), self.spec, trace=False)

    def test_metric_values_must_be_finite_numbers_with_the_declared_unit(self):
        for value, unit in [(None, None), ("1.0", None), (float("nan"), None), (True, None),
                            (1.0, "furlongs")]:
            metrics = copy.deepcopy(self.metrics)
            metrics["setup_s"]["value"] = value
            if unit:
                metrics["setup_s"]["unit"] = unit
            with self.assertRaises(ValueError, msg=(value, unit)):
                run.parse_summary(self.line(metrics=metrics), self.spec, trace=False)

    def test_missing_or_extra_metric_is_rejected(self):
        metrics = dict(self.metrics)
        del metrics["f1"]
        with self.assertRaisesRegex(ValueError, "missing \\['f1'\\]"):
            run.parse_summary(self.line(metrics=metrics), self.spec, trace=False)
        metrics = dict(self.metrics, latency_ms={"value": 1.0, "unit": "ms"})
        with self.assertRaisesRegex(ValueError, "extra \\['latency_ms'\\]"):
            run.parse_summary(self.line(metrics=metrics), self.spec, trace=False)

    def test_garbage_is_rejected(self):
        for line in ["", "not json", "[1, 2]", '{"correct": true']:
            with self.assertRaises(ValueError):
                run.parse_summary(line, self.spec, trace=False)


def built_binary():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    path = os.path.join(target, "release", run.BINARY)
    return path if os.path.exists(path) else None


@unittest.skipUnless(built_binary(), "benchmark binary not built")
class GateTests(unittest.TestCase):
    # A batch workload, and the drift workload whose streams run on
    # worker threads.
    WORKLOADS = ["power_stream", "drift_adapt"]

    def run_binary(self, workload, *extra):
        cmd = [built_binary(), "--workload", workload, "--seed", "3", "--seconds", "0.1",
               "--trace", "0", *extra]
        done = subprocess.run(cmd, env=dict(os.environ, HEC_THREADS=run.THREADS),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=run.RUN_TIMEOUT_S, check=False, cwd=ROOT)
        spec = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
        lines = done.stdout.strip().splitlines()
        return done, run.parse_summary(lines[-1], spec, trace=False), json.loads(lines[-2])

    def test_clean_run_passes_the_gate(self):
        for workload in self.WORKLOADS:
            with self.subTest(workload):
                done, summary, record = self.run_binary(workload)
                self.assertEqual(done.returncode, 0, done.stderr)
                self.assertTrue(summary["correct"])
                self.assertEqual(summary["failed"], 0)
                self.assertEqual(len(record["pass_wall_s"]), summary["attempted"])

    def test_corrupted_verdict_is_a_failed_pass(self):
        # power_stream flips a verdict, which the result comparison
        # catches; drift_adapt flips a parsed label, which the label
        # check catches.
        reasons = {"power_stream": "differs from the serial reference",
                   "drift_adapt": "wrong label"}
        for workload in self.WORKLOADS:
            with self.subTest(workload):
                done, summary, record = self.run_binary(workload, "--inject-fault")
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(summary["correct"])
                self.assertEqual(summary["failed"], 1)
                self.assertLess(summary["metrics"]["success_rate"]["value"], 1.0)
                self.assertIn(reasons[workload], " ".join(record["failures"]))


if __name__ == "__main__":
    unittest.main()
