#!/usr/bin/env python3
"""Known-bad and known-good inputs for bench/check_regression.py.

Usage: test_check_regression.py PATH/TO/serve_throughput

The synthetic reports below carry every kind of gate the benches write;
each case mutates one thing and asserts the checker's verdict. The bench
binary is run twice at a tiny op count: its real report must pass a
gates-only baseline, and an unwritable --json path must exit 2 (a gate
failure exits 1).
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_regression.py")
BENCH = None  # set from argv in __main__

BASELINE = {
    "ops_per_section": 1000,
    "required": ["rate_sweep", "replay.a", "epsilon.x",
                 "optimizer_win.skew", "fabricated.b1"],
    "sections": {"a": {"ops_per_sec": 1000.0, "p99_ns": 5000}},
}

REPORT = {
    "bench": "synthetic",
    "ops_per_section": 1000,
    "ok": True,
    "sections": [{"name": "a", "ops_per_sec": 2000.0, "p99_ns": 4000}],
    "rate_sweep": [{"offered_rate": 50000}],
    "mixes": [
        {"name": "skew", "gated": True, "fixed_max_load": 0.6,
         "optimized_max_load": 0.5},
        {"name": "uniform", "gated": False, "fixed_max_load": 0.3,
         "optimized_max_load": 0.3},
    ],
    "gates": [
        {"name": "replay.a", "pass": True},
        {"name": "epsilon.x", "pass": True, "measured": 0.01,
         "bound": 0.02, "strict": False},
        {"name": "optimizer_win.skew", "pass": True, "measured": 0.5,
         "bound": 0.6, "strict": True},
        {"name": "fabricated.b1", "pass": True, "measured": 0.0,
         "bound": 0.0, "strict": False},
    ],
}


def gate(report, name):
    return next(g for g in report["gates"] if g["name"] == name)


def run_checker(report, baseline):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("report.json", report),
                          ("baseline.json", baseline)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        return subprocess.run([sys.executable, CHECKER] + paths,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT).returncode


class CheckRegression(unittest.TestCase):
    def verdict(self, mutate, baseline=BASELINE):
        report = copy.deepcopy(REPORT)
        mutate(report)
        return run_checker(report, baseline)

    def assert_fails(self, mutate):
        self.assertEqual(self.verdict(mutate), 1)

    def assert_passes(self, mutate):
        self.assertEqual(self.verdict(mutate), 0)

    def test_unmutated_report_passes(self):
        self.assert_passes(lambda r: None)

    def test_ok_false_fails(self):
        self.assert_fails(lambda r: r.update(ok=False))

    def test_ok_missing_fails(self):
        self.assert_fails(lambda r: r.pop("ok"))

    def test_dropped_section_fails(self):
        self.assert_fails(lambda r: r.update(sections=[]))

    def test_throughput_below_floor_fails(self):
        self.assert_fails(
            lambda r: r["sections"][0].update(ops_per_sec=0.79 * 1000.0))

    def test_throughput_at_floor_passes(self):
        self.assert_passes(
            lambda r: r["sections"][0].update(ops_per_sec=0.8 * 1000.0))

    def test_p99_above_ceiling_fails(self):
        self.assert_fails(
            lambda r: r["sections"][0].update(p99_ns=2 * 5000 + 1))

    def test_missing_required_gate_fails(self):
        self.assert_fails(lambda r: r["gates"].remove(gate(r, "replay.a")))

    def test_missing_required_key_fails(self):
        self.assert_fails(lambda r: r.update(rate_sweep=[]))

    def test_failed_gate_fails(self):
        self.assert_fails(lambda r: gate(r, "replay.a").update({"pass": False}))

    def test_gate_numbers_failing_while_marked_pass_fails(self):
        self.assert_fails(lambda r: gate(r, "epsilon.x").update(measured=0.03))

    def test_strict_gate_at_equality_fails(self):
        def tie(r):
            r["mixes"][0]["optimized_max_load"] = 0.6
            gate(r, "optimizer_win.skew").update(measured=0.6)
        self.assert_fails(tie)

    def test_bound_zero_gate_with_one_event_fails(self):
        self.assert_fails(
            lambda r: gate(r, "fabricated.b1").update(measured=1 / 160000))

    def test_ops_per_section_mismatch_fails(self):
        self.assert_fails(lambda r: r.update(ops_per_section=999))

    def test_ungated_losing_mix_passes(self):
        self.assert_passes(
            lambda r: r["mixes"][1].update(optimized_max_load=0.45))


class BenchReport(unittest.TestCase):
    def setUp(self):
        if BENCH is None:
            self.skipTest("no bench binary given")

    def run_bench(self, json_path):
        return subprocess.run(
            [BENCH, "--samples", "100", "--threads", "2", "--json",
             json_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT).returncode

    def test_real_report_passes_a_gates_only_baseline(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_serve.json")
            self.assertEqual(self.run_bench(path), 0)
            with open(path) as f:
                report = json.load(f)
            baseline = {"required": ["rate_sweep", "replay.ycsb_c"]}
            self.assertEqual(run_checker(report, baseline), 0)

    def test_unwritable_json_path_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "missing", "BENCH_serve.json")
            self.assertEqual(self.run_bench(path), 2)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        BENCH = sys.argv.pop(1)
    unittest.main()
