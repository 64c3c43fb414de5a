#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark with CMake (Release) under .bench_build/ (or
under $CARGO_TARGET_DIR when set); later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result: the binary's own lines, then its verdict with
the metrics BENCHMARK.json lists (end_to_end untraced, per_layer
traced), in that order. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["net_ycsb_a", "kv_masking_ycsb_b", "kv_dissem_ycsb_a", "mc_masking_n400"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_checked(cmd):
    """Runs a build step with its output on stderr; exits 2 if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "kv_service.h")):
        sys.stderr.write("perfbench: library sources not found under %s/src\n" % ROOT)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                 "perfbench_selftest"])
    return out


def select_metrics(wanted, produced):
    """BENCHMARK.json's metrics (`wanted`, in its order) out of the ones a
    run produced. A metric the run did not produce reads 0 and is listed
    in `missing`; one produced with another unit is listed in `mismatched`.
    """
    metrics, missing, mismatched = {}, [], []
    for m in wanted:
        got = produced.get(m["name"])
        if got is None:
            missing.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            mismatched.append(m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, missing, mismatched


def run_binary(cmd, wanted, all_required):
    """Runs one benchmark process to completion (killing it on timeout),
    echoes its lines and prints its result with the `wanted` metrics.
    With `all_required`, a passing run that lacks one is an error (every
    workload measures every end-to-end metric); per-layer metrics a
    workload does not exercise read 0."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            universal_newlines=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s and was stopped\n" % RUN_TIMEOUT_S)
        return 2
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        sys.stdout.write(out)
        return proc.returncode if proc.returncode > 1 else 2
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    metrics, missing, mismatched = select_metrics(wanted, result["metrics"])
    for name in missing:
        print("# not measured on this workload (reads 0): %s" % name)
    if mismatched or (missing and all_required and result["correct"]):
        sys.stderr.write("perfbench: the run's metrics do not match BENCHMARK.json"
                         " (missing %s, other unit %s)\n" % (missing, mismatched))
        return 2
    result["metrics"] = metrics
    print(json.dumps(result))
    return proc.returncode


def selftest(out):
    proc = subprocess.run([os.path.join(out, "perfbench_selftest")], cwd=ROOT)
    ok = proc.returncode == 0
    # Metric selection: BENCHMARK.json's order, 0 for a missing metric, a
    # unit mismatch flagged.
    wanted = [{"name": "b", "unit": "ms"}, {"name": "a", "unit": "s"},
              {"name": "c", "unit": "s"}]
    produced = {"a": {"value": 2.5, "unit": "s"}, "b": {"value": 1.5, "unit": "us"},
                "extra": {"value": 9.0, "unit": "s"}}
    metrics, missing, mismatched = select_metrics(wanted, produced)
    if (list(metrics) != ["b", "a", "c"] or metrics["a"]["value"] != 2.5
            or metrics["c"]["value"] != 0.0 or missing != ["c"]
            or mismatched != ["b"]):
        sys.stderr.write("FAIL: select_metrics\n")
        ok = False
    # The steadiness tool's spread against a sorted oracle.
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    import steady
    values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 10.0, 6.0, 5.0]
    s = sorted(values)
    q1 = s[1] + 0.75 * (s[2] - s[1])  # (n+1)/4 = 2.75
    q3 = s[7] + 0.25 * (s[8] - s[7])  # 3(n+1)/4 = 8.25
    med = (s[4] + s[5]) / 2
    if abs(steady.spread(values) - (q3 - q1) / med) > 1e-12:
        sys.stderr.write("FAIL: steady.spread disagrees with the sorted oracle\n")
        ok = False
    print("run.py self-tests %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")

    out = build()
    if args.selftest:
        return selftest(out)
    binary = os.path.join(out, "perfbench")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        code = run_binary([binary, "--workload", name, "--seed", str(args.seed),
                           "--seconds", "%g" % args.seconds, "--trace", args.trace],
                          wanted, args.trace == "0")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
