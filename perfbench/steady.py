#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and set-to-set agreement.

    python3 perfbench/steady.py --workloads net_ycsb_a,kv_masking_ycsb_b \
        --runs 10 [--sets 2] [--first-seed 100] [--seconds 45] [--json out.json]

Runs `perfbench/run.py --trace 0` once per seed for each workload, in
`--sets` sets of `--runs` runs (each run its own seed), and prints, per
end-to-end metric of BENCHMARK.json and per set, the median and the
spread: the distance between the first and third quartile of the runs
(Python's statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound and a third of it, the steadiness target.
With two or more sets it also prints how much worse each later set's
median is than the first's, as a share of the first (the change in the
metric's "better" direction counts as 0), against the bound. Run from
the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return max(0.0, change if better == "lower" else -change)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: output checks failed" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    # runs[set][workload] = one dict of metric values per seed
    runs = []
    seed = args.first_seed
    for s in range(args.sets):
        runs.append({})
        for workload in workloads:
            runs[s][workload] = []
            for i in range(args.runs):
                runs[s][workload].append(run_once(workload, seed, seconds))
                seed += 1
                sys.stderr.write("set %d %s run %d/%d done\n"
                                 % (s + 1, workload, i + 1, args.runs))

    worst_spread = {}  # metric name -> worst spread / bound
    worst_shift = 0.0
    for workload in workloads:
        print("%s (%d sets of %d runs)" % (workload, args.sets, args.runs))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs[s][workload]] for s in range(args.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worst_spread[name] = max([worst_spread.get(name, 0.0)] +
                                     [x / bound for x in spreads])
            cells = "  ".join("median %11.4f spread %6.4f %s"
                              % (med, sp, "ok" if sp < bound / 3 else "WIDE")
                              for med, sp in zip(medians, spreads))
            shifts = [worsening(medians[0], med, m["better"]) for med in medians[1:]]
            shift = max(shifts, default=0.0)
            worst_shift = max(worst_shift, shift / bound)
            print("  %-16s %s  bound %5.3f target %6.4f%s"
                  % (name, cells, bound, bound / 3,
                     "  worse by %6.4f %s" % (shift, "ok" if shift <= bound else "OVER")
                     if args.sets > 1 else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    for name, value in worst_spread.items():
        print("worst spread / bound, %-16s %.3f%s"
              % (name, value, "  (only its median change is bounded)"
                 if name == "setup_s" else ""))
    if args.sets > 1:
        print("worst median change / bound, every metric: %.3f" % worst_shift)
    return 0


if __name__ == "__main__":
    sys.exit(main())
