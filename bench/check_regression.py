#!/usr/bin/env python3
"""CI gate for the *_throughput bench reports.

Usage: check_regression.py BENCH_<bench>.json <bench>_baseline.json

Fails (exit 1) unless:

  * the report says "ok": true;
  * every gate in the report passed, and every gate that carries numbers
    agrees with them: measured <= bound, or measured < bound for a strict
    gate (the bench writes them with %.17g, so this re-evaluation reaches
    the bench's own verdict);
  * every name in the baseline's "required" list is in the report, as a
    gate or as a non-empty top-level key;
  * the report ran the baseline's "ops_per_section", when it names one;
  * every baseline section is in the report's sections[], with throughput
    at least 0.8x and p99 latency at most 2x the baseline values. The
    baselines sit several-fold below/above what the benches measure on a
    quiet machine, so shared-runner noise cannot flap the gate while
    order-of-magnitude regressions still trip it.

Exit 2: bad usage, or a file that cannot be read as JSON.
"""
import json
import sys

OPS_FLOOR = 0.8
P99_CEILING = 2.0


def gate_failures(report):
    failures = []
    for g in report.get("gates", []):
        name = g["name"]
        if "measured" in g:
            measured, bound = g["measured"], g["bound"]
            strict = g.get("strict", False)
            holds = measured < bound if strict else measured <= bound
            if not holds:
                op = "<" if strict else "<="
                failures.append(f"{name}: measured {measured:.6g} {op} "
                                f"bound {bound:.6g} does not hold")
                continue
        if g.get("pass") is not True:
            failures.append(f"{name}: failed")
    return failures


def check(report, baseline):
    failures = []
    if report.get("ok") is not True:
        failures.append("the bench did not report ok=true")
    failures += gate_failures(report)

    gates = {g["name"] for g in report.get("gates", [])}
    for name in baseline.get("required", []):
        if name not in gates and not report.get(name):
            failures.append(f"{name}: required by the baseline, missing "
                            "from the report")

    ops = baseline.get("ops_per_section")
    if ops is not None and report.get("ops_per_section") != ops:
        failures.append(f"ops_per_section: the report ran "
                        f"{report.get('ops_per_section')}, the baseline "
                        f"was set at {ops}")

    sections = {s["name"]: s for s in report.get("sections", [])}
    for name, base in sorted(baseline.get("sections", {}).items()):
        got = sections.get(name)
        if got is None:
            failures.append(f"{name}: baseline section missing from the "
                            "report")
            continue
        ops_floor = OPS_FLOOR * base["ops_per_sec"]
        p99_ceiling = P99_CEILING * base["p99_ns"]
        ops_ok = got["ops_per_sec"] >= ops_floor
        p99_ok = got["p99_ns"] <= p99_ceiling
        print(f"{name}: {got['ops_per_sec']:.3g} ops/s "
              f"(floor {ops_floor:.3g}), p99 {got['p99_ns'] / 1e6:.2f}ms "
              f"(ceiling {p99_ceiling / 1e6:.2f}ms) "
              f"[{'ok' if ops_ok and p99_ok else 'REGRESSED'}]")
        if not ops_ok:
            failures.append(f"{name}: throughput below the floor")
        if not p99_ok:
            failures.append(f"{name}: p99 above the ceiling")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        with open(argv[1]) as f:
            report = json.load(f)
        with open(argv[2]) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: {e}")
        return 2
    failures = check(report, baseline)
    bench = report.get("bench", argv[1])
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        print(f"FAIL: {bench}: {len(failures)} failures")
        return 1
    print(f"OK: {bench}: {len(report.get('gates', []))} gates, "
          f"{len(baseline.get('sections', {}))} sections within the "
          "regression envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
