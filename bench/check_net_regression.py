#!/usr/bin/env python3
"""CI perf gate for the TCP front end.

Reads a net_throughput --json report and compares every section against
the committed baseline (bench/net_baseline.json): a section fails if its
throughput drops below 80% of the baseline ops/sec or its client-observed
p99 latency rises above 2x the baseline p99. The baseline values are
deliberately conservative (several-fold below/above what the bench
measures on a quiet machine) so shared-runner noise cannot flap the gate
while genuine order-of-magnitude regressions still trip it.

Also fails if the report's own "ok" flag is false (the bench's per-shard
bit-identity gates across the timed worker count and {1,8} service
workers, end to end over the socket path), if a baselined section is
missing from the report, or if the offered-load sweep produced no points.

Usage: check_net_regression.py BENCH_net.json net_baseline.json
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        report = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    if report.get("ok") is not True:
        print("FAIL: the bench reported ok=false (socket-path aggregate "
              "bit-identity gates tripped, or requests were lost)")
        return 1
    if not report.get("rate_sweep"):
        print("FAIL: the report has no offered-load sweep points")
        return 1

    sections = {s["name"]: s for s in report.get("sections", [])}
    failed = []
    for name, base in sorted(baseline["sections"].items()):
        got = sections.get(name)
        if got is None:
            print(f"{name}: MISSING from the report")
            failed.append(name)
            continue
        ops = got["ops_per_sec"]
        p99 = got["p99_ns"]
        ops_floor = 0.8 * base["ops_per_sec"]
        p99_ceiling = 2.0 * base["p99_ns"]
        ops_ok = ops >= ops_floor
        p99_ok = p99 <= p99_ceiling
        verdict = "ok" if (ops_ok and p99_ok) else "REGRESSED"
        print(f"{name}: {ops:.3g} ops/s (floor {ops_floor:.3g}), "
              f"p99 {p99 / 1e6:.2f}ms (ceiling {p99_ceiling / 1e6:.2f}ms) "
              f"[{verdict}]")
        if not ops_ok:
            failed.append(f"{name} throughput")
        if not p99_ok:
            failed.append(f"{name} p99")

    if failed:
        print(f"FAIL: {len(failed)} TCP front-end regressions: "
              + ", ".join(failed))
        return 1
    print(f"OK: {len(baseline['sections'])} sections within the "
          "regression envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main())
