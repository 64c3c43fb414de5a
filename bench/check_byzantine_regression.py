#!/usr/bin/env python3
"""CI perf gate for the Byzantine-tolerant serving tier.

Reads a byzantine_throughput --json report and compares every read-rule
section against the committed baseline (bench/byzantine_baseline.json):
a section fails if its throughput drops below 80% of the baseline
ops/sec or its p99 latency rises above 2x the baseline p99. The baseline
values are deliberately conservative (several-fold below/above what the
bench measures on a quiet machine) so shared-runner noise cannot flap
the gate while genuine order-of-magnitude regressions still trip it.

Also fails if the report's own "ok" flag is false (the bench's
per-shard bit-identity gates across the timed run and its replays at
{1,8} workers under live fault injection, plus the
Lemma 5.7 / Definition 5.1 Chernoff bounds on measured fabrication and
failure rates), if a baselined section is missing, or if the byzantine
sweep produced no points or any point whose measured rate exceeds its
bound (fabrication at b < k must be exactly zero — the structural-zero
case of the hypergeometric tail).

Usage: check_byzantine_regression.py BENCH_byzantine.json byzantine_baseline.json
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
        print("FAIL: the bench reported ok=false (adversarial aggregate "
              "bit-identity gates tripped, fault flips were lost, or a "
              "fabrication/failure rate exceeded its masking-epsilon "
              "bound)")
        return 1
    sweep = report.get("byzantine_sweep") or []
    if not sweep:
        print("FAIL: the report has no byzantine sweep points")
        return 1
    for p in sweep:
        if p["fabrication_epsilon"] == 0:
            if p["fabricated"] != 0:
                print(f"FAIL: b={p['b']} fabricated {p['fabricated']} "
                      "reads where the closed form is a structural zero")
                return 1
        elif p["fabricated_rate"] > p["fabrication_bound"]:
            print(f"FAIL: b={p['b']} fabricated-acceptance rate "
                  f"{p['fabricated_rate']:.6g} exceeds the Lemma 5.7 "
                  f"Chernoff bound {p['fabrication_bound']:.6g}")
            return 1
        if p["failure_bound"] > 0 and p["failure_rate"] > p["failure_bound"]:
            print(f"FAIL: b={p['b']} failed-read rate "
                  f"{p['failure_rate']:.6g} exceeds the Definition 5.1 "
                  f"Chernoff bound {p['failure_bound']:.6g}")
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
        print(f"FAIL: {len(failed)} Byzantine serving-tier regressions: "
              + ", ".join(failed))
        return 1
    print(f"OK: {len(baseline['sections'])} sections within the "
          f"regression envelope; {len(sweep)} sweep points within their "
          "masking-epsilon bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
