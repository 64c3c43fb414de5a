// Serving-tier throughput under Byzantine read rules and injected server
// faults, and the masking-quorum fabrication epsilon measured against its
// closed form (Lemma 5.7).
//
// Three experiments share the binary:
//
//   * an honest-path overhead sweep over serve::KvService — 4 static
//     shards of R(64, 16) quorums serve the same zipf request stream
//     under plain, dissemination (MAC-verified), and masking
//     (k = ceil(q^2 / 2n) voucher) read rules with zero faulty servers —
//     reporting ops/sec and tail latency per rule plus the overhead
//     ratio vs plain, so CI can see what Byzantine tolerance costs an
//     honest deployment. Every section is also a functional gate: the
//     per-shard aggregates re-run with 1 and 8 workers and must agree bit
//     for bit, and the Byzantine counters
//     (rejected_forgeries, masked_reads) must be exactly zero under
//     plain and dissemination (masking rejects sub-k groups of honest
//     stale replies too — by design — so its counters are reported, not
//     zero-gated).
//
//   * a live fault-injection run — the masking section re-runs with b =
//     4 servers flipped to kCollude through KvService::submit_fault
//     mid-stream (and healed with kCorrect later), so the fault flips
//     ride the shard rings at definite FIFO positions exactly like churn
//     events. The run must stay bit-identical across worker counts, apply
//     every flip, and show the masking rule working:
//     rejected_forgeries > 0 while the colluders are live.
//
//   * a fabrication-epsilon sweep over replica::InstantCluster — for
//     each b in {0, 1, b_max/2, b_max}, shards of write/read pairs
//     against a cluster whose first b servers collude on an
//     astronomically fresh forged record measure (a) the fabricated-
//     acceptance rate, gated by core::fabrication_epsilon_exact — the
//     hypergeometric tail P(|Q cap B| >= k) of Lemma 5.7 — plus a
//     multiplicative Chernoff margin sized for failure probability <=
//     1e-9, and (b) the total failed-read rate, gated the same way by
//     core::masking_epsilon_exact (Definition 5.1). Acceptance of the
//     forgery requires >= k colluders in the read quorum (every honest
//     group with >= k vouchers has a lower timestamp only when the fresh
//     write group falls under k), so both measured rates are contained
//     in their predicted events — the gates re-check the paper's bound
//     on the deployed stack at bench scale. b = 1 < k is a structural
//     zero: the bench asserts zero fabrications outright. The batched
//     Monte Carlo estimator (core::estimate_fabrication_epsilon) runs
//     alongside and must bracket the closed form in its Wilson interval.
//     A fixed-schedule replay at the timed thread count, 1 and 8 threads
//     gates bit-identity of the measurement itself.
//
// Every check is a named gate in the report: replay.<section>,
// honest.<section>, rejects.<section>, and per population b
// mc_bracket.b<b>, fabricated.b<b>, failed.b<b>, then replay.epsilon.
//
// Flags: --threads=N (shard-serving workers for the timed runs, 0 =
// hardware), --samples=N (requests per section and pairs per epsilon
// shard; default 30000), --json=PATH (machine-readable report — CI
// archives it as BENCH_byzantine.json and gates it with
// bench/check_regression.py against bench/byzantine_baseline.json).
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/epsilon.h"
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "math/rng.h"

namespace pqs {
namespace {

using replica::ReadMode;

constexpr std::uint32_t kUniverse = 64;  // R(64, 16) per shard
constexpr std::uint32_t kQuorum = 16;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kColluders = 4;  // b_max for the live section

// The masking voucher threshold k = ceil(q^2 / 2n) (Section 5): the
// smallest k with 2 q - n - b >= k still feasible at these parameters.
std::uint32_t masking_k() {
  return static_cast<std::uint32_t>(core::masking_threshold(kUniverse,
                                                            kQuorum));
}

// ---- read-rule throughput + live fault injection ---------------------------

// When inject_at > 0, servers {0..colluders-1} on every shard flip to
// kCollude after request inject_at and heal (kCorrect) after heal_at.
struct FaultScript {
  std::uint32_t colluders = 0;
  std::uint64_t inject_at = 0;
  std::uint64_t heal_at = 0;

  std::uint64_t expected_events() const {
    return inject_at == 0 ? 0
                          : static_cast<std::uint64_t>(kShards) * colluders *
                                (heal_at > 0 ? 2 : 1);
  }
};

struct SectionSpec {
  std::string name;
  ReadMode mode = ReadMode::kPlain;
  FaultScript faults;
};

std::vector<SectionSpec> make_sections(std::uint64_t ops) {
  std::vector<SectionSpec> sections = {
      {"plain", ReadMode::kPlain, {}},
      {"dissemination", ReadMode::kDissemination, {}},
      {"masking", ReadMode::kMasking, {}},
  };
  // The adversarial run: colluders live for the middle half of the
  // stream, so the aggregates cover honest, adversarial, and healed
  // regimes in one deterministic subsequence.
  sections.push_back({"masking_live_b4",
                      ReadMode::kMasking,
                      {kColluders, ops / 4, (3 * ops) / 4}});
  return sections;
}

// The producer's hook: the script's flips ride the shard rings at fixed
// stream positions, exactly like churn events.
void inject_faults(const FaultScript& script, serve::KvService& service,
                   std::uint64_t i) {
  const auto flip_all = [&](replica::FaultMode mode) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      for (std::uint32_t slot = 0; slot < script.colluders; ++slot) {
        service.submit_fault(s, mode, slot);
      }
    }
  };
  if (script.inject_at != 0 && i + 1 == script.inject_at) {
    flip_all(replica::FaultMode::kCollude);
  }
  if (script.heal_at != 0 && i + 1 == script.heal_at) {
    flip_all(replica::FaultMode::kCorrect);
  }
}

// ---- fabrication-epsilon sweep --------------------------------------------

// One shard of the epsilon measurement: write/read pairs under masking
// against a cluster whose first b servers collude on the shared forged
// record. Fabricated iff the selection is the forged value; failed (stale)
// iff the selection is anything but the value just written.
serve::PairCounts byzantine_shard(std::uint32_t b, std::uint64_t pairs,
                                  std::uint64_t seed) {
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);
  cfg.mode = ReadMode::kMasking;
  cfg.read_threshold = masking_k();
  cfg.seed = seed;
  serve::Shard shard(std::make_unique<replica::InstantCluster>(
      cfg,
      replica::FaultPlan::prefix(kUniverse, b, replica::FaultMode::kCollude)));
  return serve::write_read_pairs(shard, pairs);
}

auto shard_at(std::uint32_t b) {
  return [b](std::uint64_t pairs, std::uint64_t seed) {
    return byzantine_shard(b, pairs, seed);
  };
}

void byzantine_sweep(bench::Report& report, std::uint64_t pairs_per_shard,
                     unsigned threads) {
  const std::uint32_t k = masking_k();
  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);
  bench::Json& out = report.json.array("byzantine_sweep");
  for (const std::uint32_t b : {0u, 1u, kColluders / 2, kColluders}) {
    const std::string at = ".b" + std::to_string(b);
    const double fab_exact =
        core::fabrication_epsilon_exact(kUniverse, kQuorum, b, k);
    const double fail_exact =
        core::masking_epsilon_exact(kUniverse, kQuorum, b, k);

    // Monte Carlo cross-check of the closed form on single quorum draws:
    // the Wilson interval at z = 6 must bracket the hypergeometric tail.
    math::Rng est_rng(0xfab0 + b);
    const math::Proportion est = core::estimate_fabrication_epsilon(
        *sys, b, k, /*samples=*/200000, est_rng);
    report.gate("mc_bracket" + at, est.wilson(6.0).contains(fab_exact),
                "the Monte Carlo estimate's Wilson interval misses the "
                "closed form");

    const serve::PairCounts total =
        bench::epsilon_total(pairs_per_shard, threads, shard_at(b));
    const double fab_measured = static_cast<double>(total.fabricated) /
                                static_cast<double>(total.pairs);
    const double fail_measured =
        static_cast<double>(total.stale) / static_cast<double>(total.pairs);
    // Acceptance of the forgery needs >= k colluders in the read quorum,
    // so both rates sit inside their predicted events (b < k fabricates
    // nothing: the structural zero).
    const double fab_bound = bench::chernoff_gate(
        report, "fabricated" + at, total.fabricated, total.pairs, fab_exact);
    const double fail_bound = bench::chernoff_gate(
        report, "failed" + at, total.stale, total.pairs, fail_exact);
    std::printf(
        "[epsilon] b=%u pairs=%" PRIu64
        " fabricated=%.6f (exact %.6f, mc %.6f, bound %.6f) "
        "failed=%.6f (exact %.6f, bound %.6f)\n",
        b, total.pairs, fab_measured, fab_exact, est.estimate(), fab_bound,
        fail_measured, fail_exact, fail_bound);
    out.object()
        .integer("b", b)
        .integer("pairs", total.pairs)
        .integer("fabricated", total.fabricated)
        .integer("failures", total.stale)
        .number("fabricated_rate", fab_measured)
        .number("fabrication_epsilon", fab_exact)
        .number("fabrication_estimate", est.estimate())
        .number("fabrication_bound", fab_bound)
        .number("failure_rate", fail_measured)
        .number("masking_epsilon", fail_exact)
        .number("failure_bound", fail_bound);
  }
  // The replay at the most adversarial point.
  bench::epsilon_replay_gate(report, pairs_per_shard, threads,
                             shard_at(kColluders));
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(30000);
  const unsigned workers = opts.workers();

  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);

  std::printf(
      "byzantine_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, R(%u, %u) quorums, masking k=%u, %u shards, workers=%u, "
      "simd=%s\n",
      ops, kKeys, kUniverse, kQuorum, masking_k(), kShards, workers,
      simd::active().name);

  bench::Report report("byzantine_throughput");
  report.json.integer("universe", kUniverse)
      .integer("quorum", kQuorum)
      .integer("masking_k", masking_k())
      .integer("ops_per_section", ops);
  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;
  double plain_ops_per_sec = 0.0;
  std::uint64_t index = 0;
  for (const SectionSpec& section : make_sections(ops)) {
    serve::KvService::Config cfg;
    cfg.shards = kShards;
    cfg.quorums = sys;
    cfg.seed = 0xb52u + 131 * index++;
    cfg.read_mode = section.mode;
    cfg.read_threshold = section.mode == ReadMode::kMasking ? masking_k() : 1;
    const FaultScript& script = section.faults;
    const bench::RunOutcome timed =
        bench::replay_gate(report, section.name, workers, [&](unsigned w) {
          cfg.workers = w;
          bench::RunOutcome out = bench::drive_service(
              cfg, spec, ops,
              [&script](serve::KvService& service, std::uint64_t i) {
                inject_faults(script, service, i);
              });
          out.drained_all = out.drained_all &&
                            out.fold.fault_events == script.expected_events();
          return out;
        });
    const bool adversarial = script.inject_at != 0;
    // Plain and dissemination reject nothing on an honest fleet (every
    // MAC verifies). Masking legitimately rejects even honest replies:
    // servers outside recent write quorums hold older timestamps, and a
    // sub-k group of them is indistinguishable from a forgery — that
    // conservatism is the rule, so it is reported, not gated.
    if (!adversarial && section.mode != ReadMode::kMasking) {
      report.gate("honest." + section.name,
                  timed.fold.rejected_forgeries == 0 &&
                      timed.fold.masked_reads == 0,
                  "counted rejections on an honest fleet");
    }
    if (adversarial) {
      report.gate("rejects." + section.name,
                  timed.fold.rejected_forgeries > 0,
                  "the masking rule rejected nothing while " +
                      std::to_string(script.colluders) +
                      " colluders were live");
    }
    const double ops_per_sec = timed.ops_per_sec();
    if (section.mode == ReadMode::kPlain) plain_ops_per_sec = ops_per_sec;
    std::printf(
        "[serve] section=%-16s workers=%u ops/sec=%.3g p50=%.1fus "
        "p99=%.1fus vs_plain=%.2fx rejected=%" PRIu64 " masked=%" PRIu64
        " bot=%" PRIu64 " faults=%" PRIu64 "\n",
        section.name.c_str(), workers, ops_per_sec,
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        plain_ops_per_sec > 0.0 ? ops_per_sec / plain_ops_per_sec : 1.0,
        timed.fold.rejected_forgeries, timed.fold.masked_reads,
        timed.fold.bot_reads, timed.fold.fault_events);
    report.section(section.name, workers, timed)
        .integer("shards", kShards)
        .integer("rejected_forgeries", timed.fold.rejected_forgeries)
        .integer("masked_reads", timed.fold.masked_reads)
        .integer("bot_reads", timed.fold.bot_reads)
        .integer("fault_events", timed.fold.fault_events);
  }

  byzantine_sweep(report, ops, workers);

  return report.finish(opts,
                       "aggregates bit-identical across worker counts; "
                       "fabrication and failure rates within their "
                       "masking-epsilon bounds");
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
