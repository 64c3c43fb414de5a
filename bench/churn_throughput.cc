// Serving-tier throughput under membership churn, and the timed-quorum
// epsilon measured against its estimator.
//
// Two experiments share the binary:
//
//   * a churn-rate sweep over serve::KvService — 4 dynamic-membership
//     shards of R(64, 16) probabilistic quorums, a single producer
//     interleaving in-band kReplace events with the request stream at
//     {0, 10, 100} replacements per 1000 requests — reporting ops/sec and
//     p50/p99 tail latency so CI can see what reconfiguration costs the
//     hot path. Every section is also a functional gate: the per-shard
//     aggregates (churn_events and final membership epochs included) are
//     a pure function of the request stream, so the section re-runs with
//     1 and 8 shard-serving workers and the bench exits nonzero unless all
//     three runs agree shard by shard.
//
//   * an epsilon-vs-churn-rate sweep over replica::InstantCluster — for
//     each Poisson rate lambda, shards of write / churn(k ~ Poisson) /
//     read pairs measure the deployed stale-read rate, reported next to
//     core::estimate_timed_epsilon(n, q, lambda, 1) and the Gramoli-
//     Raynal lifetime at twice the churn-free epsilon. Stale reads are
//     contained in quorum misses (a surviving common server answers with
//     the latest record), so the measured count is gated by the predicted
//     mean plus a multiplicative Chernoff margin sized for failure
//     probability <= 1e-9 under the null — the conformance test's bound,
//     re-checked on every CI run at bench scale. A fixed-schedule replay at
//     the timed thread count, 1 and 8 threads gates bit-identity of the
//     measurement itself.
//
// Every check is a named gate in the report: replay.<section> for the
// worker-count replays, epsilon.lambda<rate> for the stale-rate bounds,
// replay.epsilon for the measurement's own replay.
//
// Flags: --threads=N (shard-serving workers for the timed runs, 0 =
// hardware), --samples=N (requests per section and pairs per epsilon
// shard; default 30000), --json=PATH (machine-readable report — CI
// archives it as BENCH_churn.json and gates it with
// bench/check_regression.py against bench/churn_baseline.json).
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "core/timed_epsilon.h"

namespace pqs {
namespace {

constexpr std::uint32_t kUniverse = 64;  // R(64, 16) per shard
constexpr std::uint32_t kQuorum = 16;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;

// ---- churn-rate throughput sweep ------------------------------------------

struct SectionSpec {
  std::string name;
  std::uint32_t churn_per_1000 = 0;  // kReplace events per 1000 requests
};

std::vector<SectionSpec> make_sections() {
  return {{"churn0", 0}, {"churn10", 10}, {"churn100", 100}};
}

// ---- epsilon-vs-churn-rate sweep ------------------------------------------

// One shard of the epsilon measurement, the conformance suite's protocol:
// write, k ~ Poisson(lambda) in-place replacements (exponential
// inter-arrivals on the dedicated churn stream; lambda = 0 means none),
// read — stale iff the read returns anything but the value just written.
serve::PairCounts epsilon_shard(double lambda, std::uint64_t pairs,
                                std::uint64_t seed) {
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);
  cfg.seed = seed;
  cfg.churn_seed = seed ^ 0xc4a84e11ULL;
  cfg.dynamic_membership = true;
  serve::Shard shard(std::make_unique<replica::InstantCluster>(cfg));
  return serve::write_read_pairs(
      shard, pairs, [lambda](replica::InstantCluster& c) {
        if (lambda == 0.0) return;
        std::uint32_t k = 0;
        double t = c.churn_rng().exponential(1.0 / lambda);
        while (t < 1.0) {
          ++k;
          t += c.churn_rng().exponential(1.0 / lambda);
        }
        c.run_churn(k);
      });
}

void epsilon_sweep(bench::Report& report, std::uint64_t pairs_per_shard,
                   unsigned threads) {
  const double eps0 = core::nonintersection_exact(kUniverse, kQuorum);
  bench::Json& out = report.json.array("epsilon_sweep");
  for (const double lambda : {0.0, 1.0, 4.0, 12.0}) {
    const double predicted =
        lambda == 0.0 ? eps0
                      : core::estimate_timed_epsilon(kUniverse, kQuorum,
                                                     lambda, 1.0);
    // The staleness budget at twice the churn-free epsilon.
    const double lifetime =
        lambda == 0.0 ? 0.0
                      : core::timed_quorum_lifetime(kUniverse, kQuorum,
                                                    lambda, 2.0 * eps0);
    const serve::PairCounts total = bench::epsilon_total(
        pairs_per_shard, threads,
        [lambda](std::uint64_t pairs, std::uint64_t seed) {
          return epsilon_shard(lambda, pairs, seed);
        });
    const double measured =
        static_cast<double>(total.stale) / static_cast<double>(total.pairs);
    // Stale reads are contained in quorum misses, so the count is gated
    // by the predicted mean plus the Chernoff margin.
    char name[32];
    std::snprintf(name, sizeof name, "epsilon.lambda%g", lambda);
    const double bound = bench::chernoff_gate(report, name, total.stale,
                                              total.pairs, predicted);
    std::printf(
        "[epsilon] lambda=%-4.3g pairs=%" PRIu64
        " measured=%.6f predicted=%.6f bound=%.6f lifetime@2eps0=%.3f\n",
        lambda, total.pairs, measured, predicted, bound, lifetime);
    out.object()
        .number("lambda", lambda)
        .integer("pairs", total.pairs)
        .integer("stale", total.stale)
        .number("measured_stale_rate", measured)
        .number("predicted_epsilon", predicted)
        .number("chernoff_bound", bound)
        .number("lifetime_at_2x_eps0", lifetime);
  }
  // The replay at one representative rate.
  bench::epsilon_replay_gate(
      report, pairs_per_shard, threads,
      [](std::uint64_t pairs, std::uint64_t seed) {
        return epsilon_shard(4.0, pairs, seed);
      });
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(30000);
  const unsigned workers = opts.workers();

  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);

  std::printf(
      "churn_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, R(%u, %u) quorums, %u dynamic shards, workers=%u, simd=%s\n",
      ops, kKeys, kUniverse, kQuorum, kShards, workers, simd::active().name);

  bench::Report report("churn_throughput");
  report.json.integer("universe", kUniverse)
      .integer("quorum", kQuorum)
      .integer("ops_per_section", ops);
  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;
  std::uint64_t index = 0;
  for (const SectionSpec& section : make_sections()) {
    serve::KvService::Config cfg;
    cfg.shards = kShards;
    cfg.quorums = sys;
    cfg.seed = 0xc4u + 131 * index++;
    cfg.dynamic_membership = true;
    // An in-band kReplace on a rotating shard every `interval` requests,
    // so each shard's subsequence of requests and churn events is fixed.
    const std::uint64_t interval =
        section.churn_per_1000 == 0 ? 0 : 1000 / section.churn_per_1000;
    const std::uint64_t churned = interval == 0 ? 0 : ops / interval;
    const auto churn = [interval](serve::KvService& service,
                                  std::uint64_t i) {
      if (interval != 0 && i % interval == interval - 1) {
        service.submit_churn(
            static_cast<std::uint32_t>((i / interval) % kShards),
            serve::ChurnKind::kReplace);
      }
    };
    const bench::RunOutcome timed =
        bench::replay_gate(report, section.name, workers, [&](unsigned w) {
          cfg.workers = w;
          bench::RunOutcome out = bench::drive_service(cfg, spec, ops, churn);
          out.drained_all =
              out.drained_all && out.fold.churn_events == churned;
          return out;
        });
    std::printf(
        "[churn] section=%-8s workers=%u ops/sec=%.3g p50=%.1fus "
        "p99=%.1fus churn=%" PRIu64 " epochs=%" PRIu64 " stale=%" PRIu64
        "\n",
        section.name.c_str(), workers, timed.ops_per_sec(),
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        timed.fold.churn_events, timed.fold.membership_epoch,
        timed.fold.stale_reads);
    report.section(section.name, workers, timed)
        .integer("churn_per_1000", section.churn_per_1000)
        .integer("shards", kShards)
        .integer("churn_events", timed.fold.churn_events)
        .integer("final_epochs", timed.fold.membership_epoch);
  }

  epsilon_sweep(report, ops, workers);

  return report.finish(opts,
                       "aggregates bit-identical across worker counts; "
                       "stale rates within timed-epsilon bounds");
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
