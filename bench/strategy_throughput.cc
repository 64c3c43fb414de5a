// Workload-aware strategies: optimizer quality, serving-tier throughput,
// and measured-vs-predicted epsilon (ROADMAP item 3 end to end).
//
// Three experiments share the binary:
//
//   * an optimizer-quality sweep over workload mixes — for each mix (read
//     fraction, per-server capacity profile) quorum::optimize_strategy
//     reweights candidate quorums of R(36, 12) and its closed-form max
//     capacity-weighted load is compared against the best symmetric fixed
//     construction (which loads every server q/n, so its weighted max is
//     (q/n) / min capacity). The skewed mixes are a hard gate: the bench
//     exits nonzero unless the optimized strategy is *strictly* below the
//     fixed construction on every skewed mix.
//
//   * a serving-tier throughput comparison over serve::KvService — the
//     fixed construction vs the optimized strategy on the same open-loop
//     stream, reporting ops/sec and p50/p99 latency. Every section is
//     also a functional gate: per-shard aggregates (strategy draw counts
//     and checksums included) re-run with 1 and 8 workers and must agree
//     shard by shard.
//
//   * a measured-vs-predicted epsilon check over replica::InstantCluster —
//     sharded write/read pairs through the optimized strategy measure the
//     deployed stale-read rate, gated by the strategy's predicted epsilon
//     plus a multiplicative Chernoff margin sized for failure probability
//     <= 1e-9 under the null (the conformance test's bound at bench
//     scale). A fixed-schedule replay at the timed thread count, 1 and 8
//     threads gates bit-identity of the measurement itself.
//
// Every check is a named gate in the report: optimizer_win.<mix> (strict)
// and epsilon_ceiling.<mix>, replay.<section>, epsilon.deployed and
// replay.epsilon.
//
// Flags: --threads=N (shard-serving workers, 0 = hardware), --samples=N
// (requests per section and pairs per epsilon shard; default 30000),
// --json=PATH (machine-readable report — CI archives it as
// BENCH_strategy.json and gates it with bench/check_regression.py against
// bench/strategy_baseline.json).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "quorum/strategy.h"

namespace pqs {
namespace {

constexpr std::uint32_t kUniverse = 36;  // R(36, 12)
constexpr std::uint32_t kQuorum = 12;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;

// ---- optimizer-quality sweep ----------------------------------------------

struct MixSpec {
  std::string name;
  double read_fraction = 0.5;
  // (count, capacity) prefix overrides; remaining servers stay at 1.0.
  std::uint32_t slow_servers = 0;
  double slow_capacity = 1.0;
  bool gate_strict_win = false;  // skewed mixes must beat the fixed max
};

std::vector<MixSpec> make_mixes() {
  return {
      {"uniform", 0.5, 0, 1.0, false},
      {"skew_third_half", 0.75, kUniverse / 3, 0.5, true},
      {"skew_heavy_reads", 0.9, kUniverse / 6, 0.4, true},
  };
}

struct MixOutcome {
  double fixed_max_load = 0.0;
  double optimized_max_load = 0.0;
  double predicted_epsilon = 0.0;
  double epsilon_ceiling = 0.0;
  std::shared_ptr<const quorum::Strategy> strategy;
};

MixOutcome optimize_mix(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                        const MixSpec& mix) {
  MixOutcome out;
  quorum::WorkloadSpec workload;
  workload.read_fraction = mix.read_fraction;
  workload.capacities.assign(kUniverse, 1.0);
  for (std::uint32_t u = 0; u < mix.slow_servers; ++u) {
    workload.capacities[u] = mix.slow_capacity;
  }
  quorum::StrategyOptions options;
  // Epsilon ceiling from the existing exact closed form: the optimized
  // strategy may not be less consistent than the fixed construction's
  // pairwise nonintersection probability.
  out.epsilon_ceiling = core::nonintersection_exact(kUniverse, kQuorum);
  options.epsilon_ceiling = out.epsilon_ceiling;
  out.strategy = quorum::optimize_strategy(sys, workload, options);
  out.optimized_max_load = out.strategy->max_load();
  out.predicted_epsilon = out.strategy->predicted_epsilon(0.0);
  // Any symmetric fixed construction of quorum size q loads every server
  // q/n, so its capacity-weighted max load is (q/n) / min capacity.
  const double min_cap = mix.slow_servers > 0 ? mix.slow_capacity : 1.0;
  out.fixed_max_load =
      (static_cast<double>(kQuorum) / kUniverse) / min_cap;
  return out;
}

// ---- measured-vs-predicted epsilon ----------------------------------------

// Sharded write/read pairs through the deployed strategy; the per-shard
// strategy draw checksums join the replay's comparison.
void epsilon_check(bench::Report& report,
                   const std::shared_ptr<const quorum::Strategy>& s,
                   std::uint64_t pairs_per_shard, unsigned threads) {
  const auto shard = [&s](std::uint64_t pairs, std::uint64_t seed) {
    replica::InstantCluster::Config cfg;
    cfg.strategy = s;
    cfg.seed = seed;
    serve::Shard shard(std::make_unique<replica::InstantCluster>(cfg));
    return serve::write_read_pairs(shard, pairs);
  };
  const double predicted = s->predicted_epsilon(0.0);
  const serve::PairCounts total =
      bench::epsilon_total(pairs_per_shard, threads, shard);
  const double measured =
      static_cast<double>(total.stale) / static_cast<double>(total.pairs);
  // Stale reads are dominated by Binomial(N, predicted); when the
  // optimizer lands on an (almost) always-intersecting support the floor
  // keeps the margin meaningful — still a valid dominating rate.
  const double rate =
      std::max(predicted, 64.0 / static_cast<double>(total.pairs));
  const double bound = bench::chernoff_gate(report, "epsilon.deployed",
                                            total.stale, total.pairs, rate);
  std::printf(
      "[epsilon] pairs=%" PRIu64 " measured=%.6f predicted=%.6f bound=%.6f\n",
      total.pairs, measured, predicted, bound);
  report.json.object("epsilon")
      .integer("pairs", total.pairs)
      .integer("stale", total.stale)
      .number("measured_stale_rate", measured)
      .number("predicted_epsilon", predicted)
      .number("chernoff_bound", bound);
  bench::epsilon_replay_gate(report, pairs_per_shard, threads, shard);
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(30000);
  const unsigned workers = opts.workers();

  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);

  std::printf(
      "strategy_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, R(%u, %u) quorums, %u shards, workers=%u, simd=%s\n",
      ops, kKeys, kUniverse, kQuorum, kShards, workers, simd::active().name);

  bench::Report report("strategy_throughput");
  report.json.integer("universe", kUniverse)
      .integer("quorum", kQuorum)
      .integer("ops_per_section", ops);

  // Experiment 1: the optimizer against the fixed construction. The
  // serving and epsilon experiments deploy the first gated mix.
  std::shared_ptr<const quorum::Strategy> deployed;
  bench::Json& mixes = report.json.array("mixes");
  for (const MixSpec& mix : make_mixes()) {
    const MixOutcome out = optimize_mix(sys, mix);
    if (mix.gate_strict_win) {
      report.gate_bound("optimizer_win." + mix.name, out.optimized_max_load,
                        out.fixed_max_load, /*strict=*/true);
      if (deployed == nullptr) deployed = out.strategy;
    }
    report.gate_bound("epsilon_ceiling." + mix.name, out.predicted_epsilon,
                      out.epsilon_ceiling + 1e-9);
    std::printf(
        "[mix] name=%-16s fr=%.2f fixed_max=%.4f optimized_max=%.4f "
        "eps=%.3e ceiling=%.3e\n",
        mix.name.c_str(), mix.read_fraction, out.fixed_max_load,
        out.optimized_max_load, out.predicted_epsilon, out.epsilon_ceiling);
    mixes.object()
        .text("name", mix.name)
        .number("read_fraction", mix.read_fraction)
        .flag("gated", mix.gate_strict_win)
        .number("fixed_max_load", out.fixed_max_load)
        .number("optimized_max_load", out.optimized_max_load)
        .number("predicted_epsilon", out.predicted_epsilon)
        .number("epsilon_ceiling", out.epsilon_ceiling);
  }

  // Experiment 2: serving-tier throughput, fixed vs optimized, on the
  // same open-loop stream: the fixed construction (no strategy) or the
  // optimized strategy drawing every quorum.
  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.75;
  const std::vector<std::pair<std::string,
                              std::shared_ptr<const quorum::Strategy>>>
      section_specs = {{"fixed", nullptr}, {"optimized", deployed}};
  for (std::size_t i = 0; i < section_specs.size(); ++i) {
    const auto& [name, strategy] = section_specs[i];
    serve::KvService::Config cfg;
    cfg.shards = kShards;
    if (strategy != nullptr) {
      cfg.strategy = strategy;
    } else {
      cfg.quorums = sys;
    }
    cfg.seed = 0x57aULL + 131 * i;
    const std::uint64_t expected_draws = strategy != nullptr ? ops : 0;
    const bench::RunOutcome timed =
        bench::replay_gate(report, name, workers, [&](unsigned w) {
          cfg.workers = w;
          bench::RunOutcome out = bench::drive_service(cfg, spec, ops);
          out.drained_all = out.drained_all &&
                            out.fold.strategy_draws == expected_draws;
          return out;
        });
    std::printf(
        "[serve] section=%-10s workers=%u ops/sec=%.3g p50=%.1fus "
        "p99=%.1fus draws=%" PRIu64 " stale=%" PRIu64 "\n",
        name.c_str(), workers, timed.ops_per_sec(),
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        timed.fold.strategy_draws, timed.fold.stale_reads);
    report.section(name, workers, timed)
        .integer("shards", kShards)
        .integer("strategy_draws", timed.fold.strategy_draws);
  }

  // Experiment 3: measured vs predicted epsilon for the deployed strategy.
  epsilon_check(report, deployed, ops, workers);

  return report.finish(opts,
                       "optimized strategy beats the fixed construction on "
                       "every skewed mix; aggregates bit-identical; stale "
                       "rate within the predicted-epsilon bound");
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
