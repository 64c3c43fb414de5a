// Statistical conformance of a strategy deployment: the stale-read rate of
// the InstantCluster protocol running a quorum::Strategy must respect the
// strategy's own predicted epsilon.
//
// The staleness event is contained in "the read quorum and the write
// quorum share no server": with an honest, fully-live fleet any common
// server holds the latest record (single writer, strictly increasing
// timestamps) and select_plain returns the highest timestamp. Writes draw
// the strategy's write distribution and reads its read distribution, both
// from one stream, so over N seeded write/read pairs the stale count is
// stochastically dominated by Binomial(N, predicted_epsilon(0)) — and a
// multiplicative Chernoff margin (math/chernoff.h) turns that into a
// deterministic-seed assertion with failure probability <= 1e-9 under the
// null, exactly like tests/test_staleness_epsilon.cc does for bare
// constructions.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "math/chernoff.h"
#include "math/rng.h"
#include "quorum/strategy.h"
#include "replica/instant_cluster.h"
#include "serve/shard.h"

namespace pqs::replica {
namespace {

using quorum::Quorum;
using quorum::Strategy;

// Draws `want` distinct quorums of the base system on a dedicated stream.
std::vector<Quorum> draw_candidates(const quorum::QuorumSystem& base,
                                    std::uint32_t want, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<Quorum> support;
  while (support.size() < want) {
    Quorum q = base.sample(rng);
    std::sort(q.begin(), q.end());
    if (std::find(support.begin(), support.end(), q) == support.end()) {
      support.push_back(std::move(q));
    }
  }
  return support;
}

// The uniform strategy over `candidates` read and write quorums each of
// R(n, q) — its predicted epsilon is the empirical disjoint-pair fraction
// of the sampled support, reported exactly by the class itself.
std::shared_ptr<const Strategy> uniform_strategy(std::uint32_t n,
                                                 std::uint32_t q,
                                                 std::uint32_t candidates,
                                                 std::uint64_t seed) {
  auto base = std::make_shared<core::RandomSubsetSystem>(n, q);
  std::vector<Quorum> reads = draw_candidates(*base, candidates, seed);
  std::vector<Quorum> writes = draw_candidates(*base, candidates, seed + 1);
  const std::vector<double> probs(candidates, 1.0 / candidates);
  return std::make_shared<Strategy>(std::move(base), std::move(reads), probs,
                                    std::move(writes), probs);
}

serve::PairCounts run_pairs(std::shared_ptr<const Strategy> strategy,
                            std::uint64_t pairs, std::uint64_t seed) {
  InstantCluster::Config cfg;
  cfg.strategy = std::move(strategy);
  cfg.seed = seed;
  serve::Shard shard(std::make_unique<InstantCluster>(std::move(cfg)));
  return serve::write_read_pairs(shard, pairs);
}

TEST(StrategyEpsilon, UniformStrategyRespectsItsPredictedEpsilon) {
  // R(20, 5) keeps the disjoint-pair fraction large (~0.19 in
  // expectation) so the miss machinery is genuinely exercised.
  const auto strategy = uniform_strategy(20, 5, 12, /*seed=*/0x5eed1);
  const double eps = strategy->predicted_epsilon(0.0);
  ASSERT_GT(eps, 0.0);
  const std::uint64_t kPairs = 200000;
  const auto accept = math::chernoff_acceptance(kPairs, eps);
  EXPECT_TRUE(accept.certified);
  const auto run = run_pairs(strategy, kPairs, /*seed=*/41);
  EXPECT_LE(static_cast<double>(run.stale), accept.count)
      << "observed " << run.stale << " stale reads over " << run.pairs
      << " pairs; predicted eps=" << eps;
  // Misses must actually occur at this epsilon or the harness is not
  // measuring anything.
  EXPECT_GT(run.stale, 0u);
}

TEST(StrategyEpsilon, OptimizedStrategyRespectsItsPredictedEpsilon) {
  // An optimizer-produced deployment on skewed capacities, with the
  // epsilon ceiling taken from the existing exact closed form for the
  // base construction. The optimizer may land anywhere at or below its
  // predicted epsilon, so the binomial-domination bound is taken against
  // max(predicted, floor) — still a valid dominating rate, and the floor
  // keeps the Chernoff margin meaningful when the optimizer happens to
  // pick an almost-surely-intersecting support.
  const std::uint32_t n = 20, q = 5;
  auto base = std::make_shared<core::RandomSubsetSystem>(n, q);
  quorum::WorkloadSpec workload;
  workload.read_fraction = 0.8;
  workload.capacities.assign(n, 1.0);
  for (std::uint32_t u = 0; u < n / 4; ++u) workload.capacities[u] = 0.5;
  quorum::StrategyOptions options;
  options.epsilon_ceiling = core::nonintersection_exact(n, q);
  const auto strategy = quorum::optimize_strategy(base, workload, options);
  const std::uint64_t kPairs = 200000;
  const double eps_bound =
      std::max(strategy->predicted_epsilon(0.0), 1e-4);
  const auto accept = math::chernoff_acceptance(kPairs, eps_bound);
  EXPECT_TRUE(accept.certified);
  const auto run = run_pairs(strategy, kPairs, /*seed=*/43);
  EXPECT_LE(static_cast<double>(run.stale), accept.count)
      << "observed " << run.stale << " stale reads over " << run.pairs
      << " pairs; predicted eps=" << strategy->predicted_epsilon(0.0);
}

// Fixed seeds make the suite a pure function of the binary: reruns are
// bit-identical, so a pass can never flake into a failure.
TEST(StrategyEpsilon, SeededRunsAreDeterministic) {
  const auto strategy = uniform_strategy(20, 5, 12, /*seed=*/0x5eed1);
  const auto a = run_pairs(strategy, 20000, /*seed=*/47);
  const auto b = run_pairs(strategy, 20000, /*seed=*/47);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pqs::replica
