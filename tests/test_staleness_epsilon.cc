// Statistical conformance of the deployed stack: the staleness rate of the
// actual InstantCluster protocol (mask draw path, real servers, real read
// rules) must respect the epsilon computed analytically in core/epsilon.h —
// Theorem 3.2's guarantee measured on the running system rather than on the
// estimator.
//
// The staleness event is contained in "every server common to the write and
// read quorums is crashed": a live common server holds the latest record
// (single writer, strictly increasing timestamps) and answers the read, and
// select_plain returns the highest timestamp. For a fixed crashed set B of
// size f that containment probability is exactly P(Q ∩ Q' ⊆ B) =
// dissemination_epsilon_exact(n, q, f) (nonintersection_exact for f = 0),
// so over N seeded write/read pairs the observed stale count is
// stochastically dominated by Binomial(N, eps) and a multiplicative
// Chernoff margin (math/chernoff.h) turns that into a deterministic-seed
// assertion with failure probability <= 1e-9 under the null.
//
// Perturbation check (done manually once during development): making
// select_plain return the first reply instead of the highest timestamp
// drives the stale rate to ~1 - q/n, orders of magnitude above the bound,
// and every test here fails.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "math/chernoff.h"
#include "replica/instant_cluster.h"
#include "serve/shard.h"

namespace pqs::replica {
namespace {

serve::PairCounts run_pairs(std::uint32_t n, std::uint32_t q,
                            std::uint32_t crashed, std::uint64_t pairs,
                            std::uint64_t seed) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.seed = seed;
  serve::Shard shard(std::make_unique<InstantCluster>(
      cfg, FaultPlan::prefix(n, crashed, FaultMode::kCrash)));
  return serve::write_read_pairs(shard, pairs);
}

TEST(StalenessEpsilon, BenignStackRespectsNonintersectionEpsilon) {
  const std::uint32_t n = 64, q = 16;
  const std::uint64_t kPairs = 200000;
  const double eps = core::nonintersection_exact(n, q);
  ASSERT_GT(eps, 0.0);
  const auto accept = math::chernoff_acceptance(kPairs, eps);
  EXPECT_TRUE(accept.certified);
  const auto run = run_pairs(n, q, /*crashed=*/0, kPairs, /*seed=*/29);
  EXPECT_LE(static_cast<double>(run.stale), accept.count)
      << "observed " << run.stale << " stale reads over " << run.pairs
      << " pairs; eps=" << eps;
  // The guarantee is probabilistic, not strict: misses must actually occur
  // for this coarse a system, or the harness is not measuring anything.
  EXPECT_GT(run.stale, 0u);
}

TEST(StalenessEpsilon, CrashedStackRespectsDisseminationEpsilon) {
  const std::uint32_t n = 64, q = 16, f = 6;
  const std::uint64_t kPairs = 200000;
  // Staleness ⊆ {Q ∩ Q' ⊆ crashed}, |crashed| = f.
  const double eps = core::dissemination_epsilon_exact(n, q, f);
  ASSERT_GT(eps, core::nonintersection_exact(n, q));
  const auto accept = math::chernoff_acceptance(kPairs, eps);
  EXPECT_TRUE(accept.certified);
  const auto run = run_pairs(n, q, f, kPairs, /*seed=*/31);
  EXPECT_LE(static_cast<double>(run.stale), accept.count)
      << "observed " << run.stale << " stale reads over " << run.pairs
      << " pairs; eps=" << eps;
  EXPECT_GT(run.stale, 0u);
}

// Fixed seeds make the whole suite a pure function of the binary: the same
// run twice is bit-identical, so a pass can never flake into a failure on
// re-execution.
TEST(StalenessEpsilon, SeededRunsAreDeterministic) {
  const auto a = run_pairs(64, 16, 6, 20000, /*seed=*/37);
  const auto b = run_pairs(64, 16, 6, 20000, /*seed=*/37);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pqs::replica
