// Statistical conformance of the masking quorums (Section 5) on the
// deployed stack: the rate at which the actual InstantCluster protocol
// accepts a fabricated record from b colluding servers must respect
// the fabrication epsilon of Lemma 5.7 — P(|Q ∩ B| >= k), the upper
// tail of a hypergeometric — and the total failed-read rate must
// respect the Definition 5.1 masking epsilon, both measured on the
// running system rather than on the estimator.
//
// The fabrication event is contained in "at least k colluders landed in
// the read quorum": the colluders share one forged record with an
// astronomically fresh timestamp, so select_masking accepts it exactly
// when their voucher group reaches k — any honest group that qualifies
// has a strictly smaller timestamp. The total-failure event is contained
// in the Definition 5.1 disjunction (>= k colluders in Q, or fewer than
// k honest write-quorum servers in Q): when neither side occurs, the
// fresh write group qualifies and out-timestamps every honest rival. So
// over N seeded write/read pairs each observed count is stochastically
// dominated by Binomial(N, eps) and a multiplicative Chernoff margin
// (math/chernoff.h) turns that into a deterministic-seed assertion with
// failure probability <= 1e-9 under the null.
//
// Perturbation check (done manually once during development): dropping
// the threshold comparison in select_masking to `count >= 1` drives the
// fabricated rate at b = 2 to the b >= 1 containment rate, an order of
// magnitude above the Lemma 5.7 bound, and the conformance tests here
// fail.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "core/epsilon.h"
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "math/chernoff.h"
#include "math/hypergeometric.h"
#include "math/rng.h"
#include "replica/fault.h"
#include "replica/instant_cluster.h"
#include "serve/shard.h"

namespace pqs::replica {
namespace {

// Write/read pairs under masking against a cluster whose first b servers
// collude on the shared forged record. A failed read is a stale one: ⊥,
// or anything but the value just written.
serve::PairCounts run_pairs(std::uint32_t n, std::uint32_t q, std::uint32_t b,
                            std::uint32_t k, std::uint64_t pairs,
                            std::uint64_t seed) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.mode = ReadMode::kMasking;
  cfg.read_threshold = k;
  cfg.seed = seed;
  serve::Shard shard(std::make_unique<InstantCluster>(
      cfg, FaultPlan::prefix(n, b, FaultMode::kCollude)));
  return serve::write_read_pairs(shard, pairs);
}

// ---- the closed form against its own oracle -------------------------------

TEST(MaskingEpsilon, FabricationExactMatchesHypergeometricTail) {
  const std::uint32_t n = 64, q = 16;
  for (const std::uint32_t b : {2u, 4u, 8u}) {
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      const auto x = math::make_hypergeometric(n, b, q);
      double tail = 0.0;
      for (std::uint32_t i = k; i <= x.support_max(); ++i) tail += x.pmf(i);
      EXPECT_NEAR(core::fabrication_epsilon_exact(n, q, b, k), tail, 1e-12)
          << "b=" << b << " k=" << k;
    }
  }
}

TEST(MaskingEpsilon, FabricationIsStructurallyZeroBelowThreshold) {
  // Fewer than k Byzantine servers can never assemble k vouchers.
  EXPECT_EQ(core::fabrication_epsilon_exact(64, 16, 0, 2), 0.0);
  EXPECT_EQ(core::fabrication_epsilon_exact(64, 16, 1, 2), 0.0);
  EXPECT_GT(core::fabrication_epsilon_exact(64, 16, 2, 2), 0.0);
}

TEST(MaskingEpsilon, FabricationIsMonotoneAndInsideDefinitionEpsilon) {
  const std::uint32_t n = 64, q = 16;
  const auto k = static_cast<std::uint32_t>(core::masking_threshold(n, q));
  double prev = -1.0;
  for (std::uint32_t b = 0; b <= 8; ++b) {
    const double fab = core::fabrication_epsilon_exact(n, q, b, k);
    EXPECT_GE(fab, prev) << "b=" << b;
    // The fabrication event is one disjunct of the Definition 5.1 event.
    EXPECT_LE(fab, core::masking_epsilon_exact(n, q, b, k)) << "b=" << b;
    prev = fab;
  }
}

TEST(MaskingEpsilon, EstimatorBracketsClosedForm) {
  const std::uint32_t n = 64, q = 16;
  const core::RandomSubsetSystem system(n, q);
  for (const std::uint32_t b : {1u, 2u, 4u}) {
    math::Rng rng(0x5ec7 + b);
    const math::Proportion est = core::estimate_fabrication_epsilon(
        system, b, /*k=*/2, /*samples=*/200000, rng);
    const double exact = core::fabrication_epsilon_exact(n, q, b, 2);
    EXPECT_TRUE(est.wilson(6.0).contains(exact))
        << "b=" << b << " estimate=" << est.estimate()
        << " exact=" << exact;
  }
}

// ---- the deployed stack against the closed form ---------------------------

TEST(MaskingEpsilon, ColludingStackRespectsFabricationEpsilon) {
  const std::uint32_t n = 64, q = 16, b = 4;
  const auto k = static_cast<std::uint32_t>(core::masking_threshold(n, q));
  const std::uint64_t kPairs = 200000;
  const double fab = core::fabrication_epsilon_exact(n, q, b, k);
  ASSERT_GT(fab, 0.0);
  const auto accept = math::chernoff_acceptance(kPairs, fab);
  EXPECT_TRUE(accept.certified);
  const auto run = run_pairs(n, q, b, k, kPairs, /*seed=*/41);
  EXPECT_LE(static_cast<double>(run.fabricated), accept.count)
      << "observed " << run.fabricated << " fabricated reads over "
      << run.pairs << " pairs; eps=" << fab;
  // The bound is probabilistic, not strict: fabrications must actually
  // occur at b = 2k, or the harness is not measuring anything.
  EXPECT_GT(run.fabricated, 0u);

  // The total failed-read rate sits inside the Definition 5.1 epsilon.
  const double eps = core::masking_epsilon_exact(n, q, b, k);
  const auto accept_fail = math::chernoff_acceptance(kPairs, eps);
  EXPECT_TRUE(accept_fail.certified);
  EXPECT_LE(static_cast<double>(run.stale), accept_fail.count)
      << "observed " << run.stale << " failed reads over " << run.pairs
      << " pairs; eps=" << eps;
}

TEST(MaskingEpsilon, SubThresholdColluderNeverFabricates) {
  // b = 1 < k = 2 is the structural zero measured end to end: one
  // colluder's forgery can never reach the voucher threshold, so the
  // deployed rate is exactly zero, not merely small.
  const std::uint32_t n = 64, q = 16;
  const auto run = run_pairs(n, q, /*b=*/1, /*k=*/2, 50000, /*seed=*/43);
  EXPECT_EQ(run.fabricated, 0u);
  // Failures still occur (the other Definition 5.1 disjunct).
  EXPECT_GT(run.stale, 0u);
}

// Fixed seeds make the whole suite a pure function of the binary: the same
// run twice is bit-identical, so a pass can never flake into a failure on
// re-execution.
TEST(MaskingEpsilon, SeededRunsAreDeterministic) {
  const auto a = run_pairs(64, 16, 4, 2, 20000, /*seed=*/47);
  const auto b = run_pairs(64, 16, 4, 2, 20000, /*seed=*/47);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pqs::replica
