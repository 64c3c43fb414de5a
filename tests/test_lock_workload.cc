#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "math/stats.h"
#include "quorum/threshold.h"
#include "replica/lock_service.h"
#include "serve/shard.h"
#include "workload/open_loop.h"

namespace pqs {
namespace {

using replica::FaultMode;
using replica::FaultPlan;
using replica::InstantCluster;
using replica::LockService;

InstantCluster::Config strict_config(std::uint32_t n, std::uint64_t seed) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(n));
  cfg.seed = seed;
  return cfg;
}

// ---- LockService -----------------------------------------------------------

TEST(LockService, AcquireReleaseCycle) {
  InstantCluster cluster(strict_config(9, 1));
  LockService locks(cluster);
  EXPECT_EQ(locks.holder(7), 0u);
  EXPECT_EQ(locks.try_acquire(7, 42), LockService::Outcome::kAcquired);
  EXPECT_EQ(locks.holder(7), 42u);
  EXPECT_EQ(locks.try_acquire(7, 43), LockService::Outcome::kAlreadyHeld);
  EXPECT_TRUE(locks.release(7, 42));
  EXPECT_EQ(locks.holder(7), 0u);
  EXPECT_EQ(locks.try_acquire(7, 43), LockService::Outcome::kAcquired);
}

TEST(LockService, ReleaseByNonOwnerFails) {
  InstantCluster cluster(strict_config(9, 2));
  LockService locks(cluster);
  locks.try_acquire(1, 10);
  EXPECT_FALSE(locks.release(1, 11));
  EXPECT_EQ(locks.holder(1), 10u);
}

TEST(LockService, RejectsOwnerZero) {
  InstantCluster cluster(strict_config(5, 3));
  LockService locks(cluster);
  EXPECT_THROW(locks.try_acquire(1, 0), std::invalid_argument);
}

TEST(LockService, StrictQuorumsNeverDoubleAcquire) {
  InstantCluster cluster(strict_config(15, 4));
  LockService locks(cluster);
  int double_acquires = 0;
  for (std::uint64_t lock = 1; lock <= 500; ++lock) {
    ASSERT_EQ(locks.try_acquire(lock, 1), LockService::Outcome::kAcquired);
    if (locks.try_acquire(lock, 2) == LockService::Outcome::kAcquired) {
      ++double_acquires;
    }
  }
  EXPECT_EQ(double_acquires, 0);
  EXPECT_EQ(locks.rejections(), 500u);
}

TEST(LockService, ProbabilisticDoubleAcquireRateMatchesEpsilon) {
  // Coarse system: measurable double-acquire rate ~ eps.
  const std::uint32_t n = 64, q = 12;
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.seed = 5;
  InstantCluster cluster(cfg);
  LockService locks(cluster);
  math::Proportion slipped;
  for (std::uint64_t lock = 1; lock <= 20000; ++lock) {
    locks.try_acquire(lock, 1);
    slipped.add(locks.try_acquire(lock, 2) ==
                LockService::Outcome::kAcquired);
  }
  const double eps = core::nonintersection_exact(n, q);
  EXPECT_TRUE(slipped.wilson(4.4).contains(eps))
      << slipped.estimate() << " vs " << eps;
}

TEST(LockService, RepeatedAttemptsAreVirtuallyAlwaysCaught) {
  // eps^k decay: 5 attempts against eps ~ 0.063 should essentially never
  // all succeed; count locks where *any* retry slipped, expect ~ 5*eps,
  // and locks where >= 3 slipped, expect ~ C(5,3) eps^3 (tiny).
  const std::uint32_t n = 64, q = 12;
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.seed = 6;
  InstantCluster cluster(cfg);
  LockService locks(cluster);
  int three_plus = 0;
  for (std::uint64_t lock = 1; lock <= 4000; ++lock) {
    locks.try_acquire(lock, 1);
    int slips = 0;
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (locks.try_acquire(lock, 2) == LockService::Outcome::kAcquired) {
        ++slips;
      }
    }
    if (slips >= 3) ++three_plus;
  }
  EXPECT_LE(three_plus, 2);  // expected ~ 4000 * 10 * eps^3 ~ 0.01
}

// ---- Workload ----------------------------------------------------------------

TEST(Zipfian, UniformWhenExponentZero) {
  workload::ZipfianKeys keys(10, 0.0);
  for (std::uint64_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(keys.probability(k), 0.1, 1e-12);
  }
}

TEST(Zipfian, ProbabilitiesSumToOneAndDecay) {
  workload::ZipfianKeys keys(100, 1.2);
  double total = 0.0;
  for (std::uint64_t k = 1; k <= 100; ++k) total += keys.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(keys.probability(1), keys.probability(2));
  EXPECT_GT(keys.probability(2), keys.probability(50));
  // Zipf ratio: P(1)/P(2) = 2^1.2.
  EXPECT_NEAR(keys.probability(1) / keys.probability(2), std::pow(2.0, 1.2),
              1e-9);
}

TEST(Zipfian, SamplingMatchesPmf) {
  workload::ZipfianKeys keys(20, 1.0);
  math::Rng rng(7);
  std::vector<int> counts(21, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[keys.sample(rng)];
  for (std::uint64_t k = 1; k <= 20; ++k) {
    EXPECT_NEAR(counts[k] / double(kSamples), keys.probability(k), 0.005)
        << "k=" << k;
  }
}

TEST(Zipfian, Validation) {
  EXPECT_THROW(workload::ZipfianKeys(0, 1.0), std::invalid_argument);
  EXPECT_THROW(workload::ZipfianKeys(10, -0.5), std::invalid_argument);
  workload::ZipfianKeys keys(5, 1.0);
  EXPECT_THROW(keys.probability(0), std::invalid_argument);
  EXPECT_THROW(keys.probability(6), std::invalid_argument);
}

// A fresh shard over `cfg` after a closed loop of `ops` operations of
// `spec`, generator seed `seed`.
std::unique_ptr<serve::Shard> closed_loop(const InstantCluster::Config& cfg,
                                          const workload::OpenLoopSpec& spec,
                                          std::uint64_t ops,
                                          std::uint64_t seed) {
  auto shard =
      std::make_unique<serve::Shard>(std::make_unique<InstantCluster>(cfg));
  workload::OpenLoopGenerator gen(spec, seed);
  serve::run_closed_loop(*shard, gen, ops);
  return shard;
}

TEST(Workload, StrictClusterHasNoStaleReads) {
  workload::OpenLoopSpec spec;
  spec.keys = 32;
  spec.read_fraction = 0.5;
  const auto counts =
      closed_loop(strict_config(15, 8), spec, 20000, 9)->aggregate();
  EXPECT_EQ(counts.stale_reads, 0u);
  EXPECT_EQ(counts.reads + counts.writes, 20000u);
  EXPECT_NEAR(double(counts.reads) / 20000, 0.5, 0.02);
}

TEST(Workload, MeasuredLoadMatchesAnalytic) {
  const std::uint32_t n = 50, q = 10;
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.seed = 10;
  workload::OpenLoopSpec spec;
  spec.keys = 16;
  spec.zipf_exponent = 1.0;  // key skew must NOT skew server load
  EXPECT_NEAR(closed_loop(cfg, spec, 100000, 11)->profile().max_load(), 0.2,
              0.015);
}

TEST(Workload, StaleRateTracksEpsilon) {
  const std::uint32_t n = 64, q = 12;
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.seed = 12;
  workload::OpenLoopSpec spec;
  spec.keys = 8;
  spec.read_fraction = 0.5;
  const auto counts = closed_loop(cfg, spec, 100000, 13)->aggregate();
  const double eps = core::nonintersection_exact(n, q);
  // A read is stale iff its quorum misses the key's last write quorum; the
  // workload's interleaving across keys does not change that probability.
  EXPECT_NEAR(double(counts.stale_reads) / double(counts.reads), eps, 0.01);
}

TEST(Workload, ReadOnlyAndWriteOnlyMixes) {
  const InstantCluster::Config cfg = strict_config(9, 14);
  workload::OpenLoopSpec spec;
  spec.keys = 4;
  spec.read_fraction = 1.0;
  const auto r = closed_loop(cfg, spec, 1000, 15)->aggregate();
  EXPECT_EQ(r.writes, 0u);
  EXPECT_EQ(r.reads, 1000u);
  EXPECT_EQ(r.empty_reads, 1000u);  // nothing was ever written
  spec.read_fraction = 0.0;
  const auto w = closed_loop(cfg, spec, 1000, 16)->aggregate();
  EXPECT_EQ(w.reads, 0u);
  EXPECT_EQ(w.writes, 1000u);
}

}  // namespace
}  // namespace pqs
