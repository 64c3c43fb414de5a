// Integration tests: the full protocol stack over both cluster harnesses.
#include <memory>

#include <gtest/gtest.h>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "math/hypergeometric.h"
#include "math/stats.h"
#include "quorum/threshold.h"
#include "replica/instant_cluster.h"
#include "replica/sim_cluster.h"

namespace pqs::replica {
namespace {

std::shared_ptr<const quorum::QuorumSystem> majority(std::uint32_t n) {
  return std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(n));
}

std::shared_ptr<const quorum::QuorumSystem> random_subsets(std::uint32_t n,
                                                           std::uint32_t q) {
  return std::make_shared<core::RandomSubsetSystem>(n, q);
}

// ---- InstantCluster ---------------------------------------------------------

TEST(InstantCluster, StrictQuorumReadAfterWriteAlwaysFresh) {
  InstantCluster::Config cfg;
  cfg.quorums = majority(15);
  InstantCluster cluster(cfg);
  for (int i = 1; i <= 200; ++i) {
    const auto w = cluster.write(1, i);
    EXPECT_EQ(w.acks, w.quorum.size());
    const auto r = cluster.read(1);
    ASSERT_TRUE(r.selection.has_value);
    EXPECT_EQ(r.selection.record.value, i);
  }
}

TEST(InstantCluster, TimestampsStrictlyIncrease) {
  InstantCluster::Config cfg;
  cfg.quorums = majority(5);
  InstantCluster cluster(cfg);
  std::uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    const auto w = cluster.write(3, i);
    EXPECT_GT(w.timestamp, prev);
    prev = w.timestamp;
  }
}

TEST(InstantCluster, MultiWriterTimestampsDisjoint) {
  InstantCluster::Config cfg;
  cfg.quorums = majority(5);
  InstantCluster cluster(cfg);
  const auto w1 = cluster.write_as(1, 7, 10);
  const auto w2 = cluster.write_as(2, 7, 20);
  EXPECT_NE(w1.timestamp, w2.timestamp);
  // Last write (by timestamp order) wins on read.
  const auto r = cluster.read(7);
  ASSERT_TRUE(r.selection.has_value);
  EXPECT_EQ(r.selection.record.value,
            w1.timestamp > w2.timestamp ? 10 : 20);
}

TEST(InstantCluster, ProbabilisticStalenessMatchesEpsilon) {
  // Theorem 3.2 measured: non-concurrent read after write returns the last
  // value with probability >= 1 - eps. Uses a coarse system (eps ~ 0.05)
  // so the rate is measurable with 40k pairs.
  const std::uint32_t n = 64, q = 12;
  InstantCluster::Config cfg;
  cfg.quorums = random_subsets(n, q);
  cfg.seed = 7;
  InstantCluster cluster(cfg);
  const double eps = core::nonintersection_exact(n, q);
  math::Proportion stale;
  std::int64_t value = 0;
  for (int i = 0; i < 40000; ++i) {
    cluster.write(1, ++value);
    const auto r = cluster.read(1);
    stale.add(!(r.selection.has_value && r.selection.record.value == value));
  }
  // Staleness can only be *lower* than eps: overlapping with ANY previous
  // write quorum that carried an older-but-recent value still often returns
  // the fresh one only via the latest quorum; the event "miss the last
  // write quorum" upper-bounds staleness... but reads can also return
  // values from earlier writes adopted by overlap. The paper's guarantee
  // is one-sided, so assert the Wilson interval does not exceed eps.
  EXPECT_LE(stale.wilson(4.4).lo, eps);
  EXPECT_GT(stale.estimate(), 0.0);  // and misses genuinely happen
  EXPECT_LT(stale.estimate(), 2.0 * eps);
}

TEST(InstantCluster, CrashedServersReduceAcks) {
  InstantCluster::Config cfg;
  cfg.quorums = majority(9);  // quorum size 5
  InstantCluster cluster(cfg, FaultPlan::prefix(9, 3, FaultMode::kCrash));
  math::OnlineStats acks;
  for (int i = 0; i < 200; ++i) {
    acks.add(static_cast<double>(cluster.write(1, i).acks));
  }
  // E[acks] = 5 * (6/9) = 3.33; always between 2 and 5.
  EXPECT_NEAR(acks.mean(), 5.0 * 6.0 / 9.0, 0.3);
  EXPECT_GE(acks.min(), 2.0);
}

TEST(InstantCluster, SilentServersLeaveNoEarlierRepliesInTheReadScratch) {
  // read_into reuses one reply scratch across reads, and a crashed or
  // suppressing member writes no reply. A read answered by fewer servers
  // than the read before it must still see only its own replies: here
  // variable 2 is always written last, so a leftover reply of a read of
  // variable 2 would outrank every genuine reply of variable 1.
  InstantCluster::Config cfg;
  cfg.quorums = majority(9);  // quorum size 5
  FaultPlan faults = FaultPlan::prefix(9, 2, FaultMode::kCrash);
  faults.set_mode(2, FaultMode::kSuppress);
  InstantCluster cluster(cfg, faults);
  std::uint32_t fewer = 0;
  for (int i = 1; i <= 200; ++i) {
    cluster.write(1, i);
    cluster.write(2, -i);
    const std::uint32_t previous_replies = cluster.read(2).replies;
    const auto r = cluster.read(1);
    std::uint32_t answering = 0;
    for (const auto u : r.quorum) answering += u >= 3 ? 1 : 0;
    EXPECT_EQ(r.replies, answering);
    fewer += r.replies < previous_replies ? 1 : 0;
    if (r.selection.has_value) {
      EXPECT_EQ(r.selection.record.variable, 1u) << "read " << i;
      EXPECT_GT(r.selection.record.value, 0) << "read " << i;
    }
  }
  EXPECT_GT(fewer, 20u);  // the case under test happened often
}

TEST(InstantCluster, DisseminationDefeatsForgers) {
  const std::uint32_t n = 40, b = 8;
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(
      core::RandomSubsetSystem::with_byzantine(n, 16, b,
                                               core::Regime::kDissemination));
  cfg.mode = ReadMode::kDissemination;
  InstantCluster cluster(cfg, FaultPlan::prefix(n, b, FaultMode::kForge));
  std::int64_t value = 0;
  int accepted_forgery = 0;
  for (int i = 0; i < 3000; ++i) {
    cluster.write(1, ++value);
    const auto r = cluster.read(1);
    if (r.selection.has_value && r.selection.record.value > value) {
      ++accepted_forgery;  // forged timestamps are astronomically larger
    }
  }
  EXPECT_EQ(accepted_forgery, 0);
}

TEST(InstantCluster, PlainReadsAreFooledByForgersButDisseminationIsNot) {
  const std::uint32_t n = 40, b = 8;
  auto run = [&](ReadMode mode) {
    InstantCluster::Config cfg;
    cfg.quorums = random_subsets(n, 16);
    cfg.mode = mode;
    cfg.seed = 11;
    InstantCluster cluster(cfg, FaultPlan::prefix(n, b, FaultMode::kForge));
    int fooled = 0;
    std::int64_t value = 0;
    for (int i = 0; i < 1000; ++i) {
      cluster.write(1, ++value);
      const auto r = cluster.read(1);
      if (r.selection.has_value && r.selection.record.timestamp > (1ull << 40)) {
        ++fooled;
      }
    }
    return fooled;
  };
  EXPECT_GT(run(ReadMode::kPlain), 900);  // nearly every read hits a forger
  EXPECT_EQ(run(ReadMode::kDissemination), 0);
}

TEST(InstantCluster, MaskingCollusionRateMatchesAnalysis) {
  // Colluders win a masking read iff >= k of them land in the read quorum.
  // Compare the measured forgery-acceptance rate with P(X >= k).
  const std::uint32_t n = 50, q = 20, b = 10;
  const auto k = static_cast<std::uint32_t>(core::masking_threshold(n, q));
  InstantCluster::Config cfg;
  cfg.quorums = random_subsets(n, q);
  cfg.mode = ReadMode::kMasking;
  cfg.read_threshold = k;
  cfg.seed = 13;
  InstantCluster cluster(cfg, FaultPlan::prefix(n, b, FaultMode::kCollude));
  math::Proportion fooled;
  std::int64_t value = 0;
  for (int i = 0; i < 30000; ++i) {
    cluster.write(1, ++value);
    const auto r = cluster.read(1);
    fooled.add(r.selection.has_value && r.selection.record.value < 0);
  }
  const auto X = math::make_hypergeometric(n, b, q);
  const double expected = X.upper_tail(k);
  EXPECT_TRUE(fooled.wilson(4.4).contains(expected))
      << fooled.estimate() << " vs " << expected;
}

// ---- SimCluster ------------------------------------------------------------

TEST(SimCluster, ReadAfterWriteOverNetwork) {
  SimCluster::Config cfg;
  cfg.quorums = majority(9);
  cfg.latency = {.base = 500, .jitter_mean = 200, .drop_probability = 0.0};
  SimCluster cluster(cfg);
  const auto w = cluster.write_sync(1, 42);
  EXPECT_TRUE(w.complete);
  EXPECT_EQ(w.acks, w.quorum.size());
  const auto r = cluster.read_sync(1);
  EXPECT_TRUE(r.complete);
  ASSERT_TRUE(r.selection.has_value);
  EXPECT_EQ(r.selection.record.value, 42);
  EXPECT_GT(cluster.simulator().now(), 0);
  EXPECT_GT(cluster.network().messages_delivered(), 0u);
}

TEST(SimCluster, OperationsTimeOutUnderCrashes) {
  SimCluster::Config cfg;
  cfg.quorums = majority(9);
  cfg.latency = {.base = 100, .jitter_mean = 0, .drop_probability = 0.0};
  cfg.client_timeout = 10000;
  SimCluster cluster(cfg, FaultPlan::prefix(9, 4, FaultMode::kCrash));
  const auto w = cluster.write_sync(1, 7);
  // Quorum size 5 over 9 servers with 4 crashed: at least 1 member acked,
  // and completion depends on whether the sampled quorum hit a crash.
  EXPECT_GE(w.acks, 1u);
  EXPECT_LE(w.acks, w.quorum.size());
  const auto r = cluster.read_sync(1);
  // Read still succeeds through surviving overlap: the 5 live servers are
  // in every majority quorum's intersection with the write quorum... at
  // least when the value reached a live server.
  if (r.selection.has_value) {
    EXPECT_EQ(r.selection.record.value, 7);
  }
}

TEST(SimCluster, MessageLossDegradesButTimestampsProtect) {
  SimCluster::Config cfg;
  cfg.quorums = majority(15);
  cfg.latency = {.base = 100, .jitter_mean = 50, .drop_probability = 0.2};
  cfg.client_timeout = 5000;
  cfg.seed = 3;
  SimCluster cluster(cfg);
  int fresh = 0;
  constexpr int kOps = 50;
  for (int i = 1; i <= kOps; ++i) {
    cluster.write_sync(1, i);
    const auto r = cluster.read_sync(1);
    if (r.selection.has_value && r.selection.record.value == i) ++fresh;
  }
  // With 20% loss some operations go stale, but most succeed, and no read
  // ever returns a value newer than written (timestamps cannot be forged
  // by loss).
  EXPECT_GT(fresh, kOps / 2);
}

TEST(SimCluster, PartitionedQuorumMembersUnreachable) {
  SimCluster::Config cfg;
  cfg.quorums = majority(5);
  cfg.latency = {.base = 100, .jitter_mean = 0, .drop_probability = 0.0};
  cfg.client_timeout = 5000;
  SimCluster cluster(cfg);
  // Cut servers {0,1,2} off from the client (node id 5): every 3-of-5
  // quorum contains at least one unreachable member.
  cluster.network().partition({0, 1, 2}, {5});
  const auto w = cluster.write_sync(1, 9);
  EXPECT_FALSE(w.complete);
  EXPECT_LE(w.acks, 2u);
  cluster.network().heal_partitions();
  const auto w2 = cluster.write_sync(1, 10);
  EXPECT_TRUE(w2.complete);
}

TEST(SimCluster, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    SimCluster::Config cfg;
    cfg.quorums = majority(9);
    cfg.latency = {.base = 100, .jitter_mean = 80, .drop_probability = 0.1};
    cfg.seed = seed;
    SimCluster cluster(cfg);
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 20; ++i) {
      trace.push_back(cluster.write_sync(1, i).acks);
      trace.push_back(static_cast<std::uint64_t>(cluster.simulator().now()));
    }
    return trace;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(SimCluster, MultipleClientsDistinctWriters) {
  SimCluster::Config cfg;
  cfg.quorums = majority(9);
  cfg.clients = 2;
  SimCluster cluster(cfg);
  cluster.write_sync(1, 100, /*client_index=*/0);
  cluster.write_sync(1, 200, /*client_index=*/1);
  const auto r = cluster.read_sync(1, 0);
  ASSERT_TRUE(r.selection.has_value);
  // Client 1's write carries a (1, writer=2) timestamp vs (1, writer=1):
  // both have sequence 1, so writer id breaks the tie; value 200 wins.
  EXPECT_EQ(r.selection.record.value, 200);
}

}  // namespace
}  // namespace pqs::replica
