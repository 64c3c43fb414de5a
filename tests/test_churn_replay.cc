// Deterministic churn-schedule replay. A fixed schedule of membership
// events interleaved with write/read pairs, replayed through dynamic
// InstantCluster shards, must be a pure function of the shard seed: the
// same per-operation trace, final view, and rng tails — across {1, 8}
// worker threads and against a serially-computed reference. The style
// (and the reason it works: every shard's state is self-contained, so
// scheduling cannot matter) follows test_protocol_draw_equivalence.
//
// Also anchors the stream-preservation contract: with every slot live and
// no churn, a dynamic-membership cluster is bit-identical to a static one
// — turning the feature on costs nothing until the first membership
// event.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "math/rng.h"
#include "replica/instant_cluster.h"
#include "util/worker_pool.h"

namespace pqs::replica {
namespace {

constexpr std::uint32_t kCapacity = 64;
constexpr std::uint32_t kQuorum = 16;
constexpr std::uint32_t kInitialLive = 60;
constexpr int kPairs = 120;

// Everything one operation can reveal (as in the draw-equivalence suite).
struct OpRecord {
  quorum::Quorum quorum;
  std::uint32_t count = 0;
  std::uint64_t timestamp = 0;
  bool has_value = false;
  std::int64_t value = 0;

  bool operator==(const OpRecord& o) const {
    return quorum == o.quorum && count == o.count &&
           timestamp == o.timestamp && has_value == o.has_value &&
           value == o.value;
  }
};

struct Trace {
  std::vector<OpRecord> ops;
  std::uint64_t epoch = 0;
  std::uint32_t live = 0;
  std::uint64_t live_checksum = 0;  // position-weighted live-mask fold
  std::uint64_t rng_tail = 0;       // next quorum-stream draw afterwards
  std::uint64_t churn_tail = 0;     // next churn-stream draw afterwards

  bool operator==(const Trace& o) const {
    return ops == o.ops && epoch == o.epoch && live == o.live &&
           live_checksum == o.live_checksum && rng_tail == o.rng_tail &&
           churn_tail == o.churn_tail;
  }
};

// The fixed churn schedule: a pure function of the pair index, mixing all
// three reconfiguration kinds. Slot 63 starts dead and cycles through
// join/leave; churn_replace turns over a uniformly random live slot from
// the cluster's dedicated churn stream.
void apply_schedule(InstantCluster& cluster, int pair) {
  if (pair % 5 == 2) cluster.churn_replace();
  if (pair % 24 == 7) cluster.join(63);
  if (pair % 24 == 19) cluster.leave(63);
}

Trace run_schedule(std::uint64_t seed) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(kCapacity, kQuorum);
  cfg.seed = seed;
  cfg.churn_seed = seed ^ 0x5eedc0deULL;
  cfg.dynamic_membership = true;
  cfg.initial_live = kInitialLive;
  InstantCluster cluster(cfg);
  Trace trace;
  WriteResult w;
  ReadResult r;
  for (int i = 0; i < kPairs; ++i) {
    apply_schedule(cluster, i);
    cluster.write_into(w, /*variable=*/1 + (i % 3), /*value=*/i);
    trace.ops.push_back(OpRecord{w.quorum, w.acks, w.timestamp, false, 0});
    cluster.read_into(r, 1 + (i % 3));
    trace.ops.push_back(OpRecord{r.quorum, r.replies, 0,
                                 r.selection.has_value,
                                 r.selection.record.value});
  }
  trace.epoch = cluster.view_epoch();
  trace.live = cluster.view().live_count();
  cluster.view().live_mask().for_each_set_bit([&trace](quorum::ServerId u) {
    trace.live_checksum += (static_cast<std::uint64_t>(u) + 1) *
                           (static_cast<std::uint64_t>(u) + 1);
  });
  trace.rng_tail = cluster.rng().next();
  trace.churn_tail = cluster.churn_rng().next();
  return trace;
}

std::uint64_t shard_seed(std::uint64_t s) { return 17 + 1000003 * s; }

// The replay gate: 8 shard schedules computed serially (the reference),
// then concurrently at {1, 8} worker threads — every trace must equal the
// reference bit for bit, rng tails included.
TEST(ChurnReplay, BitIdenticalAcrossThreads) {
  constexpr std::uint32_t kShards = 8;
  std::vector<Trace> reference(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    reference[s] = run_schedule(shard_seed(s));
  }
  // The schedule actually churns: epochs advanced and membership moved.
  ASSERT_GT(reference[0].epoch, 20u);
  ASSERT_GE(reference[0].live, kInitialLive);

  for (const unsigned threads : {1u, 8u}) {
    std::vector<Trace> traces(kShards);
    util::WorkerPool pool(threads);
    pool.run(kShards,
             [&](std::uint64_t s) { traces[s] = run_schedule(shard_seed(s)); });
    for (std::uint32_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(traces[s].ops.size(), reference[s].ops.size());
      for (std::size_t i = 0; i < traces[s].ops.size(); ++i) {
        ASSERT_TRUE(traces[s].ops[i] == reference[s].ops[i])
            << "threads=" << threads << " shard=" << s << " op=" << i;
      }
      ASSERT_TRUE(traces[s] == reference[s])
          << "threads=" << threads << " shard=" << s
          << " diverged outside the op trace";
    }
  }
}

// Replays of the same schedule are idempotent (a pure function of the
// seed), and different seeds genuinely diverge — the harness measures
// something.
TEST(ChurnReplay, ReplayIsPureFunctionOfSeed) {
  const Trace a = run_schedule(99);
  const Trace b = run_schedule(99);
  EXPECT_TRUE(a == b);
  const Trace c = run_schedule(100);
  EXPECT_FALSE(a == c);
}

// Stream preservation: dynamic membership with a full live view and no
// churn must be bit-identical to the static cluster — same quorums, same
// outcomes, same rng tail.
TEST(ChurnReplay, FullLiveDynamicMatchesStaticCluster) {
  auto run = [](bool dynamic) {
    InstantCluster::Config cfg;
    cfg.quorums =
        std::make_shared<core::RandomSubsetSystem>(kCapacity, kQuorum);
    cfg.seed = 41;
    cfg.dynamic_membership = dynamic;
    InstantCluster cluster(cfg);
    Trace trace;
    WriteResult w;
    ReadResult r;
    for (int i = 0; i < 60; ++i) {
      cluster.write_into(w, /*variable=*/1, /*value=*/i);
      trace.ops.push_back(OpRecord{w.quorum, w.acks, w.timestamp, false, 0});
      cluster.read_into(r, 1);
      trace.ops.push_back(OpRecord{r.quorum, r.replies, 0,
                                   r.selection.has_value,
                                   r.selection.record.value});
    }
    trace.rng_tail = cluster.rng().next();
    return trace;
  };
  const Trace dynamic = run(/*dynamic=*/true);
  const Trace fixed = run(/*dynamic=*/false);
  ASSERT_EQ(dynamic.ops.size(), fixed.ops.size());
  for (std::size_t i = 0; i < dynamic.ops.size(); ++i) {
    ASSERT_TRUE(dynamic.ops[i] == fixed.ops[i]) << "op=" << i;
  }
  EXPECT_EQ(dynamic.rng_tail, fixed.rng_tail);
}

}  // namespace
}  // namespace pqs::replica
