// The protocol stack draws each operation's quorum with sample_mask into
// per-instance scratch and reaches the servers through their direct entry
// points. That draw must be the construction's access strategy exactly:
// for any construction and any seed, every InstantCluster quorum must
// equal QuorumSystem::sample() — the reference draw — on a copy of the
// cluster's rng taken right after construction, both streams must end at
// the same position, and exactly the answering members of the drawn
// quorum must acknowledge or reply. Checked per operation over every
// construction, with and without faults, at 1 and 8 worker shards.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "math/rng.h"
#include "quorum/grid.h"
#include "quorum/set_system.h"
#include "quorum/singleton.h"
#include "quorum/threshold.h"
#include "quorum/wall.h"
#include "quorum/weighted.h"
#include "replica/instant_cluster.h"
#include "util/worker_pool.h"

namespace pqs::replica {
namespace {

using quorum::QuorumSystem;

using SystemFactory = std::shared_ptr<const QuorumSystem> (*)();

std::shared_ptr<const QuorumSystem> make_threshold() {
  return std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(67));
}
std::shared_ptr<const QuorumSystem> make_grid() {
  // 7x7, d=2: rows straddle word boundaries at neither 64 nor 128.
  return std::make_shared<quorum::GridSystem>(quorum::GridSystem(7, 7, 2));
}
std::shared_ptr<const QuorumSystem> make_wall() {
  return std::make_shared<quorum::WallSystem>(
      quorum::WallSystem({40, 30, 20, 10}));  // 100 servers
}
std::shared_ptr<const QuorumSystem> make_weighted() {
  std::vector<std::uint32_t> votes(70, 1);
  for (int i = 0; i < 10; ++i) votes[i] = 5;
  return std::make_shared<quorum::WeightedVotingSystem>(
      quorum::WeightedVotingSystem(votes, 61));
}
std::shared_ptr<const QuorumSystem> make_singleton() {
  return std::make_shared<quorum::SingletonSystem>(66, 65);
}
std::shared_ptr<const QuorumSystem> make_set_system() {
  return std::make_shared<quorum::SetSystem>(
      quorum::SetSystem::all_subsets(7, 4));
}
std::shared_ptr<const QuorumSystem> make_random_subset() {
  return std::make_shared<core::RandomSubsetSystem>(130, 27);
}

// One run's quorums op by op next to the oracle's draws for the same ops,
// how many servers answered each op, and where each stream ends.
struct Trace {
  std::vector<quorum::Quorum> drawn;
  std::vector<quorum::Quorum> oracle;
  std::vector<std::uint32_t> answered;  // acks or replies
  std::uint64_t rng_tail = 0;           // next draw from the cluster rng
  std::uint64_t oracle_tail = 0;        // next draw from the oracle copy
};

Trace run_instant(const std::shared_ptr<const QuorumSystem>& sys,
                  std::uint64_t seed, int pairs, const FaultPlan* faults) {
  InstantCluster::Config cfg;
  cfg.quorums = sys;
  cfg.seed = seed;
  auto cluster = faults != nullptr
                     ? std::make_unique<InstantCluster>(cfg, *faults)
                     : std::make_unique<InstantCluster>(cfg);
  // The servers forked their private streams during construction, so the
  // copy starts exactly where the first quorum draw does.
  math::Rng oracle = cluster->rng();
  Trace trace;
  WriteResult w;
  ReadResult r;
  for (int i = 0; i < pairs; ++i) {
    cluster->write_into(w, /*variable=*/1 + (i % 3), /*value=*/i);
    trace.drawn.push_back(w.quorum);
    trace.oracle.push_back(sys->sample(oracle));
    trace.answered.push_back(w.acks);
    cluster->read_into(r, 1 + (i % 3));
    trace.drawn.push_back(r.quorum);
    trace.oracle.push_back(sys->sample(oracle));
    trace.answered.push_back(r.replies);
  }
  trace.rng_tail = cluster->rng().next();
  trace.oracle_tail = oracle.next();
  return trace;
}

// Checks a trace op by op: the drawn quorum is the oracle's, and exactly
// its members that are neither crashed nor suppressing answered.
void expect_matches_oracle(const Trace& trace, const FaultPlan& plan,
                           const std::string& where) {
  ASSERT_EQ(trace.drawn.size(), trace.oracle.size()) << where;
  for (std::size_t i = 0; i < trace.drawn.size(); ++i) {
    ASSERT_EQ(trace.drawn[i], trace.oracle[i]) << where << " op=" << i;
    std::uint32_t answering = 0;
    for (const auto u : trace.drawn[i]) {
      const FaultMode mode = plan.mode(u);
      answering += mode != FaultMode::kCrash && mode != FaultMode::kSuppress;
    }
    ASSERT_EQ(trace.answered[i], answering) << where << " op=" << i;
  }
  EXPECT_EQ(trace.rng_tail, trace.oracle_tail)
      << where << " diverged in rng consumption";
}

class ProtocolDrawEquivalence
    : public ::testing::TestWithParam<SystemFactory> {};

// One shard per seed — the shards execute concurrently on a worker pool
// (self-contained state, so scheduling cannot matter) at 1 and 8 shards.
TEST_P(ProtocolDrawEquivalence, InstantClusterShardsMatch) {
  const auto sys = GetParam()();
  const FaultPlan all_correct(sys->universe_size());
  for (const std::uint32_t shards : {1u, 8u}) {
    std::vector<Trace> traces(shards);
    util::WorkerPool pool(4);
    pool.run(shards, [&](std::uint64_t s) {
      traces[s] = run_instant(sys, /*seed=*/17 + 1000003 * s, /*pairs=*/40,
                              nullptr);
    });
    for (std::uint32_t s = 0; s < shards; ++s) {
      expect_matches_oracle(traces[s], all_correct,
                            sys->name() + " shards=" + std::to_string(shards) +
                                " shard=" + std::to_string(s));
    }
  }
}

// Faults change who answers, never what is drawn: crashed members stay
// silent, and the forger consumes only its private rng.
TEST_P(ProtocolDrawEquivalence, InstantClusterMatchesUnderFaults) {
  const auto sys = GetParam()();
  const std::uint32_t n = sys->universe_size();
  FaultPlan plan = FaultPlan::prefix(n, n / 8, FaultMode::kCrash);
  plan.set_mode(n - 1, FaultMode::kForge);
  expect_matches_oracle(run_instant(sys, 23, /*pairs=*/60, &plan), plan,
                        sys->name());
}

INSTANTIATE_TEST_SUITE_P(AllConstructions, ProtocolDrawEquivalence,
                         ::testing::Values(&make_threshold, &make_grid,
                                           &make_wall, &make_weighted,
                                           &make_singleton, &make_set_system,
                                           &make_random_subset));

}  // namespace
}  // namespace pqs::replica
