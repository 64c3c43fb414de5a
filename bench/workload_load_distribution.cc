// Workload study: induced load and staleness across quorum constructions.
//
// Drives the same Zipf-skewed read/write workload through every
// construction in the library at n = 100 and reports (a) the measured
// per-server max access frequency — which must converge to the analytic
// load L_w regardless of key skew, since quorum choice is key-independent
// — and (b) the measured stale-read rate vs the construction's epsilon
// (0 for the strict baselines).
#include <iostream>
#include <memory>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "quorum/grid.h"
#include "quorum/threshold.h"
#include "quorum/wall.h"
#include "quorum/weighted.h"
#include "serve/shard.h"
#include "util/table.h"
#include "workload/open_loop.h"

int main() {
  using namespace pqs;

  util::banner(std::cout,
               "Workload: Zipf(1.0) keys, 50/50 read-write, 200k ops, "
               "n = 100");

  struct Entry {
    std::string label;
    std::shared_ptr<const quorum::QuorumSystem> system;
    double epsilon;
  };
  std::vector<Entry> entries;
  {
    const auto r = core::RandomSubsetSystem::intersecting(100, 1e-3);
    entries.push_back({"R(100,23) eps-intersecting",
                       std::make_shared<core::RandomSubsetSystem>(r),
                       r.epsilon()});
    const core::RandomSubsetSystem coarse(100, 12);
    entries.push_back({"R(100,12) coarse",
                       std::make_shared<core::RandomSubsetSystem>(coarse),
                       coarse.epsilon()});
    entries.push_back({"majority threshold",
                       std::make_shared<quorum::ThresholdSystem>(
                           quorum::ThresholdSystem::majority(100)),
                       0.0});
    entries.push_back({"grid 10x10",
                       std::make_shared<quorum::GridSystem>(
                           quorum::GridSystem::square(100)),
                       0.0});
    entries.push_back({"wall 4x25",
                       std::make_shared<quorum::WallSystem>(
                           quorum::WallSystem::uniform(4, 25)),
                       0.0});
    std::vector<std::uint32_t> votes(100, 1);
    for (int i = 0; i < 10; ++i) votes[i] = 5;  // ten heavy servers
    entries.push_back({"weighted (10 heavy)",
                       std::make_shared<quorum::WeightedVotingSystem>(
                           quorum::WeightedVotingSystem(votes, 71)),
                       0.0});
  }

  util::TextTable t({"system", "analytic load", "measured load",
                     "analytic eps", "measured stale rate"});
  std::uint64_t seed = 1;
  for (const auto& e : entries) {
    replica::InstantCluster::Config cfg;
    cfg.quorums = e.system;
    cfg.seed = seed++;
    serve::Shard shard(std::make_unique<replica::InstantCluster>(cfg));
    workload::OpenLoopSpec spec;
    spec.keys = 64;
    spec.zipf_exponent = 1.0;
    spec.read_fraction = 0.5;
    workload::OpenLoopGenerator gen(spec, 42 + seed);
    serve::run_closed_loop(shard, gen, 200000);
    const serve::ShardAggregate counts = shard.aggregate();
    t.row()
        .cell(e.label)
        .cell(e.system->load(), 3)
        .cell(shard.profile().max_load(), 3)
        .cell_sci(e.epsilon, 2)
        .cell_sci(static_cast<double>(counts.stale_reads) /
                      static_cast<double>(counts.reads),
                  2);
  }
  t.print(std::cout);

  std::cout
      << "\nReading: measured load matches the analytic L_w for every\n"
         "construction (key skew does not leak into server load, because\n"
         "quorum selection is key-independent); strict baselines show zero\n"
         "staleness while the probabilistic systems track their eps — the\n"
         "trade the paper quantifies: R(100,23) serves the same workload\n"
         "at less than half the majority system's per-server load.\n";
  return 0;
}
