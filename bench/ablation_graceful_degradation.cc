// Ablation: graceful degradation (Section 4.2, second remark).
//
// "Even if the fraction of Byzantine faults that may occur is not known, it
// is possible to use this construction ... the actual intersection
// probability will be better if fewer Byzantine faults actually occur."
//
// We fix the dissemination system sized for b_max = n/4 and sweep the
// *actual* number of faulty servers f = 0..b_max, printing the exact
// epsilon and the staleness rate measured by running the full protocol with
// f stale-replaying servers.
#include <iostream>
#include <memory>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "replica/instant_cluster.h"
#include "serve/shard.h"
#include "util/table.h"

int main() {
  using namespace pqs;

  const std::uint32_t n = 100;
  const std::uint32_t b_max = 25;
  const auto sys = core::RandomSubsetSystem::dissemination(n, b_max, 1e-3);

  util::banner(std::cout,
               "Ablation: graceful degradation of " + sys.name() +
                   " as actual faults f <= b_max vary");

  util::TextTable t({"actual faults f", "exact eps(f)", "measured staleness",
                     "trials"});
  for (std::uint32_t f = 0; f <= b_max; f += 5) {
    replica::InstantCluster::Config cfg;
    cfg.quorums = std::make_shared<core::RandomSubsetSystem>(sys);
    cfg.mode = replica::ReadMode::kDissemination;
    cfg.seed = 100 + f;
    serve::Shard shard(std::make_unique<replica::InstantCluster>(
        cfg,
        replica::FaultPlan::prefix(n, f, replica::FaultMode::kStaleReplay)));
    constexpr std::uint64_t kPairs = 100000;
    const serve::PairCounts run = serve::write_read_pairs(shard, kPairs);
    t.row()
        .cell(static_cast<std::size_t>(f))
        .cell_sci(core::dissemination_epsilon_exact(n, sys.quorum_size(), f), 3)
        .cell_sci(static_cast<double>(run.stale) / kPairs, 3)
        .cell(static_cast<long long>(kPairs));
  }
  t.print(std::cout);

  std::cout
      << "\nReading: the consistency guarantee tightens by orders of\n"
         "magnitude as the actual fault count drops below the provisioned\n"
         "b_max, with measured staleness tracking the exact eps(f) curve.\n";
  return 0;
}
