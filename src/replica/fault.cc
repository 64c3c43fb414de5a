#include "replica/fault.h"

#include "util/require.h"

namespace pqs::replica {

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::kCorrect: return "correct";
    case FaultMode::kCrash: return "crash";
    case FaultMode::kSuppress: return "suppress";
    case FaultMode::kStaleReplay: return "stale-replay";
    case FaultMode::kForge: return "forge";
    case FaultMode::kCollude: return "collude";
  }
  return "?";
}

crypto::SignedRecord ColludePlan::forged(VariableId variable) const {
  crypto::SignedRecord r;
  r.variable = variable;
  r.value = value;
  r.timestamp = timestamp;
  r.writer = 0;
  r.tag = tag;
  return r;
}

FaultPlan::FaultPlan(std::uint32_t n) : modes_(n, FaultMode::kCorrect) {
  PQS_REQUIRE(n >= 1, "fault plan universe");
}

FaultPlan FaultPlan::prefix(std::uint32_t n, std::uint32_t count,
                            FaultMode mode) {
  PQS_REQUIRE(count <= n, "more faults than servers");
  FaultPlan plan(n);
  for (std::uint32_t i = 0; i < count; ++i) plan.modes_[i] = mode;
  return plan;
}

void FaultPlan::set_mode(std::uint32_t server, FaultMode mode) {
  PQS_REQUIRE(server < modes_.size(), "server id");
  modes_[server] = mode;
}

}  // namespace pqs::replica
