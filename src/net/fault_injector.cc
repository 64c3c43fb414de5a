#include "net/fault_injector.h"

namespace pqs::net {

FaultInjector::FaultInjector(Config config)
    : config_(config), rng_(config.seed) {}

void FaultInjector::set_action(std::uint64_t conn_id, FaultAction action) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (action == FaultAction::kNone) {
    overrides_.erase(conn_id);
  } else {
    overrides_[conn_id] = action;
  }
}

FaultAction FaultInjector::on_response(std::uint64_t conn_id) {
  FaultAction action = FaultAction::kNone;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = overrides_.find(conn_id);
    if (it != overrides_.end()) {
      action = it->second;
    } else if (config_.reset_prob > 0.0 && rng_.chance(config_.reset_prob)) {
      action = FaultAction::kReset;
    } else if (config_.stall_prob > 0.0 && rng_.chance(config_.stall_prob)) {
      action = FaultAction::kStall;
    } else if (config_.truncate_prob > 0.0 &&
               rng_.chance(config_.truncate_prob)) {
      action = FaultAction::kTruncate;
    } else if (config_.delay_prob > 0.0 && rng_.chance(config_.delay_prob)) {
      action = FaultAction::kDelay;
    }
  }
  switch (action) {
    case FaultAction::kReset: resets_.fetch_add(1); break;
    case FaultAction::kStall: stalls_.fetch_add(1); break;
    case FaultAction::kTruncate: truncates_.fetch_add(1); break;
    case FaultAction::kDelay: delays_.fetch_add(1); break;
    case FaultAction::kNone: break;
  }
  return action;
}

}  // namespace pqs::net
