#include "replica/lock_service.h"

#include "util/require.h"

namespace pqs::replica {

LockService::Outcome LockService::try_acquire(VariableId lock,
                                              std::uint32_t owner) {
  PQS_REQUIRE(owner != 0, "owner id 0 means free");
  const auto state = cluster_.read(lock);
  if (state.selection.has_value && state.selection.record.value != 0) {
    ++rejections_;
    return Outcome::kAlreadyHeld;
  }
  cluster_.write(lock, static_cast<std::int64_t>(owner));
  return Outcome::kAcquired;
}

bool LockService::release(VariableId lock, std::uint32_t owner) {
  const auto state = cluster_.read(lock);
  if (!state.selection.has_value ||
      state.selection.record.value != static_cast<std::int64_t>(owner)) {
    return false;
  }
  cluster_.write(lock, 0);
  return true;
}

std::uint32_t LockService::holder(VariableId lock) {
  const auto state = cluster_.read(lock);
  if (!state.selection.has_value || state.selection.record.value < 0) {
    return 0;
  }
  return static_cast<std::uint32_t>(state.selection.record.value);
}

}  // namespace pqs::replica
