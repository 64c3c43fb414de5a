#include "quorum/singleton.h"

#include "util/require.h"

namespace pqs::quorum {

SingletonSystem::SingletonSystem(std::uint32_t n, ServerId center)
    : n_(n), center_(center) {
  PQS_REQUIRE(n >= 1, "singleton universe size");
  PQS_REQUIRE(center < n, "singleton center in universe");
}

std::string SingletonSystem::name() const {
  return "singleton(n=" + std::to_string(n_) + ")";
}

void SingletonSystem::sample_into(Quorum& out, math::Rng&) const {
  out.clear();
  out.push_back(center_);
}

void SingletonSystem::sample_mask(QuorumBitset& out, math::Rng&) const {
  out.resize(n_);
  out.set(center_);
}

bool SingletonSystem::has_live_quorum(const std::vector<bool>& alive) const {
  return alive[center_];
}

bool SingletonSystem::has_live_quorum_mask(const QuorumBitset& alive) const {
  return alive.test(center_);
}

}  // namespace pqs::quorum
