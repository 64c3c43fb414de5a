#include "quorum/quorum_system.h"

namespace pqs::quorum {

Quorum QuorumSystem::sample(math::Rng& rng) const {
  Quorum q;
  sample_into(q, rng);
  return q;
}

void QuorumSystem::sample_masks(QuorumBitset* out, std::size_t count,
                                math::Rng& rng) const {
  for (std::size_t i = 0; i < count; ++i) sample_mask(out[i], rng);
}

}  // namespace pqs::quorum
