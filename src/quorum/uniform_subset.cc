#include "quorum/uniform_subset.h"

#include "math/sampling.h"
#include "quorum/measures.h"
#include "util/require.h"

namespace pqs::quorum {

UniformSubsetSystem::UniformSubsetSystem(std::uint32_t n, std::uint32_t q)
    : n_(n), q_(q) {
  PQS_REQUIRE(n >= 1, "universe size");
  PQS_REQUIRE(q >= 1 && q <= n, "quorum size");
}

void UniformSubsetSystem::sample_into(Quorum& out, math::Rng& rng) const {
  math::sample_without_replacement(n_, q_, rng, out);
}

void UniformSubsetSystem::sample_mask(QuorumBitset& out,
                                      math::Rng& rng) const {
  out.resize(n_);
  math::sample_without_replacement_bits(n_, q_, rng, out.word_data());
}

void UniformSubsetSystem::sample_masks(QuorumBitset* out, std::size_t count,
                                       math::Rng& rng) const {
  // One virtual call per batch; the fill itself is the non-virtual Floyd
  // draw, so the loop body is identical to sample_mask per element.
  for (std::size_t i = 0; i < count; ++i) {
    out[i].resize(n_);
    math::sample_without_replacement_bits(n_, q_, rng, out[i].word_data());
  }
}

double UniformSubsetSystem::load() const {
  // Every server appears in C(n-1, q-1) of the C(n, q) quorums, so the
  // uniform strategy induces load q/n on each, which attains the
  // Naor-Wool optimum for this set system.
  return static_cast<double>(q_) / static_cast<double>(n_);
}

double UniformSubsetSystem::failure_probability(double p) const {
  return size_based_failure_probability(n_, q_, p);
}

bool UniformSubsetSystem::has_live_quorum(
    const std::vector<bool>& alive) const {
  std::uint32_t count = 0;
  for (bool a : alive) count += a ? 1u : 0u;
  return count >= q_;
}

bool UniformSubsetSystem::has_live_quorum_mask(
    const QuorumBitset& alive) const {
  return alive.count() >= q_;
}

}  // namespace pqs::quorum
