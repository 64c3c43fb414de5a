// All q-subsets of an n-universe under the uniform access strategy.
//
// One set system and strategy serves two roles in the paper: the strict
// threshold systems of Section 6's baselines (majority and its Byzantine
// variants, which add 2q > n) and the probabilistic construction R(n, q)
// of Definition 3.13. Both derive from this class, so every draw and
// measure of the construction exists once. By symmetry every server
// carries load q/n, every quorum is high quality, the fault tolerance is
// n - q + 1, and some quorum is fully alive iff at least q servers are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quorum/quorum_system.h"

namespace pqs::quorum {

class UniformSubsetSystem : public QuorumSystem {
 public:
  std::uint32_t universe_size() const final { return n_; }
  void sample_into(Quorum& out, math::Rng& rng) const final;
  void sample_mask(QuorumBitset& out, math::Rng& rng) const final;
  void sample_masks(QuorumBitset* out, std::size_t count,
                    math::Rng& rng) const final;
  std::uint32_t min_quorum_size() const final { return q_; }
  double load() const final;
  std::uint32_t fault_tolerance() const final { return n_ - q_ + 1; }
  double failure_probability(double p) const final;
  bool has_live_quorum(const std::vector<bool>& alive) const final;
  bool has_live_quorum_mask(const QuorumBitset& alive) const final;

 protected:
  // Requires n >= 1 and 1 <= q <= n.
  UniformSubsetSystem(std::uint32_t n, std::uint32_t q);

  std::uint32_t n_;
  std::uint32_t q_;
};

}  // namespace pqs::quorum
