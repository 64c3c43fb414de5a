// Threshold (voting) quorum systems.
//
// The classic strict construction: quorums are all subsets of size q with
// 2q > n, accessed uniformly at random. Its draws and measures are
// UniformSubsetSystem's, shared with the paper's R(n, q). Includes the
// Byzantine variants of Malkhi & Reiter [MR98a] used as baselines
// throughout Section 6:
//   majority:            q = ceil((n+1)/2)      (pairwise intersection >= 1)
//   b-dissemination:     q = ceil((n+b+1)/2)    (intersection >= b+1)
//   b-masking:           q = ceil((n+2b+1)/2)   (intersection >= 2b+1)
#pragma once

#include <cstdint>
#include <string>

#include "quorum/uniform_subset.h"

namespace pqs::quorum {

class ThresholdSystem final : public UniformSubsetSystem {
 public:
  // Quorums are all q-subsets of an n-universe. Requires 1 <= q <= n and
  // 2q > n (so that the system is a strict quorum system).
  ThresholdSystem(std::uint32_t n, std::uint32_t q);

  // Factories for the standard instantiations. Each validates the
  // resilience precondition from Table 1 (b <= (n-1)/3 for dissemination,
  // b <= (n-1)/4 for masking).
  static ThresholdSystem majority(std::uint32_t n);
  static ThresholdSystem dissemination(std::uint32_t n, std::uint32_t b);
  static ThresholdSystem masking(std::uint32_t n, std::uint32_t b);

  std::string name() const override;

  // Guaranteed |Q ∩ Q'| >= 2q - n for any two quorums.
  std::uint32_t min_pairwise_intersection() const { return 2 * q_ - n_; }
};

}  // namespace pqs::quorum
