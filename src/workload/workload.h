// Workload generation: key popularity.
//
// Synthetic workloads pick a key (variable) from a uniform or Zipfian
// distribution, since realistic register workloads are skewed. The
// operation stream built on it is workload::OpenLoopGenerator
// (open_loop.h); serve::Shard applies the operations.
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.h"

namespace pqs::workload {

// Zipf(s) over ranks 1..n: P(rank r) ∝ 1/r^s. s = 0 is uniform. Sampling
// by inverse transform over the precomputed CDF (O(log n) per draw).
class ZipfianKeys {
 public:
  ZipfianKeys(std::uint64_t keys, double exponent);

  // Draws a key in [1, keys] (rank order: key 1 is the hottest).
  std::uint64_t sample(math::Rng& rng) const;

  // Exact probability of a given key (1-based rank).
  double probability(std::uint64_t key) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace pqs::workload
