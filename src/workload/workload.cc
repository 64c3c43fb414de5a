#include "workload/workload.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace pqs::workload {

ZipfianKeys::ZipfianKeys(std::uint64_t keys, double exponent) {
  PQS_REQUIRE(keys >= 1, "zipfian needs keys");
  PQS_REQUIRE(exponent >= 0.0, "zipfian exponent");
  cdf_.resize(keys);
  double total = 0.0;
  for (std::uint64_t r = 1; r <= keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), exponent);
    cdf_[r - 1] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::uint64_t ZipfianKeys::sample(math::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

double ZipfianKeys::probability(std::uint64_t key) const {
  PQS_REQUIRE(key >= 1 && key <= cdf_.size(), "key out of range");
  const double hi = cdf_[key - 1];
  const double lo = key >= 2 ? cdf_[key - 2] : 0.0;
  return hi - lo;
}

}  // namespace pqs::workload
