#include "quorum/threshold.h"

#include "util/require.h"

namespace pqs::quorum {

ThresholdSystem::ThresholdSystem(std::uint32_t n, std::uint32_t q)
    : UniformSubsetSystem(n, q) {
  PQS_REQUIRE(2 * q > n, "threshold system requires 2q > n for intersection");
}

ThresholdSystem ThresholdSystem::majority(std::uint32_t n) {
  return ThresholdSystem(n, (n + 2) / 2);  // ceil((n+1)/2)
}

ThresholdSystem ThresholdSystem::dissemination(std::uint32_t n,
                                               std::uint32_t b) {
  PQS_REQUIRE(3 * b <= n - 1, "strict dissemination requires b <= (n-1)/3");
  return ThresholdSystem(n, (n + b + 2) / 2);  // ceil((n+b+1)/2)
}

ThresholdSystem ThresholdSystem::masking(std::uint32_t n, std::uint32_t b) {
  PQS_REQUIRE(4 * b <= n - 1, "strict masking requires b <= (n-1)/4");
  return ThresholdSystem(n, (n + 2 * b + 2) / 2);  // ceil((n+2b+1)/2)
}

std::string ThresholdSystem::name() const {
  return "threshold(n=" + std::to_string(n_) + ",q=" + std::to_string(q_) +
         ")";
}

}  // namespace pqs::quorum
