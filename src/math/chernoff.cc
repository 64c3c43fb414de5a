#include "math/chernoff.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace pqs::math {

double chernoff_upper(double mu, double gamma) {
  PQS_REQUIRE(mu >= 0.0, "chernoff mu");
  PQS_REQUIRE(gamma > 0.0, "chernoff gamma");
  constexpr double kTwoEMinusOne = 2.0 * 2.718281828459045 - 1.0;
  double bound;
  if (gamma <= kTwoEMinusOne) {
    bound = std::exp(-mu * gamma * gamma / 4.0);
  } else {
    bound = std::exp2(-(1.0 + gamma) * mu);
  }
  return std::min(1.0, bound);
}

double chernoff_margin(double mu) {
  PQS_REQUIRE(mu > 0.0, "chernoff mu");
  return std::sqrt(4.0 * std::log(2e9) / mu);
}

ChernoffAcceptance chernoff_acceptance(std::uint64_t trials, double rate) {
  PQS_REQUIRE(trials > 0 && rate >= 0.0, "chernoff trials and rate");
  if (rate == 0.0) return {};
  const double mu = static_cast<double>(trials) * rate;
  const double gamma = chernoff_margin(mu);
  return {(1.0 + gamma) * mu, (1.0 + gamma) * rate,
          chernoff_upper(mu, gamma) <= 1e-9};
}

double chernoff_lower(double mu, double delta) {
  PQS_REQUIRE(mu >= 0.0, "chernoff mu");
  PQS_REQUIRE(delta >= 0.0 && delta <= 1.0, "chernoff delta");
  return std::min(1.0, std::exp(-mu * delta * delta / 2.0));
}

double failure_probability_bound(std::int64_t n, std::int64_t q, double p) {
  const double nn = static_cast<double>(n);
  const double gap = 1.0 - static_cast<double>(q) / nn - p;
  if (gap <= 0.0) return 1.0;
  return std::min(1.0, std::exp(-2.0 * nn * gap * gap));
}

}  // namespace pqs::math
