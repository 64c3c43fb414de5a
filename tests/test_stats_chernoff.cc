#include <cmath>

#include <gtest/gtest.h>

#include "math/binomial.h"
#include "math/chernoff.h"
#include "math/rng.h"
#include "math/stats.h"

namespace pqs::math {
namespace {

TEST(OnlineStats, MeanVarianceKnownData) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.std_error(), 0.0);
}

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.std_error(), 0.0);
}

TEST(Proportion, EstimateAndCounts) {
  Proportion p;
  p.add(true);
  p.add(false);
  p.add(true);
  p.add(true);
  EXPECT_EQ(p.trials(), 4u);
  EXPECT_EQ(p.successes(), 3u);
  EXPECT_DOUBLE_EQ(p.estimate(), 0.75);
}

TEST(Proportion, BulkAdd) {
  Proportion p;
  p.add(30, 100);
  EXPECT_DOUBLE_EQ(p.estimate(), 0.3);
  EXPECT_THROW(p.add(5, 4), std::invalid_argument);
}

TEST(Proportion, WilsonCoversTruth) {
  // Simulate Bernoulli(0.2); the 3.89-sigma Wilson interval should contain
  // 0.2 essentially always.
  Rng rng(61);
  Proportion p;
  for (int i = 0; i < 50000; ++i) p.add(rng.chance(0.2));
  const auto ci = p.wilson(3.89);
  EXPECT_TRUE(ci.contains(0.2)) << "[" << ci.lo << "," << ci.hi << "]";
  EXPECT_LT(ci.hi - ci.lo, 0.03);
}

TEST(Proportion, WilsonDegenerate) {
  Proportion p;
  const auto ci = p.wilson(2.0);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_DOUBLE_EQ(ci.hi, 1.0);
  Proportion zero;
  zero.add(0, 100);
  const auto ci0 = zero.wilson(3.0);
  EXPECT_DOUBLE_EQ(ci0.lo, 0.0);
  EXPECT_GT(ci0.hi, 0.0);
  EXPECT_LT(ci0.hi, 0.2);
}

TEST(Chernoff, UpperBoundsBinomialTail) {
  // The bound must dominate the exact binomial tail it bounds.
  const std::int64_t n = 200;
  const double p = 0.1;
  const double mu = n * p;
  for (double gamma : {0.5, 1.0, 2.0, 5.0}) {
    const auto k = static_cast<std::int64_t>(std::ceil((1.0 + gamma) * mu));
    const double exact = binomial_upper_tail(n, p, k + 1);  // P(X > (1+g)mu)
    EXPECT_LE(exact, chernoff_upper(mu, gamma) + 1e-12) << "gamma=" << gamma;
  }
}

TEST(Chernoff, MarginReachesTheGateTarget) {
  // The conformance gates' margin lands the exp branch at 1 / (2e9), and
  // their acceptance rule takes (1 + margin) mu events, certified.
  for (double mu : {4.36, 10.0, 1e3, 1e6}) {
    const double gamma = chernoff_margin(mu);
    EXPECT_LE(gamma, 2.0 * std::exp(1.0) - 1.0) << "mu=" << mu;
    EXPECT_NEAR(chernoff_upper(mu, gamma), 0.5e-9, 1e-15) << "mu=" << mu;
    const ChernoffAcceptance accept = chernoff_acceptance(1000, mu / 1000);
    EXPECT_DOUBLE_EQ(accept.count, (1.0 + gamma) * mu) << "mu=" << mu;
    EXPECT_DOUBLE_EQ(accept.rate, (1.0 + gamma) * mu / 1000) << "mu=" << mu;
    EXPECT_TRUE(accept.certified) << "mu=" << mu;
  }
  // Below mu = 4.35 no margin reaches 1e-9; a zero rate accepts nothing.
  EXPECT_FALSE(chernoff_acceptance(1000, 0.004).certified);
  const ChernoffAcceptance zero = chernoff_acceptance(1000, 0.0);
  EXPECT_TRUE(zero.certified && zero.count == 0.0 && zero.rate == 0.0);
}

TEST(Chernoff, LowerBoundsBinomialTail) {
  const std::int64_t n = 200;
  const double p = 0.4;
  const double mu = n * p;
  for (double delta : {0.2, 0.5, 0.8}) {
    const auto k =
        static_cast<std::int64_t>(std::floor((1.0 - delta) * mu));
    const double exact = binomial_lower_tail(n, p, k - 1);  // P(X < (1-d)mu)
    EXPECT_LE(exact, chernoff_lower(mu, delta) + 1e-12) << "delta=" << delta;
  }
}

TEST(Chernoff, CappedAtOne) {
  EXPECT_LE(chernoff_upper(0.001, 0.001), 1.0);
  EXPECT_LE(chernoff_lower(0.001, 0.001), 1.0);
}

TEST(FailureProbabilityBound, DominatesExactTail) {
  // e^{-2n(1 - q/n - p)^2} >= P(#fail > n - q) whenever p < 1 - q/n.
  for (std::int64_t n : {100, 300, 900}) {
    const std::int64_t q = static_cast<std::int64_t>(2.5 * std::sqrt(double(n)));
    for (double p = 0.05; p < 1.0 - double(q) / n; p += 0.1) {
      const double exact = binomial_upper_tail(n, p, n - q + 1);
      EXPECT_LE(exact, failure_probability_bound(n, q, p) + 1e-12)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(FailureProbabilityBound, OneOutsideValidity) {
  EXPECT_DOUBLE_EQ(failure_probability_bound(100, 30, 0.8), 1.0);
}

}  // namespace
}  // namespace pqs::math
