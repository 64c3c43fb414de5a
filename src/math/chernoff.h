// The specific Chernoff/Hoeffding-style bounds the paper invokes.
//
// These are *bounds*, not exact probabilities; the benches use them to show
// how tight the paper's closed forms are against the exact log-domain
// computations in core/epsilon.cc, and the failure-probability analyses use
// the additive Hoeffding form exactly as in Sections 3.4 and 5.5.
#pragma once

#include <cstdint>

namespace pqs::math {

// Multiplicative upper-tail Chernoff bound for a sum of independent
// Bernoullis with mean mu, as quoted in the paper from [MR95, p. 72]:
//   P(X > (1+g) mu) <= exp(-mu g^2 / 4)      for 0 < g <= 2e-1,
//   P(X > (1+g) mu) <= 2^{-(1+g) mu}         for g > 2e-1.
double chernoff_upper(double mu, double gamma);

// The margin the conformance gates use: gamma = sqrt(4 ln(2e9) / mu), at
// which the exp branch above gives P(X > (1+gamma) mu) <= 1/(2e9) <= 1e-9
// (while gamma <= 2e-1, i.e. for mu >= 4.35).
double chernoff_margin(double mu);

// The conformance gates' acceptance rule for the count of an event that
// the null hypothesis bounds by Binomial(trials, rate): at most
// (1 + chernoff_margin(mu)) mu events, mu = trials * rate. `certified`
// says the bound puts the false-failure probability at or below 1e-9,
// which no margin does below mu = 4.35. A zero rate is a structural zero:
// the event must not occur at all.
struct ChernoffAcceptance {
  double count = 0.0;  // the largest event count accepted
  double rate = 0.0;   // the same bound per trial
  bool certified = true;
};
ChernoffAcceptance chernoff_acceptance(std::uint64_t trials, double rate);

// Multiplicative lower-tail bound: P(X < (1-d) mu) <= exp(-mu d^2 / 2),
// valid for 0 <= d <= 1.
double chernoff_lower(double mu, double delta);

// Additive Hoeffding bound used for crash failure probabilities:
//   P(#fail > n - q) <= exp(-2 n (1 - q/n - p)^2)  when p < 1 - q/n
// (Section 3.4). Returns 1.0 when the condition fails.
double failure_probability_bound(std::int64_t n, std::int64_t q, double p);

}  // namespace pqs::math
