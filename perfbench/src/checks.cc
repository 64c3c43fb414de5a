#include "checks.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "math/chernoff.h"
#include "trace.h"

namespace perfbench {

namespace {

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

Verdict check_exactly_once(std::uint64_t sent, std::uint64_t answered,
                           std::uint64_t applied, std::uint64_t submitted) {
  Verdict v{"exactly_once", sent == answered && applied == submitted, ""};
  v.detail = "sent " + std::to_string(sent) + ", answered " +
             std::to_string(answered) + ", applied " + std::to_string(applied) +
             ", submitted " + std::to_string(submitted);
  return v;
}

double stale_bound(double epsilon, std::uint64_t reads, double false_failure) {
  const double mu = epsilon * static_cast<double>(reads);
  if (mu <= 0.0) return 0.0;
  // Start from the closed-form solution of whichever branch of the bound
  // applies, then widen until math::chernoff_upper itself agrees.
  const double small_branch = std::sqrt(4.0 * std::log(1.0 / false_failure) / mu);
  double gamma = small_branch <= 2.0 * std::exp(1.0) - 1.0
                     ? small_branch
                     : std::log2(1.0 / false_failure) / mu - 1.0;
  gamma = std::max(gamma, 1e-6);
  while (pqs::math::chernoff_upper(mu, gamma) > false_failure) gamma *= 1.01;
  return (1.0 + gamma) * mu;
}

Verdict check_stale(std::uint64_t stale, std::uint64_t reads, double epsilon) {
  const double bound = stale_bound(epsilon, reads);
  Verdict v{"stale_within_epsilon", static_cast<double>(stale) <= bound, ""};
  v.detail = "stale " + std::to_string(stale) + " of " + std::to_string(reads) +
             " reads" + format("; bound %.1f (epsilon %.4e)", bound, epsilon);
  return v;
}

Verdict check_wilson(const std::string& name, const pqs::math::Proportion& p,
                     double exact, double z) {
  const auto interval = p.wilson(z);
  Verdict v{"wilson_" + name, p.trials() > 0 && interval.contains(exact), ""};
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "estimate %.6f over %llu trials, interval [%.6f, %.6f], "
                "closed form %.6f",
                p.estimate(), static_cast<unsigned long long>(p.trials()),
                interval.lo, interval.hi, exact);
  v.detail = buf;
  return v;
}

Verdict check_aggregates_equal(
    const std::vector<pqs::serve::ShardAggregate>& a,
    const std::vector<pqs::serve::ShardAggregate>& b) {
  Verdict v{"shard_aggregates_match_in_process", a.size() == b.size(), ""};
  std::size_t mismatched = 0;
  for (std::size_t s = 0; v.ok && s < a.size(); ++s) {
    if (!(a[s] == b[s])) ++mismatched;
  }
  v.ok = v.ok && mismatched == 0;
  v.detail = std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
             " shards, " + std::to_string(mismatched) + " mismatched";
  return v;
}

bool all_ok(const std::vector<Verdict>& verdicts) {
  for (const auto& v : verdicts) {
    if (!v.ok) return false;
  }
  return true;
}

StallWatchdog::StallWatchdog(double timeout_s, std::function<Counts()> counts)
    : last_kick_ns_(now_ns()) {
  const auto timeout_ns = static_cast<std::uint64_t>(timeout_s * 1e9);
  thread_ = std::thread([this, timeout_s, timeout_ns, counts = std::move(counts)] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      wake_.wait_for(lock, std::chrono::milliseconds(20));
      const std::uint64_t last = last_kick_ns_.load(std::memory_order_relaxed);
      if (stop_ || now_ns() < last + timeout_ns) continue;
      const Counts c = counts();
      const std::uint64_t unmatched =
          c.sent > c.answered ? c.sent - c.answered : c.answered - c.sent;
      std::printf("# check %-34s FAIL  no progress for %g s: sent %llu, "
                  "answered %llu\n",
                  "exactly_once", timeout_s,
                  static_cast<unsigned long long>(c.sent),
                  static_cast<unsigned long long>(c.answered));
      std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {}}\n",
                  static_cast<unsigned long long>(std::max<std::uint64_t>(1, c.sent)),
                  static_cast<unsigned long long>(
                      std::max<std::uint64_t>(1, unmatched)));
      std::fflush(stdout);
      std::_Exit(1);
    }
  });
}

StallWatchdog::~StallWatchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void StallWatchdog::kick() {
  last_kick_ns_.store(now_ns(), std::memory_order_relaxed);
}

}  // namespace perfbench
