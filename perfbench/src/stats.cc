#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::uint64_t nearest_rank(double p, std::uint64_t n) {
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(n)));
  return std::min(std::max<std::uint64_t>(rank, 1), n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(p, values.size()) - 1];
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = nearest_rank(25.0, values.size()) - 1;
  const std::size_t hi = nearest_rank(75.0, values.size());
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double interpolated_percentile(const pqs::stats::LatencyHistogram& h,
                               double p) {
  using pqs::stats::LatencyHistogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  // value_at_percentile(q) answers for rank ceil(q/100 * n); asking for
  // (rank - 0.5) / n lands on exactly `rank`.
  const auto bucket_at = [&](std::uint64_t rank) {
    const double q = (static_cast<double>(rank) - 0.5) * 100.0 /
                     static_cast<double>(n);
    return LatencyHistogram::index_of(h.value_at_percentile(q));
  };
  const std::uint64_t rank = nearest_rank(p, n);
  const std::size_t bucket = bucket_at(rank);
  std::uint64_t lo = 1, hi = rank;  // first rank in `bucket`
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_at(mid) < bucket) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = rank;
  hi = n;  // last rank in `bucket`
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_at(mid) > bucket) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const auto low = static_cast<double>(LatencyHistogram::bucket_low(bucket));
  const auto width =
      static_cast<double>(LatencyHistogram::bucket_width(bucket));
  if (width == 1.0) return low;  // unit buckets hold one exact value
  const double position = (static_cast<double>(rank - first) + 0.5) /
                          static_cast<double>(last - first + 1);
  return low + width * position;
}

}  // namespace perfbench
