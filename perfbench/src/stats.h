// Percentile arithmetic for the benchmark's reported timings.
//
// Latencies are recorded into stats::LatencyHistogram, which keeps about
// 32 buckets per power of two: a p50 read as a bucket midpoint moves in
// ~3% steps and can repeat bit-for-bit across runs. interpolated_percentile
// recovers the position inside the bucket from the histogram's public rank
// queries instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/latency_histogram.h"

namespace perfbench {

// Nearest-rank percentile of `values` (p in [0, 100]): the smallest value
// with at least ceil(p/100 * N) values at or below it. Copies and sorts.
double percentile(std::vector<double> values, double p);

// `values` as a JSON array with one decimal, for a run's metadata.
std::string json_numbers(const std::vector<double>& values);

// Mean of the middle half of `values` (the entries ranked between the
// first and third quartile, ends included by nearest rank): robust to the
// few slices a host stall ruins, yet smooth under the slow drift a
// median of slices jumps with.
double interquartile_mean(std::vector<double> values);

// Percentile of a library histogram with the position inside the bucket
// recovered: the ranks a bucket covers are found by binary search over
// value_at_percentile, and the answer is placed linearly inside the
// bucket at the requested rank (uniform-within-bucket assumption). Exact
// for values below 64 ns, within one bucket width (~3%) otherwise, and —
// unlike the bucket midpoint — it moves with every sample that changes
// the requested rank's position.
double interpolated_percentile(const pqs::stats::LatencyHistogram& h,
                               double p);

}  // namespace perfbench
