// Workload generation: keys, skew, and operation mixes.
//
// The bench harness drives the replicated-variable protocols with synthetic
// workloads: a key (variable) distribution — uniform or Zipfian, since
// realistic register workloads are skewed — and a read/write mix. The
// runner measures what the paper's analysis predicts: per-server access
// frequencies (whose maximum is the induced load L_w) and the staleness
// rate of non-concurrent reads (epsilon).
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.h"
#include "replica/instant_cluster.h"

namespace pqs::workload {

// Zipf(s) over ranks 1..n: P(rank r) ∝ 1/r^s. s = 0 is uniform. Sampling
// by inverse transform over the precomputed CDF (O(log n) per draw).
class ZipfianKeys {
 public:
  ZipfianKeys(std::uint64_t keys, double exponent);

  std::uint64_t keys() const { return static_cast<std::uint64_t>(cdf_.size()); }
  double exponent() const { return exponent_; }

  // Draws a key in [1, keys] (rank order: key 1 is the hottest).
  std::uint64_t sample(math::Rng& rng) const;

  // Exact probability of a given key (1-based rank).
  double probability(std::uint64_t key) const;

 private:
  double exponent_;
  std::vector<double> cdf_;
};

struct WorkloadSpec {
  std::uint64_t keys = 64;
  double zipf_exponent = 0.0;   // 0 = uniform
  double read_fraction = 0.5;   // remainder are writes
  std::uint64_t operations = 100000;
};

struct WorkloadReport {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stale_reads = 0;   // read != last completed write, per key
  std::uint64_t empty_reads = 0;   // ⊥ or never-written key
  std::vector<std::uint64_t> server_accesses;  // per-server message count

  double stale_rate() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(stale_reads) /
                            static_cast<double>(reads);
  }
  // Max per-server access frequency over total quorum accesses — the
  // empirical induced load.
  double measured_load() const;
};

// Runs `spec` against the cluster: each operation picks a key from the
// Zipfian distribution and is a read with probability read_fraction, else
// a write of a fresh value. Reads are checked against the last value this
// runner wrote to that key (non-concurrent by construction).
WorkloadReport run_workload(replica::InstantCluster& cluster,
                            const WorkloadSpec& spec, math::Rng& rng);

// In-place variant: `report` is reset and refilled, and operations run
// through the cluster's write_into/read_into so result scratch is reused
// across the whole loop. The steady-state op loop performs no allocation
// (the per-key last-written map stops growing once every key has been
// written). Same draws, same counters as run_workload for any fixed rng
// state.
void run_workload_into(replica::InstantCluster& cluster,
                       const WorkloadSpec& spec, math::Rng& rng,
                       WorkloadReport& report);

}  // namespace pqs::workload
