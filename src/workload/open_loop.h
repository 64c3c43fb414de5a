// Open-loop load generation for the serving tier.
//
// A closed loop (serve::run_closed_loop) issues the next operation only
// after the previous one completes, so a slow server quietly throttles the
// offered load and the measured latencies say nothing about queueing. An
// *open-loop* generator fixes the arrival schedule up front: operation i
// is due at i * (1/rate) regardless of how the service is keeping up, and
// its latency is measured from that *scheduled* arrival time — the
// standard defense against coordinated omission (a stalled service
// accrues queueing delay on every operation that was due during the
// stall, instead of silently deferring them).
//
// The operation *content* stream (keys, read/write mix) is a pure
// function of the seed — the schedule only says when, never what — so
// a serving-tier run is bit-reproducible across worker counts, draw
// paths, and pacing rates.
#pragma once

#include <cstdint>

#include "math/rng.h"
#include "workload/workload.h"

namespace pqs::workload {

// One generated operation. scheduled_ns is the arrival deadline relative
// to the run's epoch (operation i at i * period); at rate 0 (unpaced,
// "as fast as possible") it is 0 for every operation and the driver
// stamps requests with the actual submit time instead.
struct Operation {
  std::uint64_t key = 0;
  std::int64_t value = 0;  // fresh value for writes, 0 for reads
  std::uint64_t scheduled_ns = 0;
  bool is_read = false;
};

struct OpenLoopSpec {
  std::uint64_t keys = 4096;
  double zipf_exponent = 0.0;  // 0 = uniform
  double read_fraction = 0.5;
  double arrival_rate = 0.0;  // ops/sec; 0 = unpaced

  // The YCSB core-workload mixes over a Zipfian(0.99) key popularity:
  // A = 50% reads / 50% updates, B = 95% reads, C = read-only.
  static OpenLoopSpec ycsb_a(std::uint64_t keys);
  static OpenLoopSpec ycsb_b(std::uint64_t keys);
  static OpenLoopSpec ycsb_c(std::uint64_t keys);
};

class OpenLoopGenerator {
 public:
  OpenLoopGenerator(const OpenLoopSpec& spec, std::uint64_t seed);

  const OpenLoopSpec& spec() const { return spec_; }

  // Fills `out` with the next operation: key from the popularity
  // distribution, read with probability read_fraction (writes carry a
  // strictly increasing fresh value), scheduled_ns from the fixed
  // arrival schedule. Allocation-free after construction.
  void next(Operation& out);

 private:
  OpenLoopSpec spec_;
  ZipfianKeys keys_;
  math::Rng rng_;
  double period_ns_ = 0.0;
  std::uint64_t generated_ = 0;
  std::int64_t next_value_ = 0;
};

}  // namespace pqs::workload
