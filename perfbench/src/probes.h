// Per-call timings of single layers, measured from outside by calling
// their public functions. Only the traced run calls these. Calls shorter
// than a microsecond are timed in batches: one span covers `calls`
// consecutive calls, and the reported figure is the median over batches
// of the per-call mean.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "quorum/quorum_system.h"
#include "trace.h"
#include "workload/open_loop.h"

namespace perfbench {

// Times `batches` batches of `calls` invocations of fn(i) (i counts all
// invocations), recording one span per batch under `name`; returns the
// median per-call nanoseconds. *total_calls, when given, gains the count.
template <typename F>
double time_batches(const char* name, std::uint32_t calls,
                    std::uint32_t batches, F&& fn,
                    std::uint64_t* total_calls = nullptr) {
  std::vector<double> per_call;
  per_call.reserve(batches);
  std::uint64_t i = 0;
  for (std::uint32_t b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t c = 0; c < calls; ++c) fn(i++);
    const std::uint64_t t1 = now_ns();
    if (Tracer::active() != nullptr) {
      Tracer::active()->record(name, -1, b, calls, t0, t1);
    }
    per_call.push_back(static_cast<double>(t1 - t0) / calls);
  }
  if (total_calls != nullptr) *total_calls += i;
  return percentile(per_call, 50.0);
}

// quorum.draw_ns (sample_mask) and quorum.sample_masks_ns (per mask, in
// 16-mask MaskBatch batches) on `system`.
void probe_quorum(const pqs::quorum::QuorumSystem& system, std::uint64_t seed,
                  Report& report);
// crypto.sign_ns and crypto.verify_ns.
void probe_crypto(std::uint64_t seed, Report& report);
// simd.* at mc_masking_n400's batch shapes through simd::active().
void probe_simd(std::uint32_t n, std::uint32_t b, double dead_p,
                std::uint64_t seed, Report& report);
// stats.record_ns over `values`.
void probe_stats_record(const std::vector<std::uint64_t>& values,
                        Report& report);
// workload.next_ns for `spec`.
void probe_workload_next(const pqs::workload::OpenLoopSpec& spec,
                         std::uint64_t seed, Report& report);
// The core and simd layers at mc_masking_n400's shapes, on a fresh
// two-thread estimator (pool thread on `pool`): core.*_ns_per_trial,
// core.parallel_efficiency.* (alternating calls on a one-thread engine),
// core.cpu_utilization of the two-thread calls, and the simd.* kernels.
void probe_estimators(std::uint64_t seed, const std::vector<int>& caller,
                      const std::vector<int>& pool, Report& report);
// net.frame.encode_ns and net.frame.decode_ns over request frames of `ops`.
void probe_frame_codec(const std::vector<pqs::workload::Operation>& ops,
                       Report& report);

}  // namespace perfbench
