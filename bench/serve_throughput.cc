// End-to-end serving-tier throughput and tail latency.
//
// Drives serve::KvService — N InstantCluster shards behind the lock-free
// request router — with workload::OpenLoopGenerator and reports ops/sec
// plus p50/p99/p999/max latency per section:
//
//   * a shard-count sweep {1, 4, 8} under uniform and Zipfian(0.99) key
//     popularity, unpaced (latency = pure service + queue time);
//   * the YCSB core mixes A/B/C at 4 shards;
//   * an offered-load sweep at 4 shards on ONE reused deployment, paced by
//     the open-loop arrival schedule, where latency is measured from each
//     request's *scheduled* arrival (coordinated-omission-safe) and each
//     rate point's traffic is reported as a stats::snapshot_delta of the
//     cluster's cumulative protocol counters.
//
// Every unpaced section is also a functional gate, replay.<section>: the
// per-shard aggregate counters (reads, writes, stale/empty reads,
// position-weighted access checksum) are a pure function of the request
// stream, so the bench re-runs each section with 1 and 8 shard-serving
// workers and exits nonzero unless all three runs agree shard by shard —
// and unless every submitted request was drained into the histogram.
//
// A global operator new/delete override (alloc_count.h) measures heap
// allocations across the timed window, so "allocs/op" is observed, not
// asserted: the submit path and worker hot loop are allocation-free, and
// what remains is amortized setup (per-key map nodes, worker batch
// buffers) that tends to zero with the op count.
//
// Flags: --threads=N (shard-serving workers for the timed runs, 0 =
// hardware), --samples=N (ops per section; default 50000), --json=PATH
// (machine-readable report — CI archives it as BENCH_serve.json and gates
// it with bench/check_regression.py against bench/serve_baseline.json).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "bench_common.h"
#include "quorum/threshold.h"
#include "stats/counters.h"

namespace pqs {
namespace {

constexpr std::uint32_t kUniverse = 25;  // majority quorums contact 13
constexpr std::uint64_t kKeys = 4096;

// One section of the report: a service shape plus a workload mix.
struct SectionSpec {
  std::string name;
  std::uint32_t shards;
  workload::OpenLoopSpec spec;
};

std::vector<SectionSpec> make_sections() {
  std::vector<SectionSpec> sections;
  for (const std::uint32_t shards : {1u, 4u, 8u}) {
    for (const double zipf : {0.0, 0.99}) {
      workload::OpenLoopSpec spec;
      spec.keys = kKeys;
      spec.zipf_exponent = zipf;
      spec.read_fraction = 0.5;
      sections.push_back({"shards" + std::to_string(shards) +
                              (zipf > 0 ? "_zipfian" : "_uniform"),
                          shards, spec});
    }
  }
  sections.push_back({"ycsb_a", 4, workload::OpenLoopSpec::ycsb_a(kKeys)});
  sections.push_back({"ycsb_b", 4, workload::OpenLoopSpec::ycsb_b(kKeys)});
  sections.push_back({"ycsb_c", 4, workload::OpenLoopSpec::ycsb_c(kKeys)});
  return sections;
}

// ---- offered-load sweep ---------------------------------------------------

// Sweeps offered load over ONE deployment: the service (cluster state,
// protocol counters, latency histograms) persists across points; each
// point restarts the workers and reports its own traffic as a per-server
// snapshot delta and its own percentiles as a stats::histogram_delta of
// the cumulative shard histograms — nothing is reset between points.
void rate_sweep(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                std::uint32_t workers, std::uint64_t ops, bench::Json& out) {
  serve::KvService::Config cfg;
  cfg.shards = 4;
  cfg.workers = workers;
  cfg.quorums = sys;
  cfg.seed = 0x5eedULL;
  serve::KvService service(cfg);

  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;

  stats::ContentionSnapshot prev = service.contention_snapshot();
  stats::LatencyHistogram prev_hist;
  std::uint64_t point_index = 0;
  for (const double rate : {50000.0, 200000.0, 800000.0}) {
    spec.arrival_rate = rate;
    workload::OpenLoopGenerator gen(spec, 0x90b1ULL + point_index);
    service.start();
    const auto t0 = std::chrono::steady_clock::now();
    bench::submit_stream(service, gen, ops, bench::NoHook{});
    service.stop_and_drain();
    const auto t1 = std::chrono::steady_clock::now();

    // This point's protocol traffic alone: the snapshot_delta of the
    // reused deployment's cumulative per-server counters.
    const stats::ContentionSnapshot now = service.contention_snapshot();
    const stats::ContentionSnapshot delta = stats::snapshot_delta(prev, now);
    prev = now;

    // This point's own percentiles without a reset barrier: the
    // elementwise difference of the cumulative shard histograms.
    const stats::LatencyHistogram cumulative = service.merged_histogram();
    const stats::LatencyHistogram hist =
        stats::histogram_delta(prev_hist, cumulative);
    prev_hist = cumulative;
    const double achieved = static_cast<double>(ops) /
                            std::chrono::duration<double>(t1 - t0).count();
    const stats::ServerCounters totals = delta.totals();
    // Per-point load profile over this point's server-side contacts only.
    std::vector<std::uint64_t> hits(delta.universe_size(), 0);
    for (std::uint32_t u = 0; u < delta.universe_size(); ++u) {
      hits[u] = delta.server(u).writes_accepted + delta.server(u).reads_served;
    }
    const double max_load =
        stats::LoadProfile(std::move(hits), ops).max_load();
    std::printf(
        "[sweep] offered=%.3g achieved=%.3g p50=%.1fus p99=%.1fus "
        "p999=%.1fus delta_reads=%" PRIu64 " delta_writes=%" PRIu64
        " max_load=%.3f\n",
        rate, achieved, static_cast<double>(hist.p50()) / 1000.0,
        static_cast<double>(hist.p99()) / 1000.0,
        static_cast<double>(hist.p999()) / 1000.0, totals.reads_served,
        totals.writes_accepted, max_load);
    out.object()
        .number("offered_rate", rate)
        .number("achieved_ops_per_sec", achieved)
        .integer("p50_ns", hist.p50())
        .integer("p99_ns", hist.p99())
        .integer("p999_ns", hist.p999())
        .integer("max_ns", hist.max())
        .integer("delta_writes_accepted", totals.writes_accepted)
        .integer("delta_reads_served", totals.reads_served)
        .integer("delta_superseded", totals.writes_superseded)
        .number("max_load", max_load, "%.6f");
    ++point_index;
  }
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(50000);
  const unsigned workers = opts.workers();

  const auto sys = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(kUniverse));

  std::printf(
      "serve_throughput: %" PRIu64
      " ops/section over %" PRIu64
      " keys, majority(%u) quorums, workers=%u, simd=%s\n",
      ops, kKeys, kUniverse, workers, simd::active().name);

  bench::Report report("serve_throughput");
  report.json.integer("universe", kUniverse).integer("ops_per_section", ops);
  std::uint64_t index = 0;
  for (const SectionSpec& section : make_sections()) {
    serve::KvService::Config cfg;
    cfg.shards = section.shards;
    cfg.quorums = sys;
    cfg.seed = 0xbadc0ffeULL + 131 * index++;
    const bench::RunOutcome timed =
        bench::replay_gate(report, section.name, workers, [&](unsigned w) {
          cfg.workers = w;
          return bench::drive_service(cfg, section.spec, ops);
        });
    std::printf(
        "[serve] section=%-15s shards=%u workers=%u ops/sec=%.3g "
        "p50=%.1fus p99=%.1fus p999=%.1fus allocs/op=%.3f stale=%" PRIu64
        " max_load=%.3f\n",
        section.name.c_str(), section.shards, workers, timed.ops_per_sec(),
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        static_cast<double>(timed.histogram.p999()) / 1000.0,
        timed.allocs_per_op, timed.fold.stale_reads,
        timed.profile.max_load());
    report.section(section.name, workers, timed)
        .integer("shards", section.shards)
        .number("zipf", section.spec.zipf_exponent, "%.2f")
        .number("read_fraction", section.spec.read_fraction, "%.2f")
        .number("allocs_per_op", timed.allocs_per_op, "%.4f")
        .integer("empty_reads", timed.fold.empty_reads)
        .integer("access_checksum", timed.fold.access_checksum)
        .number("max_load", timed.profile.max_load(), "%.6f")
        .number("imbalance", timed.profile.imbalance(), "%.4f");
  }

  rate_sweep(sys, workers, ops, report.json.array("rate_sweep"));

  return report.finish(
      opts, "shard aggregates bit-identical across worker counts");
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
