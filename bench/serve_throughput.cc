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
// Every unpaced section is also a functional gate: the per-shard aggregate
// counters (reads, writes, stale/empty reads, position-weighted access
// checksum) are a pure function of the request stream, so the bench re-runs
// each section with 1 and 8 shard-serving workers and exits nonzero unless
// all three runs agree shard by shard — and unless every submitted request
// was drained into the histogram.
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
// it with bench/check_serve_regression.py).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "bench_common.h"
#include "quorum/threshold.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/counters.h"
#include "stats/latency_histogram.h"
#include "stats/load_profile.h"
#include "workload/open_loop.h"

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

struct RunOutcome {
  std::vector<serve::ShardAggregate> aggregates;  // the bit-identity payload
  serve::ShardAggregate fold;
  stats::LatencyHistogram histogram;
  stats::LoadProfile profile{std::vector<std::uint64_t>{}, 0};
  double seconds = 0.0;
  double allocs_per_op = 0.0;
  bool drained_all = false;
};

// One complete run: build a service, drive `ops` requests from a single
// producer (per-shard order is then the generator order, the determinism
// precondition), drain, and collect everything observable.
RunOutcome drive(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                 std::uint32_t shards, std::uint32_t workers,
                 const workload::OpenLoopSpec& spec, std::uint64_t ops,
                 std::uint64_t seed) {
  serve::KvService::Config cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.quorums = sys;
  cfg.seed = seed;
  serve::KvService service(cfg);
  workload::OpenLoopGenerator gen(spec, seed ^ 0xa02bdbf7bb3c0a7ULL);

  workload::Operation op;
  serve::Request req;
  const bool paced = spec.arrival_rate > 0.0;
  const std::uint64_t before = bench::allocations();
  const auto t0 = std::chrono::steady_clock::now();
  service.start();
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    if (paced) {
      // Open loop: hold to the fixed schedule; the deadline, not the
      // submit instant, is the latency origin.
      while (service.now_ns() < op.scheduled_ns) std::this_thread::yield();
      req.scheduled_ns = op.scheduled_ns;
    } else {
      req.scheduled_ns = service.now_ns();
    }
    req.key = op.key;
    req.value = op.value;
    req.is_read = op.is_read;
    service.submit(req);
  }
  service.stop_and_drain();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t after = bench::allocations();

  RunOutcome out;
  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.histogram = service.merged_histogram();
  out.profile = service.server_profile();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.allocs_per_op =
      static_cast<double>(after - before) / static_cast<double>(ops);
  out.drained_all = out.histogram.count() == ops &&
                    out.fold.reads + out.fold.writes == ops;
  return out;
}

// ---- offered-load sweep ---------------------------------------------------

struct RatePoint {
  double offered_rate = 0.0;
  double achieved_ops_per_sec = 0.0;
  std::uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0, max_ns = 0;
  // This point's protocol traffic alone: the snapshot_delta of the reused
  // deployment's cumulative per-server counters.
  std::uint64_t delta_writes_accepted = 0;
  std::uint64_t delta_reads_served = 0;
  std::uint64_t delta_superseded = 0;
  double max_load = 0.0;
};

// Sweeps offered load over ONE deployment: the service (cluster state,
// protocol counters, latency histograms) persists across points; each
// point restarts the workers and reports its own traffic as a per-server
// snapshot delta and its own percentiles as a stats::histogram_delta of
// the cumulative shard histograms — nothing is reset between points.
std::vector<RatePoint> rate_sweep(
    const std::shared_ptr<const quorum::QuorumSystem>& sys,
    std::uint32_t workers, std::uint64_t ops) {
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

  std::vector<RatePoint> points;
  stats::ContentionSnapshot prev = service.contention_snapshot();
  stats::LatencyHistogram prev_hist;
  std::uint64_t point_index = 0;
  for (const double rate : {50000.0, 200000.0, 800000.0}) {
    spec.arrival_rate = rate;
    workload::OpenLoopGenerator gen(spec, 0x90b1ULL + point_index);
    service.start();
    workload::Operation op;
    serve::Request req;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      gen.next(op);
      while (service.now_ns() < op.scheduled_ns) std::this_thread::yield();
      req.key = op.key;
      req.value = op.value;
      req.scheduled_ns = op.scheduled_ns;
      req.is_read = op.is_read;
      service.submit(req);
    }
    service.stop_and_drain();
    const auto t1 = std::chrono::steady_clock::now();

    const stats::ContentionSnapshot now = service.contention_snapshot();
    const stats::ContentionSnapshot delta = stats::snapshot_delta(prev, now);
    prev = now;

    // This point's own percentiles without a reset barrier: the
    // elementwise difference of the cumulative shard histograms.
    const stats::LatencyHistogram cumulative = service.merged_histogram();
    const stats::LatencyHistogram hist =
        stats::histogram_delta(prev_hist, cumulative);
    prev_hist = cumulative;
    RatePoint p;
    p.offered_rate = rate;
    p.achieved_ops_per_sec =
        static_cast<double>(ops) /
        std::chrono::duration<double>(t1 - t0).count();
    p.p50_ns = hist.p50();
    p.p99_ns = hist.p99();
    p.p999_ns = hist.p999();
    p.max_ns = hist.max();
    const stats::ServerCounters totals = delta.totals();
    p.delta_writes_accepted = totals.writes_accepted;
    p.delta_reads_served = totals.reads_served;
    p.delta_superseded = totals.writes_superseded;
    // Per-point load profile over this point's server-side contacts only.
    std::vector<std::uint64_t> hits(delta.universe_size(), 0);
    for (std::uint32_t u = 0; u < delta.universe_size(); ++u) {
      hits[u] = delta.server(u).writes_accepted + delta.server(u).reads_served;
    }
    p.max_load = stats::LoadProfile(std::move(hits), ops).max_load();
    points.push_back(p);
    ++point_index;
  }
  return points;
}

// ---- reporting ------------------------------------------------------------

struct SectionReport {
  SectionSpec section;
  std::uint32_t workers = 0;
  RunOutcome timed;
};

void write_json(const char* path, const std::vector<SectionReport>& sections,
                const std::vector<RatePoint>& sweep, std::uint64_t ops,
                bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serve_throughput\",\n"
               "  \"simd_kernel\": \"%s\",\n  \"universe\": %u,\n"
               "  \"ops_per_section\": %" PRIu64 ",\n  \"ok\": %s,\n"
               "  \"sections\": [\n",
               simd::active().name, kUniverse, ops, ok ? "true" : "false");
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionReport& s = sections[i];
    const RunOutcome& r = s.timed;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"shards\": %u, \"workers\": %u, "
        "\"zipf\": %.2f, \"read_fraction\": %.2f,\n"
        "     \"ops_per_sec\": %.6g, \"allocs_per_op\": %.4f,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 ",\n"
        "     \"reads\": %" PRIu64 ", \"writes\": %" PRIu64
        ", \"stale_reads\": %" PRIu64 ", \"empty_reads\": %" PRIu64
        ", \"access_checksum\": %" PRIu64 ",\n"
        "     \"max_load\": %.6f, \"imbalance\": %.4f}%s\n",
        s.section.name.c_str(), s.section.shards, s.workers,
        s.section.spec.zipf_exponent, s.section.spec.read_fraction,
        static_cast<double>(ops) / r.seconds, r.allocs_per_op,
        r.histogram.p50(), r.histogram.p99(), r.histogram.p999(),
        r.histogram.max(), r.fold.reads, r.fold.writes, r.fold.stale_reads,
        r.fold.empty_reads, r.fold.access_checksum, r.profile.max_load(),
        r.profile.imbalance(), i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rate_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RatePoint& p = sweep[i];
    std::fprintf(
        f,
        "    {\"offered_rate\": %.6g, \"achieved_ops_per_sec\": %.6g,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 ",\n"
        "     \"delta_writes_accepted\": %" PRIu64
        ", \"delta_reads_served\": %" PRIu64 ", \"delta_superseded\": %" PRIu64
        ", \"max_load\": %.6f}%s\n",
        p.offered_rate, p.achieved_ops_per_sec, p.p50_ns, p.p99_ns, p.p999_ns,
        p.max_ns, p.delta_writes_accepted, p.delta_reads_served,
        p.delta_superseded, p.max_load, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(50000);
  unsigned workers = opts.threads;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  const auto sys = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(kUniverse));

  std::printf(
      "serve_throughput: %" PRIu64
      " ops/section over %" PRIu64
      " keys, majority(%u) quorums, workers=%u, simd=%s\n",
      ops, kKeys, kUniverse, workers, simd::active().name);

  bool ok = true;
  std::vector<SectionReport> reports;
  for (const SectionSpec& section : make_sections()) {
    const std::uint64_t seed =
        0xbadc0ffeULL + 131 * static_cast<std::uint64_t>(reports.size());
    const RunOutcome timed =
        drive(sys, section.shards, workers, section.spec, ops, seed);
    // The gates: the per-shard aggregates are a pure function of the
    // request stream, so the worker count must not change them.
    const RunOutcome w1 =
        drive(sys, section.shards, 1, section.spec, ops, seed);
    const RunOutcome w8 =
        drive(sys, section.shards, 8, section.spec, ops, seed);
    if (!(timed.aggregates == w1.aggregates) ||
        !(timed.aggregates == w8.aggregates)) {
      std::printf("MISMATCH: %s shard aggregates differ across worker "
                  "counts\n",
                  section.name.c_str());
      ok = false;
    }
    if (!timed.drained_all || !w1.drained_all || !w8.drained_all) {
      std::printf("MISMATCH: %s lost requests (histogram/aggregate count != "
                  "submitted ops)\n",
                  section.name.c_str());
      ok = false;
    }
    std::printf(
        "[serve] section=%-15s shards=%u workers=%u ops/sec=%.3g "
        "p50=%.1fus p99=%.1fus p999=%.1fus allocs/op=%.3f stale=%" PRIu64
        " max_load=%.3f\n",
        section.name.c_str(), section.shards, workers,
        static_cast<double>(ops) / timed.seconds,
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        static_cast<double>(timed.histogram.p999()) / 1000.0,
        timed.allocs_per_op, timed.fold.stale_reads,
        timed.profile.max_load());
    reports.push_back({section, workers, timed});
  }

  const std::vector<RatePoint> sweep = rate_sweep(sys, workers, ops);
  for (const RatePoint& p : sweep) {
    std::printf(
        "[sweep] offered=%.3g achieved=%.3g p50=%.1fus p99=%.1fus "
        "p999=%.1fus delta_reads=%" PRIu64 " delta_writes=%" PRIu64
        " max_load=%.3f\n",
        p.offered_rate, p.achieved_ops_per_sec,
        static_cast<double>(p.p50_ns) / 1000.0,
        static_cast<double>(p.p99_ns) / 1000.0,
        static_cast<double>(p.p999_ns) / 1000.0, p.delta_reads_served,
        p.delta_writes_accepted, p.max_load);
  }

  if (!opts.json.empty()) {
    write_json(opts.json.c_str(), reports, sweep, ops, ok);
  }

  std::printf(ok ? "OK: shard aggregates bit-identical across worker counts\n"
                 : "FAILED: see mismatches above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
