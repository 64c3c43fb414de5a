// End-to-end serving-tier throughput and tail latency over real sockets.
//
// Starts net::KvServer on an ephemeral loopback port in front of a
// serve::KvService deployment and drives it with workload-generated
// GET/PUT frames through net::Client (pipelined, multi-connection),
// reporting client-observed ops/sec and p50/p99/p999/max round-trip
// latency per section:
//
//   * a connection sweep {1, 2, 4} under Zipfian(0.99) plus a uniform
//     single-connection point, unpaced (latency = RTT + queue time);
//   * the tentpole determinism gate: the same single-connection request
//     stream re-driven at the timed worker count and at 1 and 8 service
//     workers, exiting nonzero unless every per-shard aggregate (reads,
//     writes, stale/empty reads, access checksum) is bit-identical — the
//     in-process contract must survive the socket path byte for byte;
//   * an offered-load sweep over ONE live deployment, paced by the
//     open-loop schedule (latency measured from each op's *scheduled*
//     send time — coordinated-omission-safe), where each point's
//     server-side percentiles come from stats::histogram_delta of the
//     service's cumulative histograms: no reset_latency between points.
//
// Flags: --threads=N (shard-serving workers for the timed sections, 0 =
// hardware), --samples=N (ops per section; default 50000), --json=PATH
// (machine-readable report — CI archives it as BENCH_net.json and gates
// it with bench/check_net_regression.py).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/kv_server.h"
#include "quorum/threshold.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"
#include "workload/open_loop.h"

namespace pqs {
namespace {

constexpr std::uint32_t kUniverse = 25;  // majority quorums contact 13
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;

struct SectionSpec {
  std::string name;
  std::uint32_t connections;
  std::uint32_t io_threads;
  workload::OpenLoopSpec spec;
};

std::vector<SectionSpec> make_sections() {
  std::vector<SectionSpec> sections;
  {
    workload::OpenLoopSpec uniform;
    uniform.keys = kKeys;
    uniform.read_fraction = 0.5;
    sections.push_back({"conns1_uniform", 1, 1, uniform});
  }
  for (const std::uint32_t conns : {1u, 2u, 4u}) {
    workload::OpenLoopSpec zipf;
    zipf.keys = kKeys;
    zipf.zipf_exponent = 0.99;
    zipf.read_fraction = 0.5;
    sections.push_back({"conns" + std::to_string(conns) + "_zipfian", conns,
                        conns > 1 ? 2u : 1u, zipf});
  }
  return sections;
}

struct RunOutcome {
  std::vector<serve::ShardAggregate> aggregates;  // the bit-identity payload
  serve::ShardAggregate fold;
  stats::LatencyHistogram histogram;  // client-side RTT
  double seconds = 0.0;
  std::uint64_t reads_found = 0;
  std::uint64_t reads_empty = 0;
  bool drained_all = false;
};

// One complete deployment + drive + teardown over loopback.
RunOutcome drive(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                 std::uint32_t workers, std::uint32_t connections,
                 std::uint32_t io_threads,
                 const workload::OpenLoopSpec& spec, std::uint64_t ops,
                 std::uint64_t seed) {
  serve::KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.quorums = sys;
  cfg.seed = seed;
  serve::KvService service(cfg);

  net::KvServer::Config server_cfg;
  server_cfg.io_threads = io_threads;
  net::KvServer server(server_cfg, service);
  server.start();
  service.start();

  net::Client::Config client_cfg;
  client_cfg.port = server.port();
  client_cfg.connections = connections;
  net::Client client(client_cfg);
  client.start();

  workload::OpenLoopGenerator gen(spec, seed ^ 0xa02bdbf7bb3c0a7ULL);
  workload::Operation op;
  const bool paced = spec.arrival_rate > 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    std::uint64_t scheduled;
    if (paced) {
      // Open loop: hold the fixed schedule; the deadline, not the send
      // instant, is the latency origin. A backed-up server charges its
      // stall to every op that was due meanwhile. Ops already in the
      // coalescing buffer go out before we idle.
      if (client.now_ns() < op.scheduled_ns) {
        client.flush();
        while (client.now_ns() < op.scheduled_ns) std::this_thread::yield();
      }
      scheduled = op.scheduled_ns;
    } else {
      scheduled = client.now_ns();
    }
    client.send(op.key, op.value, op.is_read, scheduled);
  }
  client.drain();
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.histogram = client.histogram();
  out.reads_found = client.reads_found();
  out.reads_empty = client.reads_empty();
  out.drained_all = client.received() == ops && out.histogram.count() == ops;
  client.stop();
  service.stop_and_drain();
  server.stop();

  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.drained_all =
      out.drained_all && out.fold.reads + out.fold.writes == ops;
  return out;
}

// ---- offered-load sweep ---------------------------------------------------

struct RatePoint {
  double offered_rate = 0.0;
  double achieved_ops_per_sec = 0.0;
  // Client-observed RTT from the scheduled send time.
  std::uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
  // Server-side queue+service time for THIS point only: the
  // histogram_delta of the service's cumulative shard histograms — the
  // deployment is never reset between points.
  std::uint64_t server_p50_ns = 0, server_p99_ns = 0;
};

// Sweeps offered load over ONE deployment: the server stays up, the
// service's cluster state, counters, and latency histograms persist, and
// each point reports its own server-side percentiles as a histogram
// delta (the satellite contract: no reset_latency between points).
std::vector<RatePoint> rate_sweep(
    const std::shared_ptr<const quorum::QuorumSystem>& sys,
    std::uint32_t workers, std::uint64_t ops) {
  serve::KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.quorums = sys;
  cfg.seed = 0x5eedULL;
  serve::KvService service(cfg);
  net::KvServer server(net::KvServer::Config{}, service);
  server.start();

  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;

  std::vector<RatePoint> points;
  stats::LatencyHistogram cumulative;  // the service's histogram so far
  std::uint64_t point_index = 0;
  for (const double rate : {20000.0, 80000.0, 320000.0}) {
    spec.arrival_rate = rate;
    workload::OpenLoopGenerator gen(spec, 0x90b1ULL + point_index);
    service.start();
    net::Client::Config client_cfg;
    client_cfg.port = server.port();
    net::Client client(client_cfg);
    client.start();
    workload::Operation op;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      gen.next(op);
      if (client.now_ns() < op.scheduled_ns) {
        client.flush();
        while (client.now_ns() < op.scheduled_ns) std::this_thread::yield();
      }
      client.send(op.key, op.value, op.is_read, op.scheduled_ns);
    }
    client.drain();
    const auto t1 = std::chrono::steady_clock::now();
    const stats::LatencyHistogram rtt = client.histogram();
    client.stop();
    service.stop_and_drain();

    const stats::LatencyHistogram now = service.merged_histogram();
    const stats::LatencyHistogram delta =
        stats::histogram_delta(cumulative, now);
    cumulative = now;

    RatePoint p;
    p.offered_rate = rate;
    p.achieved_ops_per_sec =
        static_cast<double>(ops) /
        std::chrono::duration<double>(t1 - t0).count();
    p.p50_ns = rtt.p50();
    p.p99_ns = rtt.p99();
    p.p999_ns = rtt.p999();
    p.server_p50_ns = delta.p50();
    p.server_p99_ns = delta.p99();
    points.push_back(p);
    ++point_index;
  }
  server.stop();
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
               "{\n  \"bench\": \"net_throughput\",\n"
               "  \"simd_kernel\": \"%s\",\n  \"universe\": %u,\n"
               "  \"shards\": %u,\n"
               "  \"ops_per_section\": %" PRIu64 ",\n  \"ok\": %s,\n"
               "  \"sections\": [\n",
               simd::active().name, kUniverse, kShards, ops,
               ok ? "true" : "false");
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionReport& s = sections[i];
    const RunOutcome& r = s.timed;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"connections\": %u, \"io_threads\": %u, "
        "\"workers\": %u, \"zipf\": %.2f,\n"
        "     \"ops_per_sec\": %.6g,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 ",\n"
        "     \"reads\": %" PRIu64 ", \"writes\": %" PRIu64
        ", \"stale_reads\": %" PRIu64 ", \"empty_reads\": %" PRIu64
        ", \"access_checksum\": %" PRIu64 "}%s\n",
        s.section.name.c_str(), s.section.connections, s.section.io_threads,
        s.workers, s.section.spec.zipf_exponent,
        static_cast<double>(ops) / r.seconds, r.histogram.p50(),
        r.histogram.p99(), r.histogram.p999(), r.histogram.max(),
        r.fold.reads, r.fold.writes, r.fold.stale_reads, r.fold.empty_reads,
        r.fold.access_checksum, i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rate_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RatePoint& p = sweep[i];
    std::fprintf(
        f,
        "    {\"offered_rate\": %.6g, \"achieved_ops_per_sec\": %.6g,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ",\n"
        "     \"server_p50_ns\": %" PRIu64 ", \"server_p99_ns\": %" PRIu64
        "}%s\n",
        p.offered_rate, p.achieved_ops_per_sec, p.p50_ns, p.p99_ns,
        p.p999_ns, p.server_p50_ns, p.server_p99_ns,
        i + 1 < sweep.size() ? "," : "");
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
  if (workers > kShards) workers = kShards;

  const auto sys = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(kUniverse));

  std::printf(
      "net_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, majority(%u) quorums, %u shards, workers=%u, simd=%s, "
      "loopback TCP\n",
      ops, kKeys, kUniverse, kShards, workers, simd::active().name);

  bool ok = true;
  std::vector<SectionReport> reports;
  for (const SectionSpec& section : make_sections()) {
    const std::uint64_t seed =
        0x7cbULL + 131 * static_cast<std::uint64_t>(reports.size());
    const RunOutcome timed = drive(sys, workers, section.connections,
                                   section.io_threads, section.spec, ops, seed);
    if (!timed.drained_all) {
      std::printf("MISMATCH: %s lost requests over the socket path\n",
                  section.name.c_str());
      ok = false;
    }
    std::printf(
        "[net] section=%-15s conns=%u io_threads=%u workers=%u "
        "ops/sec=%.3g p50=%.1fus p99=%.1fus p999=%.1fus stale=%" PRIu64
        " found=%" PRIu64 "\n",
        section.name.c_str(), section.connections, section.io_threads,
        workers, static_cast<double>(ops) / timed.seconds,
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        static_cast<double>(timed.histogram.p999()) / 1000.0,
        timed.fold.stale_reads, timed.reads_found);
    reports.push_back({section, workers, timed});
  }

  // The tentpole gate: one connection pins the per-shard request
  // subsequences to wire order, so the deterministic aggregates must
  // survive the socket path bit for bit across service worker counts —
  // exactly the in-process serve_throughput contract.
  {
    workload::OpenLoopSpec spec;
    spec.keys = kKeys;
    spec.zipf_exponent = 0.99;
    spec.read_fraction = 0.5;
    const std::uint64_t gate_ops = std::min<std::uint64_t>(ops, 20000);
    const std::uint64_t seed = 0xd00dULL;
    std::vector<serve::ShardAggregate> base;
    for (const unsigned gate_workers : {workers, 1u, 8u}) {
      const RunOutcome r = drive(sys, gate_workers, 1, 1, spec, gate_ops, seed);
      std::printf("[net-gate] workers%u checksum=%" PRIu64 " drained=%s\n",
                  gate_workers, r.fold.access_checksum,
                  r.drained_all ? "yes" : "NO");
      if (!r.drained_all) ok = false;
      if (base.empty()) {
        base = r.aggregates;
      } else if (!(base == r.aggregates)) {
        std::printf("MISMATCH: workers%u shard aggregates differ over the "
                    "socket path\n",
                    gate_workers);
        ok = false;
      }
    }
  }

  const std::vector<RatePoint> sweep = rate_sweep(sys, workers, ops);
  for (const RatePoint& p : sweep) {
    std::printf(
        "[sweep] offered=%.3g achieved=%.3g rtt_p50=%.1fus rtt_p99=%.1fus "
        "rtt_p999=%.1fus server_p50=%.1fus server_p99=%.1fus\n",
        p.offered_rate, p.achieved_ops_per_sec,
        static_cast<double>(p.p50_ns) / 1000.0,
        static_cast<double>(p.p99_ns) / 1000.0,
        static_cast<double>(p.p999_ns) / 1000.0,
        static_cast<double>(p.server_p50_ns) / 1000.0,
        static_cast<double>(p.server_p99_ns) / 1000.0);
  }

  if (!opts.json.empty()) {
    write_json(opts.json.c_str(), reports, sweep, ops, ok);
  }

  std::printf(ok ? "OK: shard aggregates bit-identical across the socket "
                   "path\n"
                 : "FAILED: see mismatches above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
