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
//   * the determinism gate replay.socket: the same single-connection
//     request stream re-driven at the timed worker count and at 1 and 8
//     service workers, exiting nonzero unless every per-shard aggregate
//     (reads, writes, stale/empty reads, access checksum) is bit-identical
//     — the in-process contract must survive the socket path byte for
//     byte;
//   * an offered-load sweep over ONE live deployment, paced by the
//     open-loop schedule (latency measured from each op's *scheduled*
//     send time — coordinated-omission-safe), where each point's
//     server-side percentiles come from stats::histogram_delta of the
//     service's cumulative histograms: no reset_latency between points.
//
// Every timed section is also gated drained.<section>: no request may be
// lost over the socket path. Untimed passes of the first section's
// deployment run for 3 s before any timed one.
//
// Flags: --threads=N (shard-serving workers for the timed sections, 0 =
// hardware), --samples=N (ops per section; default 50000), --json=PATH
// (machine-readable report — CI archives it as BENCH_net.json and gates
// it with bench/check_regression.py against bench/net_baseline.json).
#include <algorithm>
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

// Sends `ops` requests from `gen` through `client`. Unpaced, the latency
// origin is the send instant. Paced, the client holds the open-loop
// schedule and the deadline is the origin: a backed-up server charges its
// stall to every op that was due meanwhile. Ops already in the coalescing
// buffer go out before the client idles, and the client reads responses
// while it idles, so each latency is recorded when its response arrives.
void send_stream(net::Client& client, workload::OpenLoopGenerator& gen,
                 std::uint64_t ops) {
  const bool paced = gen.spec().arrival_rate > 0.0;
  workload::Operation op;
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    std::uint64_t scheduled;
    if (paced) {
      if (client.now_ns() < op.scheduled_ns) {
        client.flush();
        while (client.now_ns() < op.scheduled_ns) {
          if (client.poll() == 0) std::this_thread::yield();
        }
      }
      scheduled = op.scheduled_ns;
    } else {
      scheduled = client.now_ns();
    }
    client.send(op.key, op.value, op.is_read, scheduled);
  }
  client.drain();
}

// One complete deployment + drive + teardown over loopback; the latency
// histogram is the client's round trip.
bench::RunOutcome drive(const std::shared_ptr<const quorum::QuorumSystem>& sys,
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
  const auto t0 = std::chrono::steady_clock::now();
  send_stream(client, gen, ops);
  const auto t1 = std::chrono::steady_clock::now();

  bench::RunOutcome out;
  out.histogram = client.histogram();
  const bool received_all =
      client.received() == ops && out.histogram.count() == ops;
  client.stop();
  service.stop_and_drain();
  server.stop();

  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.ops = ops;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.drained_all = received_all && out.fold.reads + out.fold.writes == ops;
  return out;
}

// ---- offered-load sweep ---------------------------------------------------

// Sweeps offered load over ONE deployment: the server stays up, the
// service's cluster state, counters, and latency histograms persist, and
// each point reports its client-observed RTT from the scheduled send time
// plus its own server-side queue+service percentiles as a histogram delta
// of the service's cumulative histograms: no reset_latency between points.
void rate_sweep(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                std::uint32_t workers, std::uint64_t ops, bench::Json& out) {
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
    const auto t0 = std::chrono::steady_clock::now();
    send_stream(client, gen, ops);
    const auto t1 = std::chrono::steady_clock::now();
    const stats::LatencyHistogram rtt = client.histogram();
    client.stop();
    service.stop_and_drain();

    const stats::LatencyHistogram now = service.merged_histogram();
    const stats::LatencyHistogram delta =
        stats::histogram_delta(cumulative, now);
    cumulative = now;

    const double achieved = static_cast<double>(ops) /
                            std::chrono::duration<double>(t1 - t0).count();
    std::printf(
        "[sweep] offered=%.3g achieved=%.3g rtt_p50=%.1fus rtt_p99=%.1fus "
        "rtt_p999=%.1fus server_p50=%.1fus server_p99=%.1fus\n",
        rate, achieved, static_cast<double>(rtt.p50()) / 1000.0,
        static_cast<double>(rtt.p99()) / 1000.0,
        static_cast<double>(rtt.p999()) / 1000.0,
        static_cast<double>(delta.p50()) / 1000.0,
        static_cast<double>(delta.p99()) / 1000.0);
    out.object()
        .number("offered_rate", rate)
        .number("achieved_ops_per_sec", achieved)
        .integer("p50_ns", rtt.p50())
        .integer("p99_ns", rtt.p99())
        .integer("p999_ns", rtt.p999())
        .integer("server_p50_ns", delta.p50())
        .integer("server_p99_ns", delta.p99());
    ++point_index;
  }
  server.stop();
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(50000);
  const unsigned workers = std::min(opts.workers(), kShards);

  const auto sys = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(kUniverse));

  std::printf(
      "net_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, majority(%u) quorums, %u shards, workers=%u, simd=%s, "
      "loopback TCP\n",
      ops, kKeys, kUniverse, kShards, workers, simd::active().name);

  bench::Report report("net_throughput");
  report.json.integer("universe", kUniverse)
      .integer("shards", kShards)
      .integer("ops_per_section", ops);
  const std::vector<SectionSpec> sections = make_sections();
  // Untimed passes of the first section's deployment, for 3 s. On a
  // 4-vCPU VM that sat idle for 15 s, the socket path ran 2-5x slow for
  // its first 1-2.5 s whatever the work done, so the warm-up is timed,
  // not counted: one 20,000-op pass left every section slow.
  const auto warm_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  do {
    drive(sys, workers, sections[0].connections, sections[0].io_threads,
          sections[0].spec, ops, 0x7cbULL);
  } while (std::chrono::steady_clock::now() < warm_until);
  std::uint64_t index = 0;
  for (const SectionSpec& section : sections) {
    const bench::RunOutcome timed =
        drive(sys, workers, section.connections, section.io_threads,
              section.spec, ops, 0x7cbULL + 131 * index++);
    report.gate("drained." + section.name, timed.drained_all,
                "lost requests over the socket path");
    std::printf(
        "[net] section=%-15s conns=%u io_threads=%u workers=%u "
        "ops/sec=%.3g p50=%.1fus p99=%.1fus p999=%.1fus stale=%" PRIu64
        " empty=%" PRIu64 "\n",
        section.name.c_str(), section.connections, section.io_threads,
        workers, timed.ops_per_sec(),
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        static_cast<double>(timed.histogram.p999()) / 1000.0,
        timed.fold.stale_reads, timed.fold.empty_reads);
    report.section(section.name, workers, timed)
        .integer("connections", section.connections)
        .integer("io_threads", section.io_threads)
        .number("zipf", section.spec.zipf_exponent, "%.2f")
        .integer("empty_reads", timed.fold.empty_reads)
        .integer("access_checksum", timed.fold.access_checksum);
  }

  // The socket-path replay: one connection pins the per-shard request
  // subsequences to wire order, so the deterministic aggregates must
  // survive the socket path bit for bit across service worker counts —
  // exactly the in-process serve_throughput contract.
  workload::OpenLoopSpec gate_spec;
  gate_spec.keys = kKeys;
  gate_spec.zipf_exponent = 0.99;
  gate_spec.read_fraction = 0.5;
  const std::uint64_t gate_ops = std::min<std::uint64_t>(ops, 20000);
  bench::replay_gate(report, "socket", workers, [&](unsigned w) {
    return drive(sys, w, 1, 1, gate_spec, gate_ops, 0xd00dULL);
  });

  rate_sweep(sys, workers, ops, report.json.array("rate_sweep"));

  return report.finish(opts,
                       "shard aggregates bit-identical across the socket "
                       "path");
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
