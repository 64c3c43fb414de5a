// The three serving workloads: net_ycsb_a over loopback TCP, and the
// in-process kv_masking_ycsb_b and kv_dissem_ycsb_a. See README.md for
// why each exists and which layer it isolates.
//
// Every timed latency comes from a closed loop: the load thread keeps a fixed
// number of requests outstanding and issues the next one only when a
// reply frees a slot, so a host stall slows the loop instead of piling up
// a backlog that would then be charged to later requests.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "checks.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "net/client.h"
#include "net/kv_server.h"
#include "probes.h"
#include "quorum/threshold.h"
#include "replica/fault.h"
#include "replica/instant_cluster.h"
#include "replica/read_rules.h"
#include "serve/kv_service.h"
#include "stats.h"
#include "trace.h"
#include "workload/open_loop.h"

namespace perfbench {

namespace {

using pqs::replica::FaultMode;
using pqs::replica::ReadMode;
using pqs::serve::KvService;

constexpr std::uint32_t kShards = 4;
// One service worker serves all shards (see README.md, noise findings).
constexpr std::uint32_t kWorkers = 1;
// Requests outstanding in every closed loop.
constexpr std::uint32_t kWindow = 16;
// Untimed requests after the preload, before anything is measured.
constexpr std::uint64_t kWarmupOps = 50000;
constexpr double kZipf = 0.99;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
// Requests traced in full by a traced run (a span buffer of fixed size).
constexpr std::uint64_t kTracedOps = 50000;
// Operations of the timed stream the replica replay re-drives.
constexpr std::uint64_t kReplayOps = 100000;
// Timed phases are cut into slices of this length; a phase reports the
// interquartile mean over its slices (see run_phase).
constexpr double kSliceSeconds = 0.5;
// Replay calls timed per span.
constexpr std::uint32_t kReplayBatch = 16;
// Submit-time slots for in-flight requests (a power of two above the
// window).
constexpr std::uint64_t kSlots = 1024;
// A closed loop that closes no slice for this long has lost a reply;
// the stall watchdog then fails the run.
constexpr double kStallSeconds = 10.0;

struct ServingConfig {
  const char* name;
  bool net;
  bool majority;  // strict majority(n) instead of R(n, q)
  std::uint32_t n;
  std::uint32_t q;
  ReadMode mode;
  std::uint32_t k;  // masking voucher threshold (1 otherwise)
  FaultMode fault;
  std::uint32_t b;  // servers 0..b-1 run `fault`
  std::uint64_t keys;
  double read_fraction;
  // Whether the traced run also probes the core and simd layers, so they
  // are measured on a serving workload too.
  bool probe_estimators;
};

const ServingConfig kNet{"net_ycsb_a", true,  true, 25, 13, ReadMode::kPlain,
                         1, FaultMode::kCorrect, 0, 1024, 0.5, false};
const ServingConfig kMasking{"kv_masking_ycsb_b", false, false, 100, 40,
                             ReadMode::kMasking, 8, FaultMode::kCollude, 4,
                             256, 0.95, true};
const ServingConfig kDissem{"kv_dissem_ycsb_a", false, false, 100, 24,
                            ReadMode::kDissemination, 1, FaultMode::kForge, 4,
                            256, 0.5, false};

std::shared_ptr<const pqs::quorum::QuorumSystem> make_system(
    const ServingConfig& c) {
  if (c.majority) {
    return std::make_shared<pqs::quorum::ThresholdSystem>(
        pqs::quorum::ThresholdSystem::majority(c.n));
  }
  return std::make_shared<pqs::core::RandomSubsetSystem>(c.n, c.q);
}

// The closed-form per-read staleness: 0 for strict quorums, the Section 4
// and 5 epsilons for the Byzantine regimes.
double closed_form_epsilon(const ServingConfig& c) {
  switch (c.mode) {
    case ReadMode::kPlain:
      return c.majority ? 0.0 : pqs::core::nonintersection_exact(c.n, c.q);
    case ReadMode::kDissemination:
      return pqs::core::dissemination_epsilon_exact(c.n, c.q, c.b);
    case ReadMode::kMasking:
      return pqs::core::masking_epsilon_exact(c.n, c.q, c.b, c.k);
  }
  return 1.0;
}

// Preload rounds: every key is written this many times, enough that the
// chance any (server, key) pair is still missing is below 1e-6.
std::uint64_t preload_rounds(const ServingConfig& c) {
  const double miss = 1.0 - static_cast<double>(c.q) / c.n;
  return static_cast<std::uint64_t>(std::ceil(
      std::log(1e-6 / (static_cast<double>(c.n) * c.keys)) / std::log(miss)));
}

// Preload values are negative, so they never equal a generated write.
std::int64_t preload_value(const ServingConfig& c, std::uint64_t round,
                           std::uint64_t key) {
  return -static_cast<std::int64_t>(1 + round * c.keys + key);
}

pqs::workload::OpenLoopSpec stream_spec(const ServingConfig& c) {
  pqs::workload::OpenLoopSpec spec;
  spec.keys = c.keys;
  spec.zipf_exponent = kZipf;
  spec.read_fraction = c.read_fraction;
  return spec;
}

std::uint64_t stream_seed(std::uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL + 0xb5ad4eceda1ce2a9ULL;
}
// Every key written preload_rounds(c) times, in key order per round.
// Keys run 1..keys, the range workload::ZipfianKeys draws from.
template <typename Write>
void for_each_preload(const ServingConfig& c, Write&& write) {
  for (std::uint64_t round = 0; round < preload_rounds(c); ++round) {
    for (std::uint64_t key = 1; key <= c.keys; ++key) {
      write(key, preload_value(c, round, key));
    }
  }
}

pqs::workload::OpenLoopGenerator make_stream(const ServingConfig& c,
                                             std::uint64_t seed) {
  return pqs::workload::OpenLoopGenerator(stream_spec(c), stream_seed(seed));
}

std::uint64_t service_seed(std::uint64_t seed) {
  return seed * 0xbf58476d1ce4e5b9ULL + 0x5eed;
}

KvService::Config service_config(const ServingConfig& c, std::uint64_t seed) {
  KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = kWorkers;
  cfg.quorums = make_system(c);
  cfg.seed = service_seed(seed);
  cfg.read_mode = c.mode;
  cfg.read_threshold = c.k;
  if (c.b > 0) {
    cfg.faults = pqs::replica::FaultPlan::prefix(c.n, c.b, c.fault);
  }
  return cfg;
}

pqs::serve::Request write_request(std::uint64_t key, std::int64_t value) {
  pqs::serve::Request r;
  r.key = key;
  r.value = value;
  return r;
}

// Which CPUs each component runs on.
struct Placement {
  std::vector<int> load, client_reader, server_io, worker;
};

Placement place(const ServingConfig& c, const std::vector<int>& cpus) {
  Placement p;
  p.load = {cpus[0]};
  if (c.net) {
    p.client_reader = {cpus[1]};
    p.server_io = {cpus[2]};
    p.worker = {cpus[3]};
  } else {
    p.worker = {cpus[1]};
  }
  return p;
}

struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
};

// The in-process closed loop's shared state. The completion hook runs on
// the worker that owns the request's shard, so every per-shard field has
// exactly one writer.
struct LoopState {
  explicit LoopState(const KvService& s) : service(s), submit_ns(kSlots, 0) {}
  const KvService& service;
  std::vector<std::uint64_t> submit_ns;  // by request id mod kSlots
  PaddedCounter done[kShards];
  pqs::stats::LatencyHistogram latency[kShards];

  std::uint64_t completed() const {
    std::uint64_t total = 0;
    for (const auto& d : done) total += d.value.load(std::memory_order_acquire);
    return total;
  }
};

// One slice of a timed phase: its own throughput and latency percentiles.
struct Slice {
  double kops = 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  std::uint64_t samples = 0;
};

struct PhaseResult {
  std::uint64_t ops = 0;
  double elapsed_s = 0.0;
  std::vector<Slice> slices;
  // Interquartile means over slices.
  double kops = 0.0, p50_us = 0.0, p99_us = 0.0;
  std::uint64_t latency_samples = 0;
  double window_wait_ns = 0.0;  // traced phases only
  // Filled by Deployment::quiesce from the service.
  std::uint64_t reads = 0, stale = 0;
  double service_p50_us = 0.0, service_p99_us = 0.0;
  std::uint64_t service_samples = 0;
};

class Deployment {
 public:
  Deployment(const ServingConfig& c, std::uint64_t seed, const Placement& p)
      : c_(c), place_(p), stream_(make_stream(c, seed)) {
    service_ = std::make_unique<KvService>(service_config(c, seed));
    if (c_.net) {
      start_service();
      preload();
      service_->stop_and_drain();
      base_ = service_->fold_aggregates();
      pqs::net::KvServer::Config server_cfg;
      server_cfg.io_threads = 1;
      server_ = std::make_unique<pqs::net::KvServer>(server_cfg, *service_);
      start_on(place_.server_io, place_.load, [&] { server_->start(); });
      start_service();
      pqs::net::Client::Config client_cfg;
      client_cfg.port = server_->port();
      client_cfg.connections = 1;
      client_cfg.window = kWindow;
      client_ = std::make_unique<pqs::net::Client>(client_cfg);
      start_on(place_.client_reader, place_.load, [&] { client_->start(); });
    } else {
      loop_ = std::make_unique<LoopState>(*service_);
      LoopState* loop = loop_.get();
      service_->set_completion([loop](const pqs::serve::Completion& done) {
        const std::uint64_t t = now_ns();
        const std::uint32_t s = loop->service.shard_of(done.key);
        const std::uint64_t issued = loop->submit_ns[done.request_id % kSlots];
        loop->latency[s].record(t - issued);
        if (Tracer::active() != nullptr) {
          Tracer::active()->record("serve.request", -1, done.request_id, 1,
                                   issued, t);
        }
        loop->done[s].value.store(
            loop->done[s].value.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
      });
      start_service();
      preload();
    }
    PhaseResult warmup = run_phase(1e9, kWarmupOps, false);
    quiesce(warmup);
  }

  ~Deployment() {
    if (client_) client_->stop();
    if (service_->running()) service_->stop_and_drain();
    if (server_) server_->stop();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // One closed-loop phase of at most `seconds` and `max_ops` requests;
  // the service is running before and after. Every kSliceSeconds the
  // loop drains and closes a slice with its own throughput and latency
  // percentiles; the phase reports their interquartile means, so a host
  // stall that hits a few slices does not move the result.
  PhaseResult run_phase(double seconds, std::uint64_t max_ops, bool traced) {
    PhaseResult r;
    // For net, `answered` is what the last drain confirmed: the client's
    // reply count is readable only once drained.
    StallWatchdog watchdog(kStallSeconds, [this] {
      return StallWatchdog::Counts{
          issued_.load(std::memory_order_relaxed),
          c_.net ? drained_.load(std::memory_order_relaxed) : loop_->completed()};
    });
    Tracer* tracer = traced ? Tracer::active() : nullptr;
    const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
    const auto slice_ns = static_cast<std::uint64_t>(kSliceSeconds * 1e9);
    pqs::workload::Operation op;
    const std::uint64_t t0 = now_ns();
    std::uint64_t now = t0, slice_t0 = t0, slice_ops = 0;
    while (r.ops < max_ops && now - t0 < budget_ns) {
      const std::uint64_t id = issued_.load(std::memory_order_relaxed);
      const std::int64_t root =
          tracer ? tracer->begin("workload.op", -1, id) : -1;
      {
        ScopedSpan span(tracer ? "workload.next" : nullptr, root, id);
        stream_.next(op);
      }
      const std::uint64_t issue = now_ns();
      if (c_.net) {
        ScopedSpan span(tracer ? "net.client.send" : nullptr, root, id);
        client_->send(op.key, op.value, op.is_read, client_->now_ns());
        if (tracer) r.window_wait_ns += static_cast<double>(now_ns() - issue);
      } else {
        if (id >= loop_->completed() + kWindow) {
          while (id >= loop_->completed() + kWindow) spin_pause();
          if (tracer) {
            const std::uint64_t t = now_ns();
            tracer->record("workload.window_wait", root, id, 1, issue, t);
            r.window_wait_ns += static_cast<double>(t - issue);
          }
        }
        loop_->submit_ns[id % kSlots] = issue;
        pqs::serve::Request req;
        req.key = op.key;
        req.value = op.value;
        req.is_read = op.is_read;
        req.request_id = id;
        req.wants_reply = true;
        ScopedSpan span(tracer ? "serve.submit" : nullptr, root, id);
        req.scheduled_ns = service_->now_ns();  // the service histogram's origin
        service_->submit(req);
      }
      issued_.store(id + 1, std::memory_order_relaxed);
      ++r.ops;
      ++slice_ops;
      if (root >= 0) tracer->end(root);
      now = now_ns();
      if (now - slice_t0 >= slice_ns) {
        close_slice(r, slice_t0);
        watchdog.kick();
        slice_ops = 0;
        now = slice_t0 = now_ns();
      }
    }
    if (slice_ops > 0 || r.slices.empty()) close_slice(r, slice_t0);
    r.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
    std::vector<double> kops, p50, p99;
    for (const Slice& sl : r.slices) {
      kops.push_back(sl.kops);
      p50.push_back(sl.p50_us);
      p99.push_back(sl.p99_us);
      r.latency_samples += sl.samples;
    }
    r.kops = interquartile_mean(kops);
    r.p50_us = interquartile_mean(p50);
    r.p99_us = interquartile_mean(p99);
    return r;
  }

  // Stops the service at a phase boundary, folds the phase's aggregates
  // and latencies into `r`, and starts it again (unless `last`).
  void quiesce(PhaseResult& r, bool last = false) {
    service_->stop_and_drain();
    const auto fold = service_->fold_aggregates();
    r.reads = fold.reads - base_.reads;
    r.stale = fold.stale_reads - base_.stale_reads;
    base_ = fold;
    const auto service_hist = service_->merged_histogram();
    r.service_p50_us = interpolated_percentile(service_hist, 50.0) / 1e3;
    r.service_p99_us = interpolated_percentile(service_hist, 99.0) / 1e3;
    r.service_samples = service_hist.count();
    service_->reset_latency();
    if (!last) start_service();
  }

  // Ends the run: drains and stops the client, service and server.
  void finish(PhaseResult& last_phase) {
    if (client_) {
      client_->stop();
      client_stats_ = client_->stats();
      client_sent_ = client_->sent();
      client_received_ = client_->received();
      protocol_errors_ = server_->protocol_errors();
    }
    quiesce(last_phase, /*last=*/true);
    if (server_) server_->stop();
  }

  std::uint64_t preload_ops() const { return preload_rounds(c_) * c_.keys; }
  std::uint64_t issued() const {
    return issued_.load(std::memory_order_relaxed);
  }
  std::uint64_t answered() const {
    return c_.net ? client_received_ : loop_->completed();
  }
  std::uint64_t sent() const { return c_.net ? client_sent_ : issued(); }
  const KvService& service() const { return *service_; }
  const pqs::net::ClientStats& client_stats() const { return client_stats_; }
  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  void start_service() {
    start_on(place_.worker, place_.load, [&] { service_->start(); });
  }

  // Drains the closed loop and records the slice that began at
  // `slice_t0`: its completions, throughput and latency percentiles.
  // A reply that never comes (or, in process, comes twice) keeps the
  // drain spinning until run_phase's watchdog fails the run.
  void close_slice(PhaseResult& r, std::uint64_t slice_t0) {
    pqs::stats::LatencyHistogram h;
    if (c_.net) {
      client_->drain();  // the client histogram is readable once drained
      drained_.store(issued(), std::memory_order_relaxed);
      const pqs::stats::LatencyHistogram total = client_->histogram();
      h = pqs::stats::histogram_delta(client_seen_, total);
      client_seen_ = total;
    } else {
      while (loop_->completed() != issued()) spin_pause();
      for (auto& shard : loop_->latency) {
        h.merge(shard);
        shard = pqs::stats::LatencyHistogram();
      }
    }
    const double seconds = static_cast<double>(now_ns() - slice_t0) / 1e9;
    Slice sl;
    sl.samples = h.count();
    sl.kops = static_cast<double>(sl.samples) / seconds / 1e3;
    sl.p50_us = interpolated_percentile(h, 50.0) / 1e3;
    sl.p99_us = interpolated_percentile(h, 99.0) / 1e3;
    r.slices.push_back(sl);
  }

  void preload() {
    for_each_preload(c_, [&](std::uint64_t key, std::int64_t value) {
      service_->submit(write_request(key, value));
    });
  }

  const ServingConfig& c_;
  Placement place_;
  pqs::workload::OpenLoopGenerator stream_;
  // Destroyed bottom-up: the client before the server it talks to, the
  // server before the service it borrows, the service (whose completion
  // hook points at loop_) before loop_.
  std::unique_ptr<LoopState> loop_;
  std::unique_ptr<KvService> service_;
  std::unique_ptr<pqs::net::KvServer> server_;
  std::unique_ptr<pqs::net::Client> client_;
  pqs::serve::ShardAggregate base_;
  // Requests issued after the preload; written by the load thread only,
  // read by the stall watchdog too. drained_: issued_ at the last drain
  // of the net client.
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> drained_{0};
  pqs::stats::LatencyHistogram client_seen_;  // client histogram so far
  pqs::net::ClientStats client_stats_;
  std::uint64_t client_sent_ = 0, client_received_ = 0, protocol_errors_ = 0;
};

// Replays the deployment's exact request stream (preload, then the
// first `ops` generated requests) through an in-process KvService with
// one worker and returns its per-shard aggregates.
std::vector<pqs::serve::ShardAggregate> in_process_replay(
    const ServingConfig& c, std::uint64_t seed, std::uint64_t ops,
    const Placement& p) {
  KvService service(service_config(c, seed));
  start_on(p.worker, p.load, [&] { service.start(); });
  for_each_preload(c, [&](std::uint64_t key, std::int64_t value) {
    service.submit(write_request(key, value));
  });
  auto stream = make_stream(c, seed);
  pqs::workload::Operation op;
  for (std::uint64_t i = 0; i < ops; ++i) {
    stream.next(op);
    pqs::serve::Request req;
    req.key = op.key;
    req.value = op.value;
    req.is_read = op.is_read;
    service.submit(req);
  }
  service.stop_and_drain();
  return service.aggregates();
}

// The checks every serving run makes on its own outputs.
void check_serving(const ServingConfig& c, std::uint64_t seed,
                   const Deployment& d,
                   std::uint64_t timed_reads, std::uint64_t timed_stale,
                   const Placement& p, Report& report) {
  const auto fold = d.service().fold_aggregates();
  report.verdicts.push_back(check_exactly_once(
      d.sent(), d.answered(), fold.reads + fold.writes,
      d.preload_ops() + d.issued()));
  report.verdicts.push_back(
      check_stale(timed_stale, timed_reads, closed_form_epsilon(c)));
  if (c.net) {
    report.verdicts.push_back(check_aggregates_equal(
        d.service().aggregates(),
        in_process_replay(c, seed, d.issued(), p)));
    Verdict clean{"no_client_recovery",
                  d.client_stats().retries == 0 &&
                      d.client_stats().abandoned == 0 &&
                      d.client_stats().timeouts == 0 &&
                      d.protocol_errors() == 0,
                  "retries " + std::to_string(d.client_stats().retries) +
                      ", abandoned " + std::to_string(d.client_stats().abandoned) +
                      ", protocol errors " + std::to_string(d.protocol_errors())};
    report.verdicts.push_back(clean);
  }
}

// ---- the replica replay (traced runs) -------------------------------------

struct ReplayStats {
  std::vector<double> read_ns, write_ns;  // per-call batch means
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t servers = 0, replies = 0, rejected = 0;
  std::uint64_t records = 0;
};

// Reports the replica-layer metrics and returns the median per-call time
// of a replica operation, reads and writes together.
double replay_replica(const ServingConfig& c, std::uint64_t seed,
                      const KvService& router, Report& report) {
  const auto system = make_system(c);
  std::vector<std::unique_ptr<pqs::replica::InstantCluster>> clusters;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    pqs::replica::InstantCluster::Config cfg;
    cfg.quorums = system;
    cfg.mode = c.mode;
    cfg.read_threshold = c.k;
    cfg.seed = service_seed(seed) + 0x1000 * (s + 1);
    clusters.push_back(std::make_unique<pqs::replica::InstantCluster>(
        cfg, c.b > 0 ? pqs::replica::FaultPlan::prefix(c.n, c.b, c.fault)
                     : pqs::replica::FaultPlan(c.n)));
  }
  pqs::replica::WriteResult w;
  pqs::replica::ReadResult r;
  for_each_preload(c, [&](std::uint64_t key, std::int64_t value) {
    clusters[router.shard_of(key)]->write_into(w, key, value);
  });
  auto gen = make_stream(c, seed);
  pqs::workload::Operation op;
  for (std::uint64_t i = 0; i < kWarmupOps; ++i) {
    gen.next(op);
    auto& cluster = *clusters[router.shard_of(op.key)];
    if (op.is_read) cluster.read_into(r, op.key); else cluster.write_into(w, op.key, op.value);
  }

  // Each shard's reads and writes are gathered into batches of
  // kReplayBatch and run back to back, one span per batch.
  ReplayStats st;
  std::vector<std::vector<pqs::workload::Operation>> pending_reads(kShards),
      pending_writes(kShards);
  const auto run_batch = [&](std::uint32_t s, bool reads) {
    auto& batch = reads ? pending_reads[s] : pending_writes[s];
    if (batch.empty()) return;
    auto& cluster = *clusters[s];
    std::uint64_t servers = 0, replies = 0, rejected = 0;
    const std::uint64_t t0 = now_ns();
    for (const auto& o : batch) {
      if (reads) {
        cluster.read_into(r, o.key);
        servers += r.quorum.size();
        replies += r.replies;
        rejected += r.selection.rejected;
      } else {
        cluster.write_into(w, o.key, o.value);
        servers += w.quorum.size();
      }
    }
    const std::uint64_t t1 = now_ns();
    const auto calls = static_cast<std::uint32_t>(batch.size());
    if (Tracer::active() != nullptr) {
      Tracer::active()->record(reads ? "replica.read_ns" : "replica.write_ns",
                               -1, s, calls, t0, t1);
    }
    (reads ? st.read_ns : st.write_ns)
        .push_back(static_cast<double>(t1 - t0) / calls);
    (reads ? st.reads : st.writes) += calls;
    st.servers += servers;
    st.replies += replies;
    st.rejected += rejected;
    batch.clear();
  };
  for (std::uint64_t i = 0; i < kReplayOps; ++i) {
    gen.next(op);
    const std::uint32_t s = router.shard_of(op.key);
    auto& batch = op.is_read ? pending_reads[s] : pending_writes[s];
    batch.push_back(op);
    if (batch.size() == kReplayBatch) run_batch(s, op.is_read);
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    run_batch(s, true);
    run_batch(s, false);
  }

  // replica::select on the replies a freshly drawn quorum returns.
  pqs::math::Rng rng(seed ^ 0x5e1ec7ULL);
  pqs::quorum::QuorumBitset mask(c.n);
  std::vector<std::vector<pqs::replica::ReadReply>> reply_sets(2048);
  std::vector<std::uint32_t> reply_shard(reply_sets.size());
  for (std::size_t i = 0; i < reply_sets.size(); ++i) {
    gen.next(op);
    const std::uint32_t s = router.shard_of(op.key);
    reply_shard[i] = s;
    system->sample_mask(mask, rng);
    mask.for_each_set_bit([&](pqs::quorum::ServerId u) {
      pqs::replica::ReadReply reply;
      if (clusters[s]->server(u).serve_read(pqs::replica::ReadRequest{0, op.key},
                                            reply)) {
        reply_sets[i].push_back(reply);
      }
    });
  }
  std::uint64_t select_calls = 0;
  std::uint64_t chosen = 0;
  const double select_ns = time_batches(
      "replica.select_ns", kReplayBatch,
      static_cast<std::uint32_t>(reply_sets.size() / kReplayBatch),
      [&](std::uint64_t i) {
        const auto& cluster = *clusters[reply_shard[i]];
        chosen += pqs::replica::select(c.mode, reply_sets[i],
                                       &cluster.verifier(), c.k)
                      .has_value;
      },
      &select_calls);

  // Correct servers must each hold every key; Byzantine ones acknowledge
  // writes without storing them.
  std::uint64_t correct_records = 0, correct_servers = 0;
  for (const auto& cluster : clusters) {
    for (std::uint32_t u = 0; u < cluster->universe_size(); ++u) {
      const std::uint64_t held = cluster->server(u).snapshot().size();
      st.records += held;
      if (cluster->server(u).mode() == FaultMode::kCorrect) {
        correct_records += held;
        ++correct_servers;
      }
    }
  }
  // Shards are disjoint key ranges over replicas of one universe, so the
  // correct servers of all shards together hold each key once per slot.
  const std::uint64_t expected = correct_servers / kShards * c.keys;
  report.verdicts.push_back(
      {"preload_reaches_every_server", correct_records == expected,
       std::to_string(correct_records) + " records on correct servers, " +
           std::to_string(expected) + " expected"});

  std::vector<double> mixed = st.read_ns;
  mixed.insert(mixed.end(), st.write_ns.begin(), st.write_ns.end());
  report.layer("replica.read_ns", percentile(st.read_ns, 50.0), "ns", st.reads);
  report.layer("replica.write_ns", percentile(st.write_ns, 50.0), "ns",
               st.writes);
  report.layer("replica.select_ns", select_ns, "ns", select_calls);
  report.layer("replica.servers_per_op",
               static_cast<double>(st.servers) / (st.reads + st.writes),
               "count", st.reads + st.writes);
  report.layer("replica.replies_per_read",
               st.reads ? static_cast<double>(st.replies) / st.reads : 0.0,
               "count", st.reads);
  report.layer("replica.useful_reply_ratio",
               st.replies ? static_cast<double>(st.replies - st.rejected) /
                                st.replies
                          : 0.0,
               "ratio", st.replies);
  report.layer("replica.records_stored", static_cast<double>(st.records),
               "count", st.records);
  (void)chosen;
  return percentile(mixed, 50.0);
}

// KvService::submit's cost (router hash plus ring push, with the workers
// popping concurrently): 64-request bursts into a running service of the
// workload's configuration, each burst drained before the next.
void probe_submit(const ServingConfig& c, std::uint64_t seed,
                  const Placement& p, Report& report) {
  KvService service(service_config(c, seed ^ 0x5b));
  std::atomic<std::uint64_t> done{0};
  service.set_completion([&done](const pqs::serve::Completion&) {
    done.fetch_add(1, std::memory_order_release);
  });
  start_on(p.worker, p.load, [&] { service.start(); });
  pqs::workload::OpenLoopGenerator gen(stream_spec(c), stream_seed(seed) ^ 2);
  pqs::workload::Operation op;
  std::vector<pqs::serve::Request> burst(64);
  std::uint64_t submitted = 0;
  std::vector<double> per_call;
  for (std::uint32_t b = 0; b < 300; ++b) {
    // Untimed: the previous burst drains and the next one is generated.
    while (done.load(std::memory_order_acquire) != submitted) spin_pause();
    for (auto& r : burst) {
      gen.next(op);
      r = pqs::serve::Request{};
      r.key = op.key;
      r.value = op.value;
      r.is_read = op.is_read;
      r.wants_reply = true;
    }
    const std::uint64_t t0 = now_ns();
    for (const auto& r : burst) service.submit(r);
    const std::uint64_t t1 = now_ns();
    submitted += burst.size();
    if (Tracer::active() != nullptr) {
      Tracer::active()->record("serve.submit_ns", -1, b,
                               static_cast<std::uint32_t>(burst.size()), t0, t1);
    }
    per_call.push_back(static_cast<double>(t1 - t0) / burst.size());
  }
  while (done.load(std::memory_order_acquire) != submitted) spin_pause();
  service.stop_and_drain();
  const std::uint64_t calls = submitted;
  const double per_call_ns = percentile(per_call, 50.0);
  report.layer("serve.submit_ns", per_call_ns, "ns", calls);
}

// Client::send's own cost when the window never fills: 256-request
// bursts that fill exactly one 8 KiB coalescing buffer (so each burst
// includes one flush), against a fresh loopback deployment.
void probe_client_send(const ServingConfig& c, std::uint64_t seed,
                       const Placement& p, Report& report) {
  KvService service(service_config(c, seed ^ 0xb0b));
  pqs::net::KvServer server(pqs::net::KvServer::Config{}, service);
  start_on(p.server_io, p.load, [&] { server.start(); });
  start_on(p.worker, p.load, [&] { service.start(); });
  pqs::net::Client::Config cfg;
  cfg.port = server.port();
  cfg.window = 4096;
  pqs::net::Client client(cfg);
  start_on(p.client_reader, p.load, [&] { client.start(); });
  pqs::workload::OpenLoopGenerator gen(stream_spec(c), stream_seed(seed) ^ 1);
  pqs::workload::Operation op;
  std::vector<double> per_call;
  constexpr std::uint32_t kBurst = 256;
  for (std::uint32_t b = 0; b < 200; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      gen.next(op);
      client.send(op.key, op.value, op.is_read, client.now_ns());
    }
    const std::uint64_t t1 = now_ns();
    if (Tracer::active() != nullptr) {
      Tracer::active()->record("net.client.send_ns", -1, b, kBurst, t0, t1);
    }
    per_call.push_back(static_cast<double>(t1 - t0) / kBurst);
    client.drain();
  }
  client.stop();
  service.stop_and_drain();
  server.stop();
  report.layer("net.client.send_ns", percentile(per_call, 50.0), "ns",
               per_call.size() * kBurst);
}

void run_serving(const ServingConfig& c, const Options& o,
                 const std::vector<int>& cpus, Report& report) {
  const Placement p = place(c, cpus);
  pin_current_thread(p.load);
  const double epsilon = closed_form_epsilon(c);

  report.note_str("workload", c.name);
  report.note("shards", kShards);
  report.note("workers", kWorkers);
  report.note("window", kWindow);
  report.note("keys", static_cast<double>(c.keys));
  report.note("zipf_exponent", kZipf);
  report.note("read_fraction", c.read_fraction);
  report.note_str("quorum_system", make_system(c)->name());
  report.note_str("read_mode", pqs::replica::read_mode_name(c.mode));
  report.note("byzantine_servers", c.b);
  report.note("masking_k", c.k);
  report.note("closed_form_epsilon", epsilon);
  report.note("preload_rounds", static_cast<double>(preload_rounds(c)));
  report.note("preload_ops", static_cast<double>(preload_rounds(c) * c.keys));
  report.note("warmup_ops", static_cast<double>(kWarmupOps));
  report.note("cpus_load_thread", cpu_list_json(p.load));
  report.note("cpus_service_worker", cpu_list_json(p.worker));
  if (c.net) {
    report.note("cpus_client_reader", cpu_list_json(p.client_reader));
    report.note("cpus_server_io", cpu_list_json(p.server_io));
    report.note_str("transport", "loopback TCP, 1 connection, 1 IO thread");
  }

  // Set-up: construction, preload and warm-up, repeated; the last
  // deployment is the one measured.
  // The socket reader and the epoll loop block between messages; keep
  // their CPUs awake (see IdleSpinners).
  std::vector<int> blocking = p.client_reader;
  blocking.insert(blocking.end(), p.server_io.begin(), p.server_io.end());
  const IdleSpinners spinners(blocking);
  report.note("cpus_idle_spinners", cpu_list_json(blocking));

  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
    d.reset();
    // Hand a discarded deployment's memory back to the system, so the
    // peak resident size reflects one deployment rather than how the
    // allocator's per-thread arenas happened to keep earlier ones.
    malloc_trim(0);
    const std::uint64_t t0 = now_ns();
    d = std::make_unique<Deployment>(c, o.seed, p);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.note("setups", static_cast<double>(setups.size()));
  report.note("setup_times_s", json_numbers(setups));

  if (!o.trace) {
    PhaseResult timed = d->run_phase(o.seconds, ~0ULL, false);
    d->finish(timed);
    // Read before the checks: the in-process replay that check_serving
    // runs is the benchmark's memory, not the deployment's.
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    check_serving(c, o.seed, *d, timed.reads, timed.stale, p, report);
    report.attempted = timed.ops;
    report.failed = d->sent() - d->answered();
    report.e2e("setup_s", percentile(setups, 50.0), "s", setups.size());
    report.e2e("throughput_kops", timed.kops, "k/s", timed.ops);
    report.e2e("lat_p50_us", timed.p50_us, "us", timed.latency_samples);
    report.e2e("lat_p99_us", timed.p99_us, "us", timed.latency_samples);
    report.e2e("stale_ratio",
               timed.reads ? static_cast<double>(timed.stale) / timed.reads : 0.0,
               "ratio", timed.reads);
    report.note("timed_seconds", timed.elapsed_s);
    report.note("slices", static_cast<double>(timed.slices.size()));
    std::vector<double> slice_kops, slice_p99;
    for (const Slice& sl : timed.slices) {
      slice_kops.push_back(sl.kops);
      slice_p99.push_back(sl.p99_us);
    }
    report.note("slice_kops", json_numbers(slice_kops));
    report.note("slice_p99_us", json_numbers(slice_p99));
    return;
  }

  // Traced run: an untraced phase, then a traced phase of at most
  // kTracedOps requests on the same deployment, then the replay and the
  // layer probes.
  PhaseResult plain = d->run_phase(o.seconds / 2, ~0ULL, false);
  d->quiesce(plain);
  Tracer tracer(kTracedOps * 5 + 400000);
  Tracer::install(&tracer);
  const std::uint64_t traced_t0 = now_ns();
  PhaseResult traced = d->run_phase(o.seconds / 2, kTracedOps, true);
  const double phase_wall_ns = static_cast<double>(now_ns() - traced_t0);
  d->finish(traced);
  check_serving(c, o.seed, *d, plain.reads + traced.reads,
                plain.stale + traced.stale, p, report);
  report.attempted = plain.ops + traced.ops;
  report.failed = d->sent() - d->answered();

  report.e2e("throughput_kops", plain.kops, "k/s", plain.ops);
  report.e2e("lat_p50_us", plain.p50_us, "us", plain.latency_samples);
  report.e2e("lat_p99_us", plain.p99_us, "us", plain.latency_samples);

  // Spans of the traced phase only, before the replay and probes add theirs.
  const std::vector<Span> phase_spans = tracer.spans();
  std::vector<std::uint64_t> latencies;
  for (const Span& s : phase_spans) {
    if (std::string(s.name) == (c.net ? "net.client.send" : "serve.request")) {
      latencies.push_back(s.end_ns - s.start_ns);
    }
  }

  report.layer("trace.overhead_ratio", traced.kops / plain.kops, "ratio",
               traced.ops);
  report.layer("serve.service_p50_us", plain.service_p50_us, "us",
               plain.service_samples);
  report.layer("serve.service_p99_us", plain.service_p99_us, "us",
               plain.service_samples);
  report.layer("workload.window_wait_share",
               traced.window_wait_ns / phase_wall_ns, "ratio", traced.ops);
  report.layer("stale_ratio",
               static_cast<double>(plain.stale + traced.stale) /
                   std::max<std::uint64_t>(1, plain.reads + traced.reads),
               "ratio", plain.reads + traced.reads);
  if (c.net) {
    report.layer("net.rtt_minus_service_p50_us",
                 plain.p50_us - plain.service_p50_us, "us",
                 plain.latency_samples);
    report.layer("net.client.retries",
                 static_cast<double>(d->client_stats().retries), "count", 1);
    report.layer("net.client.abandoned",
                 static_cast<double>(d->client_stats().abandoned), "count", 1);
    report.layer("net.server.protocol_errors",
                 static_cast<double>(d->protocol_errors()), "count", 1);
  }

  const double replica_p50_ns = replay_replica(c, o.seed, d->service(), report);
  report.layer("serve.queue_wait_p50_us",
               plain.service_p50_us - replica_p50_ns / 1e3, "us",
               plain.service_samples);

  const auto system = make_system(c);
  probe_quorum(*system, o.seed, report);
  probe_crypto(o.seed, report);
  probe_stats_record(latencies, report);
  probe_workload_next(stream_spec(c), o.seed, report);
  {
    pqs::workload::OpenLoopGenerator gen(stream_spec(c), stream_seed(o.seed));
    std::vector<pqs::workload::Operation> ops(4096);
    for (auto& op : ops) gen.next(op);
    probe_frame_codec(ops, report);
  }
  probe_submit(c, o.seed, p, report);
  if (c.net) {
    probe_client_send(c, o.seed, p, report);
  } else {
    report.unmeasured.emplace_back(
        "net.client.*, net.server.*, net.rtt_minus_service_p50_us",
        "no socket path: the load thread submits in-process");
  }
  if (c.probe_estimators) {
    probe_estimators(o.seed, p.load, p.worker, report);
  } else {
    report.unmeasured.emplace_back("core.*, simd.*",
                                   "no Monte-Carlo estimator runs");
  }

  Tracer::install(nullptr);
  report.spans = tracer.spans();
  report.traced_wall_ns = static_cast<double>(now_ns() - traced_t0);
  report.spans_dropped = tracer.dropped();
  report.trace_path = std::string(kOutDir) + "/" + c.name + ".trace.json";
  if (!tracer.write_chrome_json(report.trace_path)) report.trace_path.clear();
}

}  // namespace

void run_net_ycsb_a(const Options& o, const std::vector<int>& cpus, Report& r) {
  run_serving(kNet, o, cpus, r);
}
void run_kv_masking_ycsb_b(const Options& o, const std::vector<int>& cpus,
                           Report& r) {
  run_serving(kMasking, o, cpus, r);
}
void run_kv_dissem_ycsb_a(const Options& o, const std::vector<int>& cpus,
                          Report& r) {
  run_serving(kDissem, o, cpus, r);
}

std::uint32_t serving_threads(const std::string& workload) {
  for (const ServingConfig* c : {&kNet, &kMasking, &kDissem}) {
    if (workload == c->name) return 1 + kWorkers + (c->net ? 2 : 0);
  }
  return 0;
}

}  // namespace perfbench
