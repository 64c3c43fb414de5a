// The sharded in-memory key-value serving tier.
//
// N `serve::Shard`s (shard.h) sit behind a request router: keys hash to
// shards, every shard owns a bounded lock-free MPSC ring
// (util::MpscRing), and a fixed set of worker threads batch-dequeues
// requests and applies each with Shard::apply. The submit path is one
// hash plus one ring push — no locks, no allocation — and the worker hot
// loop is allocation-free in steady state (Shard::apply, a fixed-size
// latency histogram).
//
// Determinism contract (the serving-tier face of the repo-wide one): the
// router hash is a pure function of the key, each shard applies its
// requests in FIFO order, and shard clusters are seeded independently —
// so as long as every shard's request subsequence arrives in a fixed
// order (one producer, or producers partitioned by shard), each shard's
// aggregate counters are bit-identical across worker-thread counts and
// SIMD tables, and pinned to committed goldens in the serving tests.
// Latency histograms are measured (timing-dependent) and deliberately
// excluded from the aggregate.
//
// Latency is recorded against the request's *scheduled* arrival time
// (workload::OpenLoopGenerator), so queueing delay from a backed-up shard
// is charged to every request that was due while it was busy —
// coordinated-omission-safe by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "quorum/quorum_system.h"
#include "replica/instant_cluster.h"
#include "serve/shard.h"
#include "stats/counters.h"
#include "stats/latency_histogram.h"
#include "stats/load_profile.h"
#include "util/mpsc_ring.h"

namespace pqs::serve {

// What the completion hook learns about one finished request: the opaque
// routing words echoed verbatim, plus the protocol outcome (for reads,
// the selected record — `found` false when no selection survived).
struct Completion {
  std::uint64_t ctx = 0;
  std::uint64_t request_id = 0;
  std::uint64_t key = 0;
  std::int64_t value = 0;  // read: selected value; write: written value
  bool is_read = false;
  bool found = false;  // read: selection nonempty; write: always true
};

class KvService {
 public:
  struct Config {
    std::uint32_t shards = 4;
    // Shard-serving threads; shard s is owned by worker s % workers.
    // Clamped to [1, shards].
    std::uint32_t workers = 1;
    std::size_t queue_capacity = 4096;  // per-shard ring slots
    std::shared_ptr<const quorum::QuorumSystem> quorums;
    std::uint64_t seed = 1;  // shard s cluster seed derives from this
    // Dynamic membership on every shard cluster (see
    // replica::InstantCluster::Config): the quorum system's universe
    // becomes slot capacity, draws follow each shard's live view, and
    // submit_churn becomes legal. Per-shard churn seeds derive from
    // `seed`, so churned runs stay deterministic end to end.
    bool dynamic_membership = false;
    std::uint32_t initial_live = 0;  // 0 = all slots live
    // Read-selection rule every shard cluster applies (plain /
    // dissemination / masking) and the masking voucher threshold k.
    // Defaults preserve the pre-Byzantine service byte for byte.
    replica::ReadMode read_mode = replica::ReadMode::kPlain;
    std::uint32_t read_threshold = 1;
    // Initial fault assignment, applied identically to every shard
    // cluster (shards are iid replicas of one universe, so "server u is
    // Byzantine" means slot u in each shard). Live flips go through
    // submit_fault. Size must match the quorum universe when set.
    std::optional<replica::FaultPlan> faults;
    // Workload-aware access strategy installed on every shard cluster
    // (see replica::InstantCluster::Config::strategy): writes draw the
    // strategy's write distribution, reads its read distribution, and
    // each shard's draws land in ShardAggregate::strategy_draws /
    // strategy_checksum inside the bit-identity gate. `quorums` may be
    // left null (the strategy serves as the quorum system) and
    // dynamic_membership must stay off.
    std::shared_ptr<const quorum::Strategy> strategy;
  };

  // Called from the owning worker thread after a request's protocol work
  // and latency record are done — the submission/completion seam the
  // network front end plugs into. The handler must not block (it runs in
  // the shard-serving hot loop); it fires only for requests that set
  // wants_reply, so pure in-process drivers pay nothing.
  using CompletionHandler = std::function<void(const Completion&)>;

  explicit KvService(Config config);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  std::uint32_t workers() const { return config_.workers; }
  bool running() const { return running_; }

  // Installs (or clears, with nullptr) the completion hook. Only while
  // stopped: worker threads read the handler unsynchronized, so the
  // start() thread launch is what publishes it.
  void set_completion(CompletionHandler handler);

  // Which shard serves `key` — a pure function of the key (SplitMix64
  // finalizer, then a multiply-shift range reduction).
  std::uint32_t shard_of(std::uint64_t key) const;

  // Launches the worker threads and (re)starts the service clock — the
  // timebase of Request::scheduled_ns. A drained service can be started
  // again: cluster state and counters persist across runs, which is how
  // the bench sweeps offered load on one deployment and reports each
  // point's traffic as a stats::snapshot_delta.
  void start();

  // Lock-free submit: routes to the key's shard and pushes. Returns false
  // when that shard's ring is full (the caller owns backpressure).
  bool try_submit(const Request& request);
  // Spins until the shard accepts (the bench's backpressure policy: an
  // open-loop driver that outruns the service accrues scheduled-arrival
  // lag, which the latency histogram then reports as queueing delay).
  void submit(const Request& request);

  // Enqueues a membership change on `shard` as an in-band request (spins
  // like submit when the ring is full). `arg` is the slot for
  // kJoin/kLeave and ignored for kReplace. The change applies at its
  // FIFO position in the shard's request subsequence — between the
  // requests submitted before and after it — so churned runs keep the
  // bit-identity contract. Requires Config::dynamic_membership.
  void submit_churn(std::uint32_t shard, ChurnKind kind, std::uint64_t arg = 0);

  // Enqueues a flip of server `slot` on `shard` to `mode` as an in-band
  // request (spins like submit when the ring is full). The flip applies
  // at its FIFO position in the shard's request subsequence, exactly like
  // churn — so adversarial runs keep the bit-identity contract: the same
  // submission order yields the same aggregates at any worker count.
  void submit_fault(std::uint32_t shard, replica::FaultMode mode,
                    std::uint64_t slot);

  // Flags shutdown, waits for every ring to drain, joins the workers.
  // All submits must have completed before the call. The service may be
  // start()ed again afterwards.
  void stop_and_drain();

  // Clears the per-shard latency histograms (only while stopped) so a
  // restarted run reports its own percentiles; the deterministic
  // aggregates and protocol counters keep accumulating regardless.
  void reset_latency();

  // Nanoseconds since start() on the service's steady clock — the
  // timebase of Request::scheduled_ns.
  std::uint64_t now_ns() const;

  // Observability of a stopped service (before start() or after
  // stop_and_drain()).
  ShardAggregate fold_aggregates() const;
  std::vector<ShardAggregate> aggregates() const;
  stats::LatencyHistogram merged_histogram() const;
  // Per-server protocol counters folded across shard clusters (shards are
  // iid replicas of one universe, so merging by server id is the fold).
  stats::ContentionSnapshot contention_snapshot() const;
  // Measured per-server load over client-side quorum contacts.
  stats::LoadProfile server_profile() const;

 private:
  // One shard's ring and what its owning worker keeps for it.
  struct Lane {
    Lane(std::size_t queue_capacity,
         std::unique_ptr<replica::InstantCluster> cluster)
        : ring(queue_capacity), shard(std::move(cluster)) {}
    util::MpscRing<Request> ring;
    // Worker-private below: only the owning worker touches them between
    // start() and stop_and_drain().
    Shard shard;
    stats::LatencyHistogram histogram;
  };

  void worker_loop(std::uint32_t worker);
  void process(Lane& lane, const Request& request);

  Config config_;
  CompletionHandler completion_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;
  std::chrono::steady_clock::time_point epoch_{};
};

}  // namespace pqs::serve
