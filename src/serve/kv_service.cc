#include "serve/kv_service.h"

#include <algorithm>

#include "util/require.h"

namespace pqs::serve {

namespace {

// Most requests a worker takes from one ring per dequeue.
constexpr std::size_t kDequeueBatch = 64;

// SplitMix64 finalizer: the router hash. Any fixed bijective mixer works;
// this one is already the library's seeding primitive, so shard placement
// is reproducible everywhere for free.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

KvService::KvService(Config config) : config_(std::move(config)) {
  PQS_REQUIRE(config_.shards >= 1, "service needs shards");
  if (config_.strategy != nullptr) {
    PQS_REQUIRE(!config_.dynamic_membership,
                "a strategy cannot be combined with dynamic membership");
    if (config_.quorums == nullptr) config_.quorums = config_.strategy;
  }
  PQS_REQUIRE(config_.quorums != nullptr, "service needs a quorum system");
  config_.workers = std::max<std::uint32_t>(
      1, std::min(config_.workers, config_.shards));
  const replica::FaultPlan faults = config_.faults.value_or(
      replica::FaultPlan(config_.quorums->universe_size()));
  lanes_.reserve(config_.shards);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    replica::InstantCluster::Config cluster_cfg;
    cluster_cfg.quorums = config_.quorums;
    cluster_cfg.mode = config_.read_mode;
    cluster_cfg.read_threshold = config_.read_threshold;
    cluster_cfg.seed = config_.seed + 0x51ed2701ULL * (s + 1);
    cluster_cfg.dynamic_membership = config_.dynamic_membership;
    cluster_cfg.initial_live = config_.initial_live;
    cluster_cfg.churn_seed = config_.seed + 0xc4a84e11ULL * (s + 1);
    cluster_cfg.strategy = config_.strategy;
    lanes_.push_back(std::make_unique<Lane>(
        config_.queue_capacity, std::make_unique<replica::InstantCluster>(
                                    std::move(cluster_cfg), faults)));
  }
}

KvService::~KvService() {
  if (running_) {
    stopping_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
  }
}

void KvService::set_completion(CompletionHandler handler) {
  PQS_REQUIRE(!running_, "set_completion needs a stopped service");
  completion_ = std::move(handler);
}

std::uint32_t KvService::shard_of(std::uint64_t key) const {
  // Multiply-shift range reduction of the mixed key: unbiased enough for
  // routing and, crucially, a pure function of (key, shard count).
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(mix64(key)) * lanes_.size();
  return static_cast<std::uint32_t>(wide >> 64);
}

void KvService::start() {
  PQS_REQUIRE(!running_, "service already running");
  running_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  threads_.reserve(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

bool KvService::try_submit(const Request& request) {
  return lanes_[shard_of(request.key)]->ring.try_push(request);
}

void KvService::submit(const Request& request) {
  Lane& lane = *lanes_[shard_of(request.key)];
  while (!lane.ring.try_push(request)) {
    // Ring full: the shard is the bottleneck. Spin — the open-loop
    // deadline keeps accruing, so the stall is measured, not hidden.
    std::this_thread::yield();
  }
}

void KvService::submit_churn(std::uint32_t shard, ChurnKind kind,
                             std::uint64_t arg) {
  PQS_REQUIRE(config_.dynamic_membership, "static membership");
  PQS_REQUIRE(kind != ChurnKind::kNone, "churn kind");
  Request request;
  request.key = arg;
  request.churn = kind;
  util::MpscRing<Request>& ring = lanes_.at(shard)->ring;
  while (!ring.try_push(request)) std::this_thread::yield();
}

void KvService::submit_fault(std::uint32_t shard, replica::FaultMode mode,
                             std::uint64_t slot) {
  PQS_REQUIRE(slot < config_.quorums->universe_size(), "fault slot");
  Request request;
  request.key = slot;
  request.fault = mode;
  util::MpscRing<Request>& ring = lanes_.at(shard)->ring;
  while (!ring.try_push(request)) std::this_thread::yield();
}

void KvService::stop_and_drain() {
  PQS_REQUIRE(running_, "service not running");
  stopping_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
  threads_.clear();
  running_ = false;
}

void KvService::reset_latency() {
  PQS_REQUIRE(!running_, "reset_latency needs a stopped service");
  for (auto& lane : lanes_) lane->histogram = stats::LatencyHistogram();
}

std::uint64_t KvService::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void KvService::worker_loop(std::uint32_t worker) {
  // One dequeue buffer per worker, allocated before the hot loop.
  std::vector<Request> batch(kDequeueBatch);
  const std::uint32_t step = config_.workers;
  for (;;) {
    bool progress = false;
    for (std::uint32_t s = worker; s < lanes_.size(); s += step) {
      Lane& lane = *lanes_[s];
      const std::size_t taken =
          lane.ring.pop_batch(batch.data(), batch.size());
      for (std::size_t i = 0; i < taken; ++i) process(lane, batch[i]);
      progress |= taken > 0;
    }
    if (progress) continue;
    if (stopping_.load(std::memory_order_acquire)) {
      // Producers are done and their pushes are visible; one empty sweep
      // over the owned rings means there is nothing left to drain.
      bool all_empty = true;
      for (std::uint32_t s = worker; s < lanes_.size(); s += step) {
        if (!lanes_[s]->ring.empty()) {
          all_empty = false;
          break;
        }
      }
      if (all_empty) return;
    } else {
      std::this_thread::yield();
    }
  }
}

void KvService::process(Lane& lane, const Request& request) {
  // Churn and fault flips are control traffic: no latency record, no
  // completion.
  if (!lane.shard.apply(request)) return;
  // Latency from the *scheduled* arrival (coordinated-omission-safe); an
  // unpaced driver stamps submit time, making this pure service+queue
  // time instead.
  const std::uint64_t now = now_ns();
  lane.histogram.record(now > request.scheduled_ns
                            ? now - request.scheduled_ns
                            : 0);
  // Completion fires after the latency record so a caller that observed
  // the reply knows this shard's histogram and aggregates already hold
  // the request.
  if (request.wants_reply && completion_) {
    Completion done;
    done.ctx = request.ctx;
    done.request_id = request.request_id;
    done.key = request.key;
    done.is_read = request.is_read;
    if (request.is_read) {
      const replica::ReadSelection& selection = lane.shard.selection();
      done.found = selection.has_value;
      done.value = done.found ? selection.record.value : 0;
    } else {
      done.found = true;
      done.value = request.value;
    }
    completion_(done);
  }
}

ShardAggregate KvService::fold_aggregates() const {
  ShardAggregate total;
  for (const auto& lane : lanes_) total += lane->shard.aggregate();
  return total;
}

std::vector<ShardAggregate> KvService::aggregates() const {
  std::vector<ShardAggregate> all;
  all.reserve(lanes_.size());
  for (const auto& lane : lanes_) all.push_back(lane->shard.aggregate());
  return all;
}

stats::LatencyHistogram KvService::merged_histogram() const {
  stats::LatencyHistogram merged;
  for (const auto& lane : lanes_) merged.merge(lane->histogram);
  return merged;
}

stats::ContentionSnapshot KvService::contention_snapshot() const {
  stats::ContentionSnapshot merged;
  for (const auto& lane : lanes_) {
    merged.merge(lane->shard.cluster().contention_snapshot());
  }
  return merged;
}

stats::LoadProfile KvService::server_profile() const {
  stats::LoadProfile merged;
  for (const auto& lane : lanes_) merged.merge(lane->shard.profile());
  return merged;
}

}  // namespace pqs::serve
