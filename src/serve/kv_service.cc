#include "serve/kv_service.h"

#include <algorithm>
#include <ostream>

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
  shards_.reserve(config_.shards);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(config_.queue_capacity);
    replica::InstantCluster::Config cluster_cfg;
    cluster_cfg.quorums = config_.quorums;
    cluster_cfg.mode = config_.read_mode;
    cluster_cfg.read_threshold = config_.read_threshold;
    cluster_cfg.seed = config_.seed + 0x51ed2701ULL * (s + 1);
    cluster_cfg.dynamic_membership = config_.dynamic_membership;
    cluster_cfg.initial_live = config_.initial_live;
    cluster_cfg.churn_seed = config_.seed + 0xc4a84e11ULL * (s + 1);
    cluster_cfg.strategy = config_.strategy;
    if (config_.faults.has_value()) {
      PQS_REQUIRE(config_.faults->size() == config_.quorums->universe_size(),
                  "fault plan size");
      shard->cluster = std::make_unique<replica::InstantCluster>(
          std::move(cluster_cfg), *config_.faults);
    } else {
      shard->cluster =
          std::make_unique<replica::InstantCluster>(std::move(cluster_cfg));
    }
    shard->accesses.assign(shard->cluster->universe_size(), 0);
    shards_.push_back(std::move(shard));
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
      static_cast<unsigned __int128>(mix64(key)) * shards_.size();
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
  return shards_[shard_of(request.key)]->ring.try_push(request);
}

void KvService::submit(const Request& request) {
  Shard& shard = *shards_[shard_of(request.key)];
  while (!shard.ring.try_push(request)) {
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
  util::MpscRing<Request>& ring = shards_.at(shard)->ring;
  while (!ring.try_push(request)) std::this_thread::yield();
}

void KvService::submit_fault(std::uint32_t shard, replica::FaultMode mode,
                             std::uint64_t slot) {
  PQS_REQUIRE(slot < config_.quorums->universe_size(), "fault slot");
  Request request;
  request.key = slot;
  request.fault = mode;
  util::MpscRing<Request>& ring = shards_.at(shard)->ring;
  while (!ring.try_push(request)) std::this_thread::yield();
}

void KvService::stop_and_drain() {
  PQS_REQUIRE(running_, "service not running");
  stopping_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
  threads_.clear();
  running_ = false;
  // The checksum folds the per-server contact counts into one
  // order-sensitive word (same shape as the protocol harness gate).
  for (auto& shard : shards_) {
    std::uint64_t checksum = 0;
    for (std::size_t u = 0; u < shard->accesses.size(); ++u) {
      checksum += (static_cast<std::uint64_t>(u) + 1) * shard->accesses[u];
    }
    shard->aggregate.access_checksum = checksum;
    shard->aggregate.membership_epoch = shard->cluster->view_epoch();
    const auto draw_stats = shard->cluster->strategy_draw_stats();
    shard->aggregate.strategy_draws = draw_stats.draws;
    shard->aggregate.strategy_checksum = draw_stats.checksum;
  }
}

void KvService::reset_latency() {
  PQS_REQUIRE(!running_, "reset_latency needs a stopped service");
  for (auto& shard : shards_) shard->histogram = stats::LatencyHistogram();
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
    for (std::uint32_t s = worker; s < shards_.size(); s += step) {
      Shard& shard = *shards_[s];
      const std::size_t taken =
          shard.ring.pop_batch(batch.data(), batch.size());
      for (std::size_t i = 0; i < taken; ++i) process(shard, batch[i]);
      progress |= taken > 0;
    }
    if (progress) continue;
    if (stopping_.load(std::memory_order_acquire)) {
      // Producers are done and their pushes are visible; one empty sweep
      // over the owned rings means there is nothing left to drain.
      bool all_empty = true;
      for (std::uint32_t s = worker; s < shards_.size(); s += step) {
        if (!shards_[s]->ring.empty()) {
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

void KvService::process(Shard& shard, const Request& request) {
  ShardAggregate& agg = shard.aggregate;
  if (request.fault.has_value()) {
    // Fault flip at this FIFO position. Like churn: control traffic, so
    // no latency record and no completion.
    shard.cluster->server(static_cast<std::uint32_t>(request.key))
        .set_mode(*request.fault);
    ++agg.fault_events;
    return;
  }
  if (request.churn != ChurnKind::kNone) {
    // Membership change at this FIFO position. No latency record, no
    // completion — churn is control traffic, not a served request.
    switch (request.churn) {
      case ChurnKind::kReplace:
        shard.cluster->churn_replace();
        break;
      case ChurnKind::kJoin:
        shard.cluster->join(static_cast<quorum::ServerId>(request.key));
        break;
      case ChurnKind::kLeave:
        shard.cluster->leave(static_cast<quorum::ServerId>(request.key));
        break;
      case ChurnKind::kNone:
        break;
    }
    ++agg.churn_events;
    return;
  }
  if (request.is_read) {
    ++agg.reads;
    shard.cluster->read_into(shard.read_scratch, request.key);
    for (const auto u : shard.read_scratch.quorum) ++shard.accesses[u];
    const auto& selection = shard.read_scratch.selection;
    // Byzantine accounting first: what the selection rule refused, and
    // whether refusing was enough to still pick a value (masked) or left
    // the read with ⊥ (bot). All deterministic, so inside the gate.
    agg.rejected_forgeries += selection.rejected;
    if (selection.rejected > 0 && selection.has_value) ++agg.masked_reads;
    if (!selection.has_value) ++agg.bot_reads;
    const auto expected = shard.last_written.find(request.key);
    if (expected == shard.last_written.end()) {
      ++agg.empty_reads;
    } else if (!selection.has_value) {
      ++agg.empty_reads;
      ++agg.stale_reads;
    } else if (selection.record.value != expected->second) {
      ++agg.stale_reads;
    }
  } else {
    ++agg.writes;
    shard.cluster->write_into(shard.write_scratch, request.key,
                              request.value);
    for (const auto u : shard.write_scratch.quorum) ++shard.accesses[u];
    shard.last_written[request.key] = request.value;
  }
  // Latency from the *scheduled* arrival (coordinated-omission-safe); an
  // unpaced driver stamps submit time, making this pure service+queue
  // time instead.
  const std::uint64_t now = now_ns();
  shard.histogram.record(now > request.scheduled_ns
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
      done.found = shard.read_scratch.selection.has_value;
      done.value =
          done.found ? shard.read_scratch.selection.record.value : 0;
    } else {
      done.found = true;
      done.value = request.value;
    }
    completion_(done);
  }
}

std::ostream& operator<<(std::ostream& os, const ShardAggregate& a) {
  const char* sep = "{";
#define PQS_AGGREGATE_PRINT(name) \
  os << sep << #name "=" << a.name; \
  sep = ", ";
  PQS_SHARD_AGGREGATE_FIELDS(PQS_AGGREGATE_PRINT)
#undef PQS_AGGREGATE_PRINT
  return os << "}";
}

ShardAggregate KvService::fold_aggregates() const {
  ShardAggregate total;
  for (const auto& shard : shards_) total += shard->aggregate;
  return total;
}

std::vector<ShardAggregate> KvService::aggregates() const {
  std::vector<ShardAggregate> all;
  all.reserve(shards_.size());
  for (const auto& shard : shards_) all.push_back(shard->aggregate);
  return all;
}

stats::LatencyHistogram KvService::merged_histogram() const {
  stats::LatencyHistogram merged;
  for (const auto& shard : shards_) merged.merge(shard->histogram);
  return merged;
}

stats::ContentionSnapshot KvService::contention_snapshot() const {
  stats::ContentionSnapshot merged;
  for (const auto& shard : shards_) {
    merged.merge(shard->cluster->contention_snapshot());
  }
  return merged;
}

stats::LoadProfile KvService::server_profile() const {
  std::vector<std::uint64_t> hits;
  std::uint64_t ops = 0;
  for (const auto& shard : shards_) {
    if (hits.empty()) hits.assign(shard->accesses.size(), 0);
    for (std::size_t u = 0; u < shard->accesses.size(); ++u) {
      hits[u] += shard->accesses[u];
    }
    ops += shard->aggregate.reads + shard->aggregate.writes;
  }
  return stats::LoadProfile(std::move(hits), ops);
}

}  // namespace pqs::serve
