// Simulated point-to-point network.
//
// Network<M> delivers messages of type M between numbered nodes through a
// Simulator, applying a configurable latency model, iid message loss, and
// explicit partitions. Delivery per (sender, receiver) pair preserves the
// order implied by the sampled latencies (no FIFO guarantee is imposed —
// the paper's protocols are timestamp-based and do not need one).
//
// In-flight messages live in a pooled slot arena, not in per-event
// closures: send() parks {from, to, message} in a recycled slot and
// schedules a trivially-copyable {network, slot} thunk that fits
// std::function's small-buffer optimisation. Steady state therefore
// allocates nothing per message — the arena grows to the high-water mark
// of concurrently in-flight messages and is reused from then on (and the
// recycled slots keep their message payload capacity warm).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "math/rng.h"
#include "sim/simulator.h"
#include "util/require.h"

namespace pqs::sim {

using NodeId = std::uint32_t;

struct LatencyModel {
  // Fixed propagation floor plus an exponential jitter component.
  Time base = 100;          // microseconds
  Time jitter_mean = 50;    // mean of the exponential component; 0 = none
  double drop_probability = 0.0;

  Time sample(math::Rng& rng) const {
    Time t = base;
    if (jitter_mean > 0) {
      t += static_cast<Time>(rng.exponential(static_cast<double>(jitter_mean)));
    }
    return t;
  }
};

template <typename M>
class Network {
 public:
  using Handler = std::function<void(NodeId from, const M& message)>;

  Network(Simulator& simulator, LatencyModel latency, math::Rng rng)
      : simulator_(simulator), latency_(latency), rng_(rng) {}

  // Registers the handler for `node`; node ids must be registered densely
  // from 0 upward before any send to them.
  void register_node(NodeId node, Handler handler) {
    if (handlers_.size() <= node) handlers_.resize(node + 1);
    handlers_[node] = std::move(handler);
  }

  // Severs connectivity in both directions between the two groups.
  void partition(std::vector<NodeId> group_a, std::vector<NodeId> group_b) {
    partitions_.push_back({std::move(group_a), std::move(group_b)});
  }
  void heal_partitions() { partitions_.clear(); }

  // Sends `message`; it is dropped silently if the loss model or a
  // partition says so, otherwise delivered after a sampled latency.
  void send(NodeId from, NodeId to, M message) {
    PQS_REQUIRE(to < handlers_.size(), "send to unregistered node");
    ++sent_;
    if (severed(from, to) || rng_.chance(latency_.drop_probability)) {
      ++dropped_;
      return;
    }
    const Time delay = latency_.sample(rng_);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      Slot& s = pool_[slot];
      s.from = from;
      s.to = to;
      s.message = std::move(message);
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Slot{from, to, std::move(message)});
    }
    simulator_.schedule(delay, Delivery{this, slot});
  }

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  struct Partition {
    std::vector<NodeId> a;
    std::vector<NodeId> b;
  };

  // One parked in-flight message. The deque keeps slots address-stable
  // while a delivery handler sends more messages (which may grow the pool
  // mid-delivery).
  struct Slot {
    NodeId from = 0;
    NodeId to = 0;
    M message;
  };

  // The scheduled thunk: 16 trivially-copyable bytes, so std::function
  // stores it inline (no per-message heap node).
  struct Delivery {
    Network* network;
    std::uint32_t slot;
    void operator()() const { network->deliver(slot); }
  };

  void deliver(std::uint32_t slot) {
    ++delivered_;
    Slot& s = pool_[slot];
    if (handlers_[s.to]) handlers_[s.to](s.from, s.message);
    // Recycle only after the handler returns: nested sends grab fresh
    // slots, so `s` stays untouched for the duration of the call.
    free_slots_.push_back(slot);
  }

  static bool contains(const std::vector<NodeId>& v, NodeId x) {
    for (NodeId y : v) {
      if (y == x) return true;
    }
    return false;
  }

  bool severed(NodeId from, NodeId to) const {
    for (const auto& p : partitions_) {
      if ((contains(p.a, from) && contains(p.b, to)) ||
          (contains(p.b, from) && contains(p.a, to))) {
        return true;
      }
    }
    return false;
  }

  Simulator& simulator_;
  LatencyModel latency_;
  math::Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<Partition> partitions_;
  std::deque<Slot> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace pqs::sim
