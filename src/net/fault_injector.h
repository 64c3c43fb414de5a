// Deterministic connection-level fault injection for the TCP front end.
//
// The injector is a seam in KvServer's response path: every response about
// to be queued on a connection is first judged here, and the verdict can
// replace the normal flush with an adversarial one — an abrupt reset, a
// silent stall (slow-loris from the client's point of view), a frame
// truncated mid-byte followed by an orderly close, or a delayed flush.
// This is how the network-tier tests (tests/test_net_server.cc) exercise
// the hardened client's deadline/retry/failover machinery against a *real*
// socket misbehaving, not a mock.
//
// Determinism contract: randomized decisions come from a dedicated
// math::Rng stream owned by the injector (seeded from Config::seed) —
// never from any quorum or churn stream, so enabling injection cannot
// perturb a single quorum draw. The stream is consumed in connection
// response order, which is deterministic for a single pipelined client
// connection. Tests that need to target one specific connection bypass
// the rng entirely with set_action(conn_id, action): explicit overrides
// draw nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "math/rng.h"

namespace pqs::net {

enum class FaultAction : std::uint8_t {
  kNone = 0,
  kReset,     // SO_LINGER(0) + close: the peer sees ECONNRESET
  kStall,     // send neither this response nor any later one (slow-loris)
  kTruncate,  // flush half a frame, then close in an orderly way
  kDelay,     // hold the connection's flush for FaultInjector::kDelayNs;
              // responses completed meanwhile leave with it
};

class FaultInjector {
 public:
  struct Config {
    std::uint64_t seed = 0xfa017ec7ULL;
    // Per-response probabilities for the randomized mode; evaluated in
    // this order, at most one fires. All zero (the default) makes the
    // injector a no-op unless an override targets the connection.
    double reset_prob = 0.0;
    double stall_prob = 0.0;
    double truncate_prob = 0.0;
    double delay_prob = 0.0;
  };

  // How long a kDelay verdict holds the connection's flush: the IO thread
  // keeps the connection on its ready list with this due time and sleeps
  // in epoll_wait no longer than the earliest one.
  static constexpr std::uint64_t kDelayNs = 2'000'000;

  FaultInjector() : FaultInjector(Config{}) {}
  explicit FaultInjector(Config config);

  // Pins the verdict for every response on `conn_id` (server-side
  // connection ids are assigned in accept order, starting at 1). An
  // override consumes no rng draws. kNone clears back to randomized mode
  // for that connection. Thread-safe.
  void set_action(std::uint64_t conn_id, FaultAction action);

  // The verdict for the next response on `conn_id`: the override if one
  // is set, otherwise one draw from the injector's own rng stream.
  // Thread-safe (serialized — the stream must stay well-defined when IO
  // threads race).
  FaultAction on_response(std::uint64_t conn_id);

  // How many verdicts of each action were handed out (kNone excluded).
  // KvServer asks only while a connection can still carry a response
  // (not stalled, not ended by a reset or a truncate), so these count
  // the faults that reached the wire.
  std::uint64_t resets() const { return resets_.load(); }
  std::uint64_t stalls() const { return stalls_.load(); }
  std::uint64_t truncates() const { return truncates_.load(); }
  std::uint64_t delays() const { return delays_.load(); }

 private:
  Config config_;
  std::mutex mutex_;
  math::Rng rng_;
  std::unordered_map<std::uint64_t, FaultAction> overrides_;
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> truncates_{0};
  std::atomic<std::uint64_t> delays_{0};
};

}  // namespace pqs::net
