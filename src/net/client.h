// A pipelined, multi-connection TCP client for the serving tier.
//
// One thread does everything: the driver thread that calls send() also
// reads and matches the responses, and makes every other call, so start()
// launches no thread and each socket has one user. (A reader thread per
// connection made send() and recv() serialize on the socket's lock.)
//
// send() coalesces frames into a per-connection buffer (flushed at a size
// threshold, so a syscall carries many 32-byte frames) and assigns them
// round-robin across M connections. Responses are read with non-blocking
// recv() where the driver already stops: the window-full wait, right
// after a size-triggered flush, drain(), and poll(). They complete in
// shard-worker order, not send order, so each is matched to its request
// by the echoed request_id. Its latency from the operation's scheduled
// arrival time (coordinated-omission-safe when the driver paces to a
// fixed schedule; pure round-trip time when unpaced) is recorded when the
// driver reads it, so a paced driver must call poll() while it idles, or
// responses wait in the socket and are recorded late.
//
// Pipelining is bounded by `window` outstanding requests per connection:
// a full window flushes and spins the driver on reads, so client memory
// stays bounded while the wire stays saturated. With connections = 1 the
// send order is the wire order, which is the determinism precondition
// the net_throughput bit-identity gates rely on.
//
// Fault tolerance. A failed connect() (in start() or a reconnect) is
// retried with jittered capped exponential backoff, up to five attempts
// per connection, instead of aborting the run. Request recovery is
// opt-in; without it the client keeps the original fail-fast behavior
// byte for byte, which is what the bit-identity benches run under:
//   * request_timeout_ns > 0 arms a per-request deadline. Expired
//     requests are reaped inside the window-full spin and drain(),
//     retried up to max_retries times under jittered exponential backoff
//     on the next usable connection (failover), and abandoned after that
//     — so a stalled, reset, or truncated server connection degrades one
//     connection's requests instead of wedging the run;
//   * a failed connection is lazily reconnected the next time
//     round-robin lands on it; its in-flight requests are retried by the
//     same rule, one by one, so the requests a kill orphans do not share
//     that connection's fate again.
// Backoff jitter comes from the client's own fixed-seed math::Rng stream,
// never a quorum stream, so fault handling cannot perturb a quorum draw.
// stats() surfaces every recovery counter.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "math/rng.h"
#include "net/frame.h"
#include "stats/latency_histogram.h"

namespace pqs::net {

// Graceful-degradation counters: how hard the client had to work to keep
// the run going. All zero on a healthy run.
struct ClientStats {
  std::uint64_t timeouts = 0;         // requests past their deadline
  std::uint64_t retries = 0;          // re-sends of timed-out requests
  std::uint64_t failovers = 0;        // retries routed to a different conn
  std::uint64_t reconnects = 0;       // failed connections re-established
  std::uint64_t abandoned = 0;        // requests dropped after max_retries
  std::uint64_t late_responses = 0;   // responses after timeout/abandon
  std::uint64_t connect_retries = 0;  // extra connect() attempts
};

class Client {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint32_t connections = 1;
    std::uint32_t window = 512;  // max outstanding per connection
    // Per-request deadline; 0 (default) disables deadlines, retries, and
    // late-response tolerance — the original strict client.
    std::uint64_t request_timeout_ns = 0;
    std::uint32_t max_retries = 2;  // per request
  };

  explicit Client(Config config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects every connection (retrying a failed connect()) and starts
  // the client clock (now_ns(), the timebase of scheduled_ns). Starts no
  // thread.
  void start();

  // Queues one GET (is_read) or PUT. scheduled_ns is the latency origin:
  // the open-loop deadline when pacing, now_ns() when not.
  void send(std::uint64_t key, std::int64_t value, bool is_read,
            std::uint64_t scheduled_ns);

  // Pushes every coalesced buffer to the kernel.
  void flush();

  // Reads and matches every response that has already arrived, on every
  // connection, without blocking; returns how many it matched. A paced
  // driver calls it while it waits for the next scheduled send.
  std::size_t poll();

  // flush(), then reads until every sent request has its response (or,
  // with deadlines armed, was retried/abandoned).
  void drain();

  // drain(), then closes the sockets. Idempotent.
  void stop();

  std::uint64_t now_ns() const;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t reads_found() const { return reads_found_; }  // GET hits
  std::uint64_t reads_empty() const { return reads_empty_; }  // GET misses
  // Latency of each response read so far, readable at any time; after
  // drain(), of every response.
  const stats::LatencyHistogram& histogram() const { return histogram_; }
  const ClientStats& stats() const { return stats_; }

 private:
  // One queued request awaiting its response.
  struct PendingOp {
    std::uint64_t scheduled_ns = 0;
    std::uint64_t deadline_ns = 0;  // 0 = no deadline armed
    std::uint64_t key = 0;
    std::int64_t value = 0;
    bool is_read = false;
    std::uint32_t attempts = 1;  // send attempts so far (this one included)
    std::uint32_t origin = 0;    // connection index it was sent on
  };

  struct Conn {
    int fd = -1;
    bool failed = false;
    std::vector<unsigned char> sendbuf;
    FrameDecoder decoder;
    // request_id -> op; its size is the connection's outstanding count.
    std::unordered_map<std::uint64_t, PendingOp> pending;
  };

  void flush_conn(Conn& conn);
  // Reads and matches what has arrived on `conn` without blocking;
  // marks it failed on EOF, a socket error or a bad response.
  std::size_t read_responses(Conn& conn);
  // connect() with capped jittered backoff; -1 after the last attempt.
  int connect_with_backoff();
  // Index of the first usable connection at or after start_index,
  // lazily reconnecting failed ones; requires one to be usable.
  std::uint32_t pick_usable(std::uint32_t start_index);
  // Tears down and re-establishes one failed connection, retrying its
  // orphaned in-flight requests. False if connect fails.
  bool reconnect(Conn& conn);
  // Scans every connection for requests past their deadline and retries
  // each. No-op without deadlines.
  void reap_expired();
  // The one retry rule, for expired requests and a dead connection's
  // orphans alike. Abandons `op` past max_retries; else re-sends it
  // after a backoff on the first usable connection after the one it was
  // last sent on, so it leaves a suspect connection.
  void retry(const PendingOp& op);
  // Appends one frame for `op` to `conn` and registers it in pending.
  void enqueue_op(Conn& conn, std::uint32_t index, const PendingOp& op);
  // One turn of the window-full and drain() spins: poll(); if nothing
  // matched, reap expired requests and yield.
  void wait_turn();
  void backoff_sleep(std::uint64_t base_ns, std::uint64_t cap_ns,
                     std::uint32_t attempt);
  bool deadlines_armed() const { return config_.request_timeout_ns > 0; }

  Config config_;
  bool running_ = false;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;
  std::uint64_t sent_ = 0;
  std::uint32_t next_conn_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
  stats::LatencyHistogram histogram_;
  std::uint64_t received_ = 0;
  std::uint64_t reads_found_ = 0;
  std::uint64_t reads_empty_ = 0;
  // Recovery state.
  math::Rng retry_rng_;
  ClientStats stats_;
};

}  // namespace pqs::net
