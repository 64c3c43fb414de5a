// The TCP front end for the sharded serving tier.
//
// KvServer binds a loopback (or any) TCP listener and runs N EventLoop IO
// threads. Connections are accepted on loop 0 and assigned round-robin;
// each connection owns a FrameDecoder ring the socket reads land in, and
// every decoded GET/PUT becomes a serve::Request submitted straight into
// the KvService per-shard MPSC rings with wants_reply set — the IO thread
// never waits for the answer. When a shard worker finishes the request,
// the service's completion hook (installed by start()) encodes the
// response frame into the connection's outbound buffer and posts a flush
// to the connection's own IO thread, which owns every socket write; the
// worker thread never touches a socket, so a slow or blocked peer can
// never stall the protocol hot loop. The buffer's out_mutex guards
// memory only: a worker holds it for one append, the IO thread for one
// swap of the appended bytes into its own send buffer, and neither holds
// it across a syscall.
//
// Ordering and determinism: one connection's frames are decoded and
// submitted in wire order by a single IO thread, so with one client
// connection the per-shard request subsequences — and therefore the
// per-shard deterministic aggregates — are identical to the in-process
// single-producer runs. That is the contract bench/net_throughput gates
// across worker counts. Responses, by contrast, complete in shard-worker
// order and are matched by the echoed request_id.
//
// Backpressure: a full shard ring makes the submitting IO thread spin
// (KvService::submit); the connection's reads pause, the kernel receive
// buffer fills, and TCP flow control pushes back on the client. STATS
// frames are answered inline from the IO thread without touching the
// service. A malformed frame closes the connection (the decoder stream
// has no recoverable boundary).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/frame.h"
#include "serve/kv_service.h"

namespace pqs::net {

class KvServer {
 public:
  struct Config {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port() after start()
    std::uint32_t io_threads = 1;
    // Borrowed fault-injection seam (nullptr = no injection, zero cost on
    // the response path). When set, every response verdict comes from
    // FaultInjector::on_response and may replace the normal flush with a
    // reset / stall / truncate / delayed flush — see fault_injector.h.
    // The injector must outlive the server.
    FaultInjector* fault_injector = nullptr;
  };

  // The service is borrowed, not owned: the caller starts/stops it (and
  // may do so repeatedly, e.g. between offered-load sweep points) while
  // the server keeps listening. start()/stop() require the service to be
  // stopped because they install/clear its completion hook.
  KvServer(Config config, serve::KvService& service);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Binds, listens, installs the completion hook, launches the IO
  // threads. The bound port (resolves ephemeral requests) is port().
  void start();
  // Stops the IO threads, closes every connection and the listener, and
  // clears the service's completion hook. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }

  // Observability (atomics; readable any time).
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_submitted() const {
    return ops_submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t stats_served() const {
    return stats_served_.load(std::memory_order_relaxed);
  }
  std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  // Bytes of each connection's decoder ring.
  static constexpr std::size_t kDecoderCapacity = 1 << 16;

  struct Connection {
    Connection(std::uint64_t id_, int fd_)
        : id(id_), fd(fd_), decoder(kDecoderCapacity) {}
    const std::uint64_t id;
    const int fd;
    EventLoop* loop = nullptr;  // the IO thread that owns this socket
    FrameDecoder decoder;
    // The outbound buffer is the one cross-thread seam per connection:
    // out_mutex covers a shard worker's append of a response frame to
    // `out` and the owning IO thread's swap of `out` into `sending`,
    // never a syscall: the IO thread writes `sending` to the socket with
    // no lock held, and in full before the next swap, so bytes leave in
    // the order they were appended even across EAGAIN. flush_pending
    // collapses a burst of completions into one posted flush task.
    std::mutex out_mutex;
    std::vector<unsigned char> out;
    // Set, under out_mutex, by a kReset or kTruncate verdict. The stream
    // ends there: later responses append and post nothing (after a half
    // frame the peer would otherwise read a misaligned stream, not a
    // partial frame and EOF) and ask the injector for no verdict.
    bool ended = false;
    std::vector<unsigned char> sending;  // loop-thread-only
    std::size_t sending_offset = 0;      // written prefix of `sending`
    bool want_write = false;             // EPOLLOUT armed (loop-thread-only)
    std::atomic<bool> flush_pending{false};
    std::atomic<bool> closed{false};
    // Injected slow-loris: queued bytes are never flushed (and the
    // stop() drain skips them, so a stalled connection stays stalled
    // through shutdown instead of un-stalling at the last moment). Set
    // under out_mutex; later responses are not queued.
    std::atomic<bool> stalled{false};
  };

  void accept_ready();
  void handle_io(const std::shared_ptr<Connection>& conn,
                 std::uint32_t events);
  void drain_input(const std::shared_ptr<Connection>& conn);
  void submit_frame(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  void on_complete(const serve::Completion& done);
  void enqueue_response(const std::shared_ptr<Connection>& conn,
                        const Frame& frame);
  // Loop-thread-only: writes pending bytes, arms/disarms EPOLLOUT.
  void try_write(const std::shared_ptr<Connection>& conn);
  // True while `sending` holds unwritten bytes. Once it is written in
  // full, swaps in what the workers have appended to `out` since, and is
  // false only if that is empty too. Only the socket's owner calls it.
  static bool refill_sending(Connection& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);
  // SO_LINGER(0) + close: the peer sees a hard RST, not a FIN.
  void reset_connection(const std::shared_ptr<Connection>& conn);
  // stop()-time synchronous drain of one connection's outbound buffer
  // (IO threads already joined, so the stopping thread owns the socket).
  void flush_remaining(Connection& conn);
  std::shared_ptr<Connection> find_connection(std::uint64_t id) const;

  Config config_;
  serve::KvService& service_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool running_ = false;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> io_threads_;
  std::uint64_t next_conn_id_ = 1;
  std::uint32_t next_loop_ = 0;
  mutable std::shared_mutex conns_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns_;
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> ops_submitted_{0};
  std::atomic<std::uint64_t> stats_served_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace pqs::net
