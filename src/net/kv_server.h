// The TCP front end for the sharded serving tier.
//
// KvServer binds a loopback (or any) TCP listener and runs N IO threads,
// each an edge-triggered epoll loop of its own. Connections are accepted
// on loop 0 and assigned round-robin; each connection owns a FrameDecoder
// ring the socket reads land in, and every decoded GET/PUT becomes a
// serve::Request submitted straight into the KvService per-shard MPSC
// rings with wants_reply set — the IO thread never waits for the answer.
// When a shard worker finishes the request, the service's completion hook
// (installed by start()) encodes the response frame into the connection's
// outbound buffer and puts the connection on its IO thread's ready list,
// waking that thread only if the list was empty. The IO thread, which
// owns every socket write and close, flushes the listed connections after
// each round of epoll events; the worker thread never touches a socket,
// so a slow or blocked peer can never stall the protocol hot loop. The
// buffer's out_mutex guards memory only: a worker holds it for one
// append, the IO thread for one swap of the appended bytes into its own
// send buffer, and neither holds it across a syscall.
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

  struct Loop;

  struct Connection : std::enable_shared_from_this<Connection> {
    Connection(std::uint64_t id_, int fd_, Loop& loop_)
        : id(id_), fd(fd_), loop(loop_), decoder(kDecoderCapacity) {}
    const std::uint64_t id;
    const int fd;
    Loop& loop;  // the IO thread that owns this socket
    FrameDecoder decoder;
    // The outbound buffer is the one cross-thread seam per connection:
    // out_mutex covers a shard worker's append of a response frame to
    // `out` and the owning IO thread's swap of `out` into `sending`,
    // never a syscall: the IO thread writes `sending` to the socket with
    // no lock held, and in full before the next swap, so bytes leave in
    // the order they were appended even across EAGAIN.
    std::mutex out_mutex;
    std::vector<unsigned char> out;
    // Set by the response that puts the connection on its loop's ready
    // list, cleared when the loop flushes it (a kDelay entry waits in
    // `flushing` until due): later responses append and ride that flush.
    // Under out_mutex.
    bool flush_queued = false;
    // The verdict that ended the stream: kReset, kTruncate or kStall, or
    // kNone while it can carry responses. The verdict's own response
    // appends half a frame for kTruncate and nothing otherwise; later
    // responses append nothing (after a half frame the peer would
    // otherwise read a misaligned stream, not a partial frame and EOF)
    // and ask the injector for no verdict. The IO thread carries out a
    // reset or truncate when it flushes, after the bytes appended before
    // it. Under out_mutex.
    FaultAction end = FaultAction::kNone;
    std::vector<unsigned char> sending;  // loop-thread-only
    std::size_t sending_offset = 0;      // written prefix of `sending`
    bool want_write = false;             // EPOLLOUT armed (loop-thread-only)
    std::atomic<bool> closed{false};
  };

  // A connection a worker gave output to, and the monotonic time before
  // which its loop must not flush it (0 unless a kDelay verdict set it).
  struct Ready {
    std::shared_ptr<Connection> conn;
    std::uint64_t due_ns = 0;
  };

  // One IO thread's state. Its epoll events carry their Connection*; the
  // eventfd's event carries nullptr and the listener's (loop 0 only) the
  // server itself, so dispatch takes no lock and looks nothing up. A
  // connection is closed only on its own loop, in its own event or in
  // the flush pass after the round's events, and epoll reports an fd at
  // most once a round, so a tag is live when its event is dispatched.
  struct Loop {
    Loop();
    ~Loop();
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;
    // (Re)registers `fd` edge-triggered for `events` with `tag`.
    void watch(int op, int fd, std::uint32_t events, void* tag);
    void wake();

    const int epoll_fd;
    const int wake_fd;
    std::atomic<bool> stopping{false};
    // Connections workers gave output to since the loop last took the
    // list. A worker that finds it empty writes the eventfd; a non-empty
    // list already has a wake-up on its way.
    std::mutex ready_mutex;
    std::vector<Ready> ready;
    // Loop-thread-only: what the flush pass took from `ready`; kDelay
    // entries stay here until due, and the earliest sets epoll_wait's
    // timeout.
    std::vector<Ready> flushing;
  };

  void run_loop(Loop& loop);
  // Flushes every entry of `loop`'s ready list due by `now_ns`.
  void flush_ready(Loop& loop, std::uint64_t now_ns);
  // Loop-thread-only: writes what `conn` has queued, then carries out the
  // reset or truncate that ended its stream, if one did.
  void flush(const std::shared_ptr<Connection>& conn);
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
  std::vector<std::unique_ptr<Loop>> loops_;
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
