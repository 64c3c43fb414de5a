#include "net/kv_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <limits>

#include "util/require.h"

namespace pqs::net {

namespace {

constexpr int kListenBacklog = 128;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PQS_REQUIRE(flags >= 0, "fcntl(F_GETFL) failed");
  PQS_REQUIRE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(F_SETFL) failed");
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::uint64_t mono_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

KvServer::Loop::Loop()
    : epoll_fd(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  PQS_REQUIRE(epoll_fd >= 0, "epoll_create1 failed");
  PQS_REQUIRE(wake_fd >= 0, "eventfd failed");
  watch(EPOLL_CTL_ADD, wake_fd, EPOLLIN, nullptr);
}

KvServer::Loop::~Loop() {
  ::close(wake_fd);
  ::close(epoll_fd);
}

void KvServer::Loop::watch(int op, int fd, std::uint32_t events, void* tag) {
  epoll_event ev{};
  ev.events = events | EPOLLET;
  ev.data.ptr = tag;
  PQS_REQUIRE(::epoll_ctl(epoll_fd, op, fd, &ev) == 0, "epoll_ctl failed");
}

void KvServer::Loop::wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter still leaves the loop signalled; ignore EAGAIN.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

KvServer::KvServer(Config config, serve::KvService& service)
    : config_(std::move(config)), service_(service) {
  PQS_REQUIRE(config_.io_threads >= 1, "server needs IO threads");
  static_assert(kDecoderCapacity >= kFrameBytes,
                "decoder ring must hold a frame");
}

KvServer::~KvServer() { stop(); }

void KvServer::start() {
  PQS_REQUIRE(!running_, "server already running");
  PQS_REQUIRE(!service_.running(),
              "start the server before the service (completion hook)");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  PQS_REQUIRE(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  PQS_REQUIRE(
      ::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
      "bad bind address");
  PQS_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "bind() failed");
  PQS_REQUIRE(::listen(listen_fd_, kListenBacklog) == 0, "listen() failed");
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  PQS_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &bound_len) == 0,
              "getsockname() failed");
  port_ = ntohs(bound.sin_port);

  service_.set_completion(
      [this](const serve::Completion& done) { on_complete(done); });

  loops_.clear();
  for (std::uint32_t i = 0; i < config_.io_threads; ++i) {
    loops_.push_back(std::make_unique<Loop>());
  }
  // The acceptor lives on loop 0; connections are dealt round-robin.
  loops_[0]->watch(EPOLL_CTL_ADD, listen_fd_, EPOLLIN, this);
  io_threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    io_threads_.emplace_back([this, l = loop.get()] { run_loop(*l); });
  }
  running_ = true;
}

void KvServer::stop() {
  if (!running_) return;
  PQS_REQUIRE(!service_.running(),
              "stop the service before the server (in-flight completions)");
  for (auto& loop : loops_) {
    loop->stopping.store(true, std::memory_order_release);
    loop->wake();
  }
  for (auto& t : io_threads_) t.join();
  io_threads_.clear();
  {
    std::unique_lock<std::shared_mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) {
      // Drain queued replies before closing: the loops flushed their
      // ready lists on exit, and this pushes what EAGAIN left behind, so
      // a client that saw its request accepted gets its response. A
      // stalled connection stays stalled: its stalled response and every
      // later one were never appended.
      flush_remaining(*conn);
      conn->closed.store(true, std::memory_order_release);
      ::close(conn->fd);
    }
    conns_.clear();
  }
  loops_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  service_.set_completion(nullptr);
  running_ = false;
}

void KvServer::run_loop(Loop& loop) {
  std::array<epoll_event, 64> events;
  while (!loop.stopping.load(std::memory_order_acquire)) {
    // Block until an event, or until the earliest kDelay entry is due.
    int timeout_ms = -1;
    if (!loop.flushing.empty()) {
      std::uint64_t due = std::numeric_limits<std::uint64_t>::max();
      for (const Ready& r : loop.flushing) due = std::min(due, r.due_ns);
      const std::uint64_t now = mono_now_ns();
      timeout_ms = due <= now ? 0
                              : static_cast<int>((due - now + 999'999) /
                                                 1'000'000);
    }
    const int n = ::epoll_wait(loop.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      PQS_REQUIRE(errno == EINTR, "epoll_wait failed");
      continue;
    }
    for (int i = 0; i < n; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == nullptr) {  // the eventfd: the flush pass takes the list
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(loop.wake_fd, &count, sizeof(count));
      } else if (tag == this) {
        accept_ready();
      } else {
        // The reference keeps the connection alive if this event closes it.
        handle_io(static_cast<Connection*>(tag)->shared_from_this(),
                  events[i].events);
      }
    }
    flush_ready(loop, mono_now_ns());
  }
  // On exit every entry counts as due: stop() must send what completions
  // queued, delayed ones included.
  flush_ready(loop, std::numeric_limits<std::uint64_t>::max());
}

void KvServer::flush_ready(Loop& loop, std::uint64_t now_ns) {
  {
    std::lock_guard<std::mutex> lock(loop.ready_mutex);
    loop.flushing.insert(loop.flushing.end(),
                         std::make_move_iterator(loop.ready.begin()),
                         std::make_move_iterator(loop.ready.end()));
    loop.ready.clear();
  }
  const auto due = std::partition(
      loop.flushing.begin(), loop.flushing.end(),
      [now_ns](const Ready& r) { return r.due_ns > now_ns; });
  for (auto it = due; it != loop.flushing.end(); ++it) flush(it->conn);
  loop.flushing.erase(due, loop.flushing.end());
}

void KvServer::flush(const std::shared_ptr<Connection>& conn) {
  FaultAction end;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    conn->flush_queued = false;
    end = conn->end;
  }
  try_write(conn);
  if (end == FaultAction::kReset) {
    reset_connection(conn);
  } else if (end == FaultAction::kTruncate) {
    // An orderly close: the peer reads the half frame, then EOF.
    close_connection(conn);
  }
}

void KvServer::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // transient accept failure; the listener stays armed
    }
    set_nodelay(fd);
    Loop& loop = *loops_[next_loop_++ % loops_.size()];
    auto conn = std::make_shared<Connection>(next_conn_id_++, fd, loop);
    {
      std::unique_lock<std::shared_mutex> lock(conns_mutex_);
      conns_.emplace(conn->id, conn);
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // epoll_ctl is thread-safe, so the acceptor can register the fd on
    // the owning loop's epoll directly; all subsequent events for it
    // fire on that loop's thread. conns_ holds the connection until that
    // thread closes it.
    loop.watch(EPOLL_CTL_ADD, fd, EPOLLIN, conn.get());
  }
}

void KvServer::handle_io(const std::shared_ptr<Connection>& conn,
                         std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_connection(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) try_write(conn);
  // A hard send error in try_write closes the connection, and its fd
  // number may already belong to another socket: read no further.
  if (conn->closed.load(std::memory_order_acquire)) return;
  if ((events & EPOLLIN) != 0) drain_input(conn);
}

void KvServer::drain_input(const std::shared_ptr<Connection>& conn) {
  // Edge-triggered: read until EAGAIN (or close), parsing frames after
  // every chunk so the decoder ring can never fill while making progress
  // (a partial frame is at most kFrameBytes - 1 buffered bytes).
  for (;;) {
    FrameDecoder::Span spans[2];
    const std::size_t span_count = conn->decoder.writable(spans);
    if (span_count == 0) {
      // Can only happen if a peer streams garbage that never parses; the
      // decoder will condemn it below on the next frame boundary.
      close_connection(conn);
      return;
    }
    iovec iov[2];
    for (std::size_t s = 0; s < span_count; ++s) {
      iov[s].iov_base = spans[s].data;
      iov[s].iov_len = spans[s].size;
    }
    const ssize_t n = ::readv(conn->fd, iov, static_cast<int>(span_count));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_connection(conn);
      return;
    }
    if (n == 0) {  // orderly peer close
      close_connection(conn);
      return;
    }
    conn->decoder.commit(static_cast<std::size_t>(n));
    Frame frame;
    for (;;) {
      const FrameDecoder::Result r = conn->decoder.next(frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kError) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        close_connection(conn);
        return;
      }
      submit_frame(conn, frame);
      if (conn->closed.load(std::memory_order_acquire)) return;
    }
  }
}

void KvServer::submit_frame(const std::shared_ptr<Connection>& conn,
                            const Frame& frame) {
  if (frame.response) {  // clients must not send response frames
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    close_connection(conn);
    return;
  }
  if (frame.op == Op::kStats) {
    // Answered inline from the IO thread: server-level counters, no
    // service round trip (and no ordering slot in any shard ring).
    Frame reply;
    reply.op = Op::kStats;
    reply.response = true;
    reply.found = true;
    reply.request_id = frame.request_id;
    reply.key = connections_accepted();
    reply.value = static_cast<std::int64_t>(ops_submitted());
    stats_served_.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(conn, reply);
    return;
  }
  serve::Request req;
  req.key = frame.key;
  req.value = frame.value;
  req.scheduled_ns = service_.now_ns();
  req.ctx = conn->id;
  req.request_id = frame.request_id;
  req.is_read = frame.op == Op::kGet;
  req.wants_reply = true;
  ops_submitted_.fetch_add(1, std::memory_order_relaxed);
  // A full shard ring spins here: this IO thread stops reading, the
  // kernel receive buffer fills, and TCP flow control is the
  // backpressure the client sees.
  service_.submit(req);
}

void KvServer::on_complete(const serve::Completion& done) {
  const std::shared_ptr<Connection> conn = find_connection(done.ctx);
  if (conn == nullptr) return;  // connection closed mid-flight
  Frame reply;
  reply.op = done.is_read ? Op::kGet : Op::kPut;
  reply.response = true;
  reply.found = done.found;
  reply.request_id = done.request_id;
  reply.key = done.key;
  reply.value = done.value;
  enqueue_response(conn, reply);
}

void KvServer::enqueue_response(const std::shared_ptr<Connection>& conn,
                                const Frame& frame) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  unsigned char wire[kFrameBytes];
  encode_frame(frame, wire);
  // Fault-injection seam: the injector's verdict becomes connection state
  // that the owning IO thread acts on when it flushes. Only a connection
  // that can still carry a response asks for one, so the injector counts
  // the faults that reached the wire.
  FaultAction action = FaultAction::kNone;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->end != FaultAction::kNone) return;
    if (config_.fault_injector != nullptr) {
      action = config_.fault_injector->on_response(conn->id);
    }
    if (action == FaultAction::kNone || action == FaultAction::kDelay) {
      conn->out.insert(conn->out.end(), wire, wire + kFrameBytes);
    } else {
      // A stalled connection stays open and silent.
      conn->end = action;
      if (action == FaultAction::kTruncate) {
        conn->out.insert(conn->out.end(), wire, wire + kFrameBytes / 2);
      }
    }
    // A queued flush carries this response too.
    if (conn->flush_queued) return;
    conn->flush_queued = true;
  }
  const std::uint64_t due_ns = action == FaultAction::kDelay
                                   ? mono_now_ns() + FaultInjector::kDelayNs
                                   : 0;
  Loop& loop = conn->loop;
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(loop.ready_mutex);
    was_empty = loop.ready.empty();
    loop.ready.push_back(Ready{conn, due_ns});
  }
  if (was_empty) loop.wake();
}

void KvServer::try_write(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  while (refill_sending(*conn)) {
    const ssize_t n =
        ::send(conn->fd, conn->sending.data() + conn->sending_offset,
               conn->sending.size() - conn->sending_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          conn->loop.watch(EPOLL_CTL_MOD, conn->fd, EPOLLIN | EPOLLOUT,
                           conn.get());
        }
        return;
      }
      // Hard send error (the peer reset): reap the fd now, or a peer
      // that resets mid-flush could pin its fd until stop().
      close_connection(conn);
      return;
    }
    conn->sending_offset += static_cast<std::size_t>(n);
  }
  if (conn->want_write) {
    conn->want_write = false;
    conn->loop.watch(EPOLL_CTL_MOD, conn->fd, EPOLLIN, conn.get());
  }
}

bool KvServer::refill_sending(Connection& conn) {
  if (conn.sending_offset < conn.sending.size()) return true;
  conn.sending.clear();
  conn.sending_offset = 0;
  {
    // Both buffers keep their capacity across swaps, so a steady stream
    // of responses allocates nothing here.
    std::lock_guard<std::mutex> lock(conn.out_mutex);
    conn.sending.swap(conn.out);
  }
  return !conn.sending.empty();
}

void KvServer::close_connection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(conn->loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::unique_lock<std::shared_mutex> lock(conns_mutex_);
    conns_.erase(conn->id);
  }
  ::close(conn->fd);
}

void KvServer::reset_connection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  // Zero-timeout linger turns close() into an abortive release: queued
  // data is discarded and the peer gets RST instead of FIN.
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(conn->fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  close_connection(conn);
}

void KvServer::flush_remaining(Connection& conn) {
  // Best-effort, bounded: the socket is still open and nonblocking, the
  // IO threads are joined, so this thread owns it. A peer that stopped
  // reading cannot wedge shutdown — the poll budget caps the wait. The
  // rest of `sending` goes first, then whatever is still in `out`.
  int budget_ms = 200;
  while (refill_sending(conn)) {
    const ssize_t n =
        ::send(conn.fd, conn.sending.data() + conn.sending_offset,
               conn.sending.size() - conn.sending_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.sending_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (budget_ms <= 0) return;
      pollfd pfd{conn.fd, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, 50);
      budget_ms -= 50;
      if (r < 0 && errno != EINTR) return;
      continue;
    }
    return;  // hard error: the peer is gone, nothing left to drain
  }
}

std::shared_ptr<KvServer::Connection> KvServer::find_connection(
    std::uint64_t id) const {
  std::shared_lock<std::shared_mutex> lock(conns_mutex_);
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

}  // namespace pqs::net
