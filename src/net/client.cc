#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/require.h"

namespace pqs::net {

namespace {

// send() flushes a connection's buffer once it holds this many bytes, so
// one syscall carries many 32-byte frames.
constexpr std::size_t kFlushBytes = 8192;
// connect() attempts per connection, and the backoff between them.
constexpr std::uint32_t kConnectAttempts = 5;
constexpr std::uint64_t kConnectBackoffNs = 1'000'000;  // first retry delay
constexpr std::uint64_t kConnectBackoffCapNs = 100'000'000;
// Backoff before re-sending an expired request.
constexpr std::uint64_t kRetryBackoffNs = 200'000;  // first retry delay
constexpr std::uint64_t kRetryBackoffCapNs = 20'000'000;
// Seed of the backoff-jitter stream.
constexpr std::uint64_t kRetrySeed = 0x5eedba11u;

}  // namespace

Client::Client(Config config)
    : config_(std::move(config)), retry_rng_(kRetrySeed) {
  PQS_REQUIRE(config_.connections >= 1, "client needs connections");
  PQS_REQUIRE(config_.window >= 1, "client needs a pipeline window");
}

Client::~Client() { stop(); }

void Client::backoff_sleep(std::uint64_t base_ns, std::uint64_t cap_ns,
                           std::uint32_t attempt) {
  // Capped exponential with full-bottom jitter: sleep in [d/2, d] where
  // d = min(cap, base * 2^attempt). Jitter decorrelates concurrent
  // clients; the dedicated rng stream keeps it off the quorum draws.
  const std::uint32_t shift = std::min<std::uint32_t>(attempt, 32);
  std::uint64_t delay = base_ns << shift;
  if (delay > cap_ns || (delay >> shift) != base_ns) delay = cap_ns;
  const std::uint64_t half = delay / 2;
  const std::uint64_t jittered = half + retry_rng_.below(half + 1);
  std::this_thread::sleep_for(std::chrono::nanoseconds(jittered));
}

int Client::connect_with_backoff() {
  for (std::uint32_t attempt = 0; attempt < kConnectAttempts; ++attempt) {
    if (attempt > 0) {
      ++connect_retries_;
      backoff_sleep(kConnectBackoffNs, kConnectBackoffCapNs, attempt - 1);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    PQS_REQUIRE(fd >= 0, "client socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    PQS_REQUIRE(
        ::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1,
        "bad client host");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
  }
  return -1;
}

void Client::start() {
  PQS_REQUIRE(!running_, "client already running");
  epoch_ = std::chrono::steady_clock::now();
  conns_.clear();
  for (std::uint32_t i = 0; i < config_.connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = connect_with_backoff();
    PQS_REQUIRE(conn->fd >= 0, "client connect() failed after retries");
    conn->sendbuf.reserve(kFlushBytes + kFrameBytes);
    conns_.push_back(std::move(conn));
  }
  for (auto& conn : conns_) {
    Conn* c = conn.get();
    c->reader = std::thread([this, c] { reader_loop(*c); });
  }
  running_ = true;
}

std::uint64_t Client::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t Client::pick_usable(std::uint32_t start_index) {
  for (std::uint32_t i = 0; i < conns_.size(); ++i) {
    const std::uint32_t idx =
        (start_index + i) % static_cast<std::uint32_t>(conns_.size());
    Conn& conn = *conns_[idx];
    if (!conn.failed.load(std::memory_order_acquire) || reconnect(conn)) {
      return idx;
    }
  }
  PQS_REQUIRE(false, "every client connection failed and reconnect failed");
  return 0;
}

void Client::enqueue_op(Conn& conn, std::uint32_t index,
                        const PendingOp& op) {
  Frame frame;
  frame.op = op.is_read ? Op::kGet : Op::kPut;
  frame.request_id = next_id_++;
  frame.key = op.key;
  frame.value = op.value;
  PendingOp stored = op;
  stored.origin = index;
  {
    std::lock_guard<std::mutex> lock(conn.pending_mutex);
    conn.pending.emplace(frame.request_id, stored);
  }
  conn.outstanding.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t used = conn.sendbuf.size();
  conn.sendbuf.resize(used + kFrameBytes);
  encode_frame(frame, conn.sendbuf.data() + used);
}

void Client::send(std::uint64_t key, std::int64_t value, bool is_read,
                  std::uint64_t scheduled_ns) {
  PQS_REQUIRE(running_, "client not running");
  const std::uint32_t start =
      next_conn_++ % static_cast<std::uint32_t>(conns_.size());
  for (;;) {
    const std::uint32_t idx = pick_usable(start);
    Conn& conn = *conns_[idx];
    // Window full: push what we have and wait for responses to free
    // slots. The spin is measured — an open-loop driver's schedule keeps
    // slipping, so the stall shows up as latency, never as omitted load.
    // With deadlines armed the spin also reaps expired requests, which is
    // what lets the driver escape a stalled connection.
    if (conn.outstanding.load(std::memory_order_acquire) >= config_.window) {
      flush_conn(conn);
      while (conn.outstanding.load(std::memory_order_acquire) >=
                 config_.window &&
             !conn.failed.load(std::memory_order_acquire)) {
        if (deadlines_armed()) reap_expired();
        std::this_thread::yield();
      }
      if (conn.failed.load(std::memory_order_acquire)) continue;  // re-pick
    }
    PendingOp op;
    op.scheduled_ns = scheduled_ns;
    op.deadline_ns =
        deadlines_armed() ? now_ns() + config_.request_timeout_ns : 0;
    op.key = key;
    op.value = value;
    op.is_read = is_read;
    op.attempts = 1;
    enqueue_op(conn, idx, op);
    ++sent_;
    if (conn.sendbuf.size() >= kFlushBytes) flush_conn(conn);
    return;
  }
}

void Client::flush_conn(Conn& conn) {
  if (conn.sendbuf.empty()) return;
  std::size_t done = 0;
  while (done < conn.sendbuf.size()) {
    const ssize_t w = ::send(conn.fd, conn.sendbuf.data() + done,
                             conn.sendbuf.size() - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      // The connection is gone. With deadlines armed the pending entries
      // are recovered by reconnect/reap; without them this is fatal, as
      // it always was.
      conn.failed.store(true, std::memory_order_release);
      conn.sendbuf.clear();
      PQS_REQUIRE(deadlines_armed(), "client send failed");
      return;
    }
    done += static_cast<std::size_t>(w);
  }
  conn.sendbuf.clear();
}

void Client::flush() {
  for (auto& conn : conns_) flush_conn(*conn);
}

bool Client::reconnect(Conn& conn) {
  // Driver-thread-only. The reader may still be blocked in recv() when
  // the *driver* discovered the failure (send error); shutdown wakes it.
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  if (conn.reader.joinable()) conn.reader.join();
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  // Salvage in-flight requests: the server may or may not have processed
  // them, but their responses are unreachable now. Retrying is
  // at-least-once delivery, which is the right trade for an idempotent
  // KV workload.
  std::vector<PendingOp> orphans;
  {
    std::lock_guard<std::mutex> lock(conn.pending_mutex);
    orphans.reserve(conn.pending.size());
    for (auto& [id, op] : conn.pending) orphans.push_back(op);
    conn.pending.clear();
  }
  conn.outstanding.store(0, std::memory_order_release);
  conn.sendbuf.clear();
  PQS_REQUIRE(deadlines_armed() || orphans.empty(),
              "client connection failed with requests in flight "
              "(arm request_timeout_ns for retries)");
  const int fd = connect_with_backoff();
  if (fd < 0) return false;  // stays failed; caller fails over
  conn.fd = fd;
  conn.failed.store(false, std::memory_order_release);
  conn.reader = std::thread([this, &conn] { reader_loop(conn); });
  ++reconnects_;
  for (const PendingOp& op : orphans) retry(op);
  return true;
}

void Client::reap_expired() {
  if (!deadlines_armed()) return;
  const std::uint64_t now = now_ns();
  std::vector<PendingOp> expired;
  for (auto& conn : conns_) {
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    for (auto it = conn->pending.begin(); it != conn->pending.end();) {
      if (it->second.deadline_ns <= now) {
        expired.push_back(it->second);
        it = conn->pending.erase(it);
        conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
      } else {
        ++it;
      }
    }
  }
  timeouts_ += expired.size();
  for (const PendingOp& op : expired) retry(op);
}

void Client::retry(const PendingOp& op) {
  if (op.attempts > config_.max_retries) {
    ++abandoned_;
    return;
  }
  ++retries_;
  backoff_sleep(kRetryBackoffNs, kRetryBackoffCapNs, op.attempts - 1);
  const std::uint32_t idx = pick_usable(op.origin + 1);
  if (idx != op.origin) ++failovers_;
  PendingOp again = op;
  ++again.attempts;
  again.deadline_ns = now_ns() + config_.request_timeout_ns;
  enqueue_op(*conns_[idx], idx, again);
  flush_conn(*conns_[idx]);  // retries skip coalescing
}

void Client::drain() {
  flush();
  // One global in-flight count, not a per-connection sweep: a deadline
  // reap fails a request over to the *next* usable connection, which
  // wraps — a retry can land on a connection this loop already saw, so
  // only all-connections-simultaneously-zero means drained.
  for (;;) {
    std::uint64_t in_flight = 0;
    for (auto& conn : conns_) {
      in_flight += conn->outstanding.load(std::memory_order_acquire);
      PQS_REQUIRE(deadlines_armed() ||
                      !conn->failed.load(std::memory_order_acquire),
                  "client connection failed while draining");
    }
    if (in_flight == 0) return;
    if (deadlines_armed()) {
      // Deadline recovery keeps the drain live: expired requests are
      // retried elsewhere or abandoned, so a dead connection cannot
      // wedge shutdown.
      reap_expired();
    }
    std::this_thread::yield();
  }
}

void Client::stop() {
  if (!running_) return;
  drain();
  for (auto& conn : conns_) {
    // Readers block in recv(); a shutdown wakes them with EOF.
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  running_ = false;
}

void Client::reader_loop(Conn& conn) {
  FrameDecoder decoder(1 << 16);
  std::vector<unsigned char> buf(1 << 16);
  Frame frame;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      conn.failed.store(true, std::memory_order_release);
      return;
    }
    if (n == 0) {
      // EOF with requests still in flight means the server (or an
      // injected fault) closed on us — flag it so the driver reconnects.
      // A clean EOF during stop() leaves nothing pending.
      bool in_flight;
      {
        std::lock_guard<std::mutex> lock(conn.pending_mutex);
        in_flight = !conn.pending.empty();
      }
      if (in_flight) conn.failed.store(true, std::memory_order_release);
      return;
    }
    std::size_t offset = 0;
    while (offset < static_cast<std::size_t>(n)) {
      offset += decoder.feed(buf.data() + offset,
                             static_cast<std::size_t>(n) - offset);
      for (;;) {
        const FrameDecoder::Result r = decoder.next(frame);
        if (r == FrameDecoder::Result::kNeedMore) break;
        if (r == FrameDecoder::Result::kError) {
          conn.failed.store(true, std::memory_order_release);
          return;
        }
        std::uint64_t scheduled = 0;
        bool known = false;
        {
          std::lock_guard<std::mutex> lock(conn.pending_mutex);
          const auto it = conn.pending.find(frame.request_id);
          if (it != conn.pending.end()) {
            scheduled = it->second.scheduled_ns;
            known = true;
            conn.pending.erase(it);
          }
        }
        if (!known) {
          // With deadlines armed this is a response that lost the race
          // against its own timeout (the request was retried or
          // abandoned) — count it and move on. Without deadlines an
          // unknown id is a protocol violation, as before.
          if (deadlines_armed()) {
            conn.late_responses.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          conn.failed.store(true, std::memory_order_release);
          return;
        }
        const std::uint64_t now = now_ns();
        conn.histogram.record(now > scheduled ? now - scheduled : 0);
        ++conn.received;
        if (frame.op == Op::kGet) {
          if (frame.found) {
            ++conn.reads_found;
          } else {
            ++conn.reads_empty;
          }
        }
        conn.outstanding.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  }
}

std::uint64_t Client::received() const {
  std::uint64_t total = 0;
  for (const auto& conn : conns_) total += conn->received;
  return total;
}

std::uint64_t Client::reads_found() const {
  std::uint64_t total = 0;
  for (const auto& conn : conns_) total += conn->reads_found;
  return total;
}

std::uint64_t Client::reads_empty() const {
  std::uint64_t total = 0;
  for (const auto& conn : conns_) total += conn->reads_empty;
  return total;
}

stats::LatencyHistogram Client::histogram() const {
  stats::LatencyHistogram merged;
  for (const auto& conn : conns_) merged.merge(conn->histogram);
  return merged;
}

ClientStats Client::stats() const {
  ClientStats s;
  s.timeouts = timeouts_;
  s.retries = retries_;
  s.failovers = failovers_;
  s.reconnects = reconnects_;
  s.abandoned = abandoned_;
  s.connect_retries = connect_retries_;
  for (const auto& conn : conns_) {
    s.late_responses +=
        conn->late_responses.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace pqs::net
