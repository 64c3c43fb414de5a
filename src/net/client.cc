#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>

#include "util/require.h"

namespace pqs::net {

namespace {

// send() flushes a connection's buffer once it holds this many bytes, so
// one syscall carries many 32-byte frames.
constexpr std::size_t kFlushBytes = 8192;
// Each connection's response decoder: one recv() fills up to this much.
constexpr std::size_t kRecvBytes = 1 << 16;
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
      ++stats_.connect_retries;
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
    conn->decoder = FrameDecoder(kRecvBytes);
    conns_.push_back(std::move(conn));
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
    if (!conn.failed || reconnect(conn)) return idx;
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
  PendingOp& stored = conn.pending.emplace(frame.request_id, op).first->second;
  stored.origin = index;
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
    // Window full: push what we have and read responses until a slot
    // frees. The spin is measured — an open-loop driver's schedule keeps
    // slipping, so the stall shows up as latency, never as omitted load.
    // With deadlines armed the spin also reaps expired requests, which is
    // what lets the driver escape a stalled connection.
    if (conn.pending.size() >= config_.window) {
      flush_conn(conn);
      while (conn.pending.size() >= config_.window && !conn.failed) {
        wait_turn();
      }
      if (conn.failed) continue;  // re-pick
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
    if (conn.sendbuf.size() >= kFlushBytes) {
      flush_conn(conn);
      poll();
    }
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
      conn.failed = true;
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
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  // Salvage in-flight requests: the server may or may not have processed
  // them, but their responses are unreachable now. Retrying is
  // at-least-once delivery, which is the right trade for an idempotent
  // KV workload.
  std::vector<PendingOp> orphans;
  orphans.reserve(conn.pending.size());
  for (auto& [id, op] : conn.pending) orphans.push_back(op);
  conn.pending.clear();
  conn.sendbuf.clear();
  conn.decoder = FrameDecoder(kRecvBytes);  // drop any partial frame
  PQS_REQUIRE(deadlines_armed() || orphans.empty(),
              "client connection failed with requests in flight "
              "(arm request_timeout_ns for retries)");
  const int fd = connect_with_backoff();
  if (fd < 0) return false;  // stays failed; caller fails over
  conn.fd = fd;
  conn.failed = false;
  ++stats_.reconnects;
  for (const PendingOp& op : orphans) retry(op);
  return true;
}

void Client::reap_expired() {
  if (!deadlines_armed()) return;
  const std::uint64_t now = now_ns();
  std::vector<PendingOp> expired;
  for (auto& conn : conns_) {
    for (auto it = conn->pending.begin(); it != conn->pending.end();) {
      if (it->second.deadline_ns <= now) {
        expired.push_back(it->second);
        it = conn->pending.erase(it);
      } else {
        ++it;
      }
    }
  }
  stats_.timeouts += expired.size();
  for (const PendingOp& op : expired) retry(op);
}

void Client::retry(const PendingOp& op) {
  if (op.attempts > config_.max_retries) {
    ++stats_.abandoned;
    return;
  }
  ++stats_.retries;
  backoff_sleep(kRetryBackoffNs, kRetryBackoffCapNs, op.attempts - 1);
  const std::uint32_t idx = pick_usable(op.origin + 1);
  if (idx != op.origin) ++stats_.failovers;
  PendingOp again = op;
  ++again.attempts;
  again.deadline_ns = now_ns() + config_.request_timeout_ns;
  enqueue_op(*conns_[idx], idx, again);
  flush_conn(*conns_[idx]);  // retries skip coalescing
}

void Client::wait_turn() {
  if (poll() > 0) return;
  reap_expired();
  std::this_thread::yield();
}

void Client::drain() {
  flush();
  // One global in-flight count, not a per-connection sweep: a deadline
  // reap fails a request over to the *next* usable connection, which
  // wraps — a retry can land on a connection this loop already saw, so
  // only all-connections-simultaneously-zero means drained. With
  // deadlines armed, the reap inside wait_turn() keeps the drain live:
  // expired requests are retried elsewhere or abandoned, so a dead
  // connection cannot wedge shutdown.
  for (;;) {
    std::size_t in_flight = 0;
    for (auto& conn : conns_) {
      in_flight += conn->pending.size();
      PQS_REQUIRE(deadlines_armed() || !conn->failed ||
                      conn->pending.empty(),
                  "client connection failed while draining");
    }
    if (in_flight == 0) return;
    wait_turn();
  }
}

void Client::stop() {
  if (!running_) return;
  drain();
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  running_ = false;
}

std::size_t Client::poll() {
  std::size_t matched = 0;
  for (auto& conn : conns_) {
    if (!conn->failed) matched += read_responses(*conn);
  }
  return matched;
}

std::size_t Client::read_responses(Conn& conn) {
  std::size_t matched = 0;
  Frame frame;
  for (;;) {
    // Straight into the decoder's ring. After each pass it holds less
    // than one frame, so the first span is most of the ring.
    FrameDecoder::Span spans[2];
    conn.decoder.writable(spans);
    const ssize_t n =
        ::recv(conn.fd, spans[0].data, spans[0].size, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn.failed = true;
      return matched;
    }
    if (n == 0) {
      // EOF: the server (or an injected fault) closed on us. Failing the
      // connection hands its in-flight requests to reconnect and the
      // deadline reap; a strict client stops at its next check.
      conn.failed = true;
      return matched;
    }
    conn.decoder.commit(static_cast<std::size_t>(n));
    const std::uint64_t now = now_ns();
    for (;;) {
      const FrameDecoder::Result r = conn.decoder.next(frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kError) {
        conn.failed = true;
        return matched;
      }
      const auto it = conn.pending.find(frame.request_id);
      if (it == conn.pending.end()) {
        // With deadlines armed this is a response that lost the race
        // against its own timeout (the request was retried or
        // abandoned) — count it and move on. Without deadlines an
        // unknown id is a protocol violation, as before.
        if (deadlines_armed()) {
          ++stats_.late_responses;
          continue;
        }
        conn.failed = true;
        return matched;
      }
      const std::uint64_t scheduled = it->second.scheduled_ns;
      conn.pending.erase(it);
      histogram_.record(now > scheduled ? now - scheduled : 0);
      ++received_;
      if (frame.op == Op::kGet) ++(frame.found ? reads_found_ : reads_empty_);
      ++matched;
    }
    // A short read drained the socket; no second call just to see EAGAIN.
    if (static_cast<std::size_t>(n) < spans[0].size) return matched;
  }
}

}  // namespace pqs::net
