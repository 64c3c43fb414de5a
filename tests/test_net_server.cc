// net::KvServer + net::Client — the TCP front end end to end over
// loopback.
//
// These are tier-1 tests (ASan/UBSan and TSan jobs run them), so they
// double as race checks for the epoll loops and the worker→IO completion
// handoff. The client runs on its caller's thread: two tests pin that
// start() launches no thread and that poll() alone matches responses.
// The load-bearing contract is the tentpole gate in miniature: with a
// single client connection the per-shard deterministic aggregates
// observed through the socket path must equal committed goldens at
// every service worker count.
// The rest pins down GET/PUT semantics, out-of-order response matching
// under pipelining, the inline STATS opcode, and that garbage on the
// wire closes the connection instead of wedging the server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "golden_aggregates.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/kv_server.h"
#include "quorum/threshold.h"
#include "serve/kv_service.h"
#include "workload/open_loop.h"

namespace pqs::net {
namespace {

std::shared_ptr<const quorum::QuorumSystem> majority(std::uint32_t n = 15) {
  return std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(n));
}

serve::KvService::Config service_config(std::uint32_t shards,
                                        std::uint32_t workers) {
  serve::KvService::Config cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  cfg.quorums = majority();
  cfg.seed = 99;
  return cfg;
}

// Entries in a /proc/self directory: the process's open descriptors in
// fd, its threads in task. The iterator's own descriptor is open during
// every count, so counts compare.
std::size_t proc_entries(const char* dir) {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(dir),
                    std::filesystem::directory_iterator{}));
}

// One server deployment driven over loopback by one pipelined
// connection; returns the service's per-shard aggregates.
std::vector<serve::ShardAggregate> run_over_socket(std::uint32_t workers,
                                                   std::uint32_t io_threads,
                                                   std::uint64_t ops) {
  serve::KvService service(service_config(4, workers));
  KvServer::Config server_cfg;
  server_cfg.io_threads = io_threads;
  KvServer server(server_cfg, service);
  server.start();
  service.start();

  Client::Config client_cfg;
  client_cfg.port = server.port();
  client_cfg.connections = 1;
  Client client(client_cfg);
  client.start();

  workload::OpenLoopSpec spec;
  spec.keys = 64;
  spec.zipf_exponent = 0.99;
  workload::OpenLoopGenerator gen(spec, 321);
  workload::Operation op;
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    client.send(op.key, op.value, op.is_read, client.now_ns());
  }
  client.drain();
  EXPECT_EQ(client.received(), ops);
  EXPECT_EQ(client.histogram().count(), ops);
  client.stop();

  service.stop_and_drain();
  server.stop();
  return service.aggregates();
}

TEST(KvServer, PutThenGetRoundTripsTheValue) {
  serve::KvService service(service_config(2, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  ASSERT_GT(server.port(), 0);
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);
  client.start();
  client.send(/*key=*/7, /*value=*/1234, /*is_read=*/false, client.now_ns());
  client.drain();
  client.send(/*key=*/7, /*value=*/0, /*is_read=*/true, client.now_ns());
  client.send(/*key=*/8, /*value=*/0, /*is_read=*/true, client.now_ns());
  client.drain();

  EXPECT_EQ(client.sent(), 3u);
  EXPECT_EQ(client.received(), 3u);
  // Majority quorums always intersect: key 7 reads back its write, key 8
  // was never written.
  EXPECT_EQ(client.reads_found(), 1u);
  EXPECT_EQ(client.reads_empty(), 1u);
  client.stop();

  service.stop_and_drain();
  EXPECT_EQ(service.fold_aggregates().writes, 1u);
  EXPECT_EQ(service.fold_aggregates().reads, 2u);
  EXPECT_EQ(server.ops_submitted(), 3u);
  server.stop();
}

// Golden per-shard aggregates of run_over_socket(_, _, 2000), one row per
// shard with the fields in PQS_SHARD_AGGREGATE_FIELDS order. They move
// only with a deliberate change to what the protocol computes, updated in
// that same change.
const std::vector<serve::ShardAggregate> kTcpGolden = {
    {150, 143, 0, 5, 18640, 0, 0, 0, 0, 5, 0, 0, 0},
    {191, 205, 0, 10, 25560, 0, 0, 0, 0, 10, 0, 0, 0},
    {562, 531, 0, 24, 70320, 0, 0, 0, 0, 24, 0, 0, 0},
    {112, 106, 0, 14, 13989, 0, 0, 0, 0, 14, 0, 0, 0},
};

TEST(KvServer, AggregatesMatchGoldensAtEveryWorkerCountOverTcp) {
  // More IO threads change nothing either: one connection still decodes
  // on one thread, in wire order.
  const std::uint32_t runs[][2] = {{1, 1}, {4, 1}, {2, 2}};
  for (const auto& [workers, io_threads] : runs) {
    EXPECT_TRUE(serve::MatchesGoldens(
        run_over_socket(workers, io_threads, 2000), kTcpGolden))
        << "workers=" << workers << " io_threads=" << io_threads;
  }
}

TEST(KvServer, PipelinedResponsesMatchOutOfOrderCompletions) {
  // 8 shards × 4 workers: completions interleave across shards, so
  // responses come back out of send order and only the request_id echo
  // can pair them. The client asserts every response matches a pending
  // request (a mismatch fails the connection).
  serve::KvService service(service_config(8, 4));
  KvServer::Config server_cfg;
  server_cfg.io_threads = 2;
  KvServer server(server_cfg, service);
  server.start();
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  cfg.connections = 2;
  cfg.window = 64;
  Client client(cfg);
  client.start();
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const bool read = (i % 3) == 0;
    client.send(i % 97, static_cast<std::int64_t>(i), read, client.now_ns());
  }
  client.drain();
  EXPECT_EQ(client.received(), 4000u);
  client.stop();
  service.stop_and_drain();
  const serve::ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.reads + fold.writes, 4000u);
  server.stop();
}

TEST(KvServer, StatsOpcodeAnsweredInlineFromTheIoThread) {
  serve::KvService service(service_config(1, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);
  client.start();
  client.send(1, 11, false, client.now_ns());
  client.send(2, 22, false, client.now_ns());
  client.drain();
  client.stop();

  // Raw socket: a STATS request frame, answered without a service round
  // trip (ops_submitted counts only GET/PUT).
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Frame req;
  req.op = Op::kStats;
  req.request_id = 77;
  unsigned char wire[kFrameBytes];
  encode_frame(req, wire);
  ASSERT_EQ(::send(fd, wire, kFrameBytes, 0),
            static_cast<ssize_t>(kFrameBytes));

  FrameDecoder decoder;
  Frame reply;
  for (;;) {
    unsigned char buf[kFrameBytes];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    decoder.feed(buf, static_cast<std::size_t>(n));
    const FrameDecoder::Result r = decoder.next(reply);
    if (r == FrameDecoder::Result::kFrame) break;
    ASSERT_EQ(r, FrameDecoder::Result::kNeedMore);
  }
  EXPECT_EQ(reply.op, Op::kStats);
  EXPECT_TRUE(reply.response);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(reply.value, 2);  // the two PUTs
  EXPECT_EQ(server.stats_served(), 1u);
  ::close(fd);

  service.stop_and_drain();
  server.stop();
}

TEST(KvServer, GarbageBytesCloseTheConnectionNotTheServer) {
  serve::KvService service(service_config(1, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "this is not a frame at all, not even close";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
  // The server condemns the stream and closes; the read drains to EOF.
  char buf[64];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  EXPECT_GE(server.protocol_errors(), 1u);
  ::close(fd);

  // The listener survived: a well-formed client still gets service.
  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);
  client.start();
  client.send(5, 55, false, client.now_ns());
  client.drain();
  EXPECT_EQ(client.received(), 1u);
  client.stop();

  service.stop_and_drain();
  server.stop();
}

// ---- the client runs on its caller's thread -------------------------------

TEST(Client, StartsNoThreads) {
  serve::KvService service(service_config(2, 2));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  cfg.connections = 4;
  Client client(cfg);
  const std::size_t threads_before = proc_entries("/proc/self/task");
  client.start();
  EXPECT_EQ(proc_entries("/proc/self/task"), threads_before);
  client.send(1, 11, false, client.now_ns());
  client.drain();
  EXPECT_EQ(client.received(), 1u);
  client.stop();
  service.stop_and_drain();
  server.stop();
}

TEST(Client, PollMatchesArrivedResponses) {
  // 64 frames stay under the flush threshold and the window, so send()
  // reads nothing: every response is matched by poll(), and its latency
  // is in the histogram without a drain().
  serve::KvService service(service_config(2, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);
  client.start();
  for (std::uint64_t i = 0; i < 64; ++i) {
    client.send(i % 13, static_cast<std::int64_t>(i), (i % 2) == 0,
                client.now_ns());
  }
  client.flush();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.received() < 64 &&
         std::chrono::steady_clock::now() < deadline) {
    client.poll();
  }
  EXPECT_EQ(client.received(), 64u);
  EXPECT_EQ(client.histogram().count(), 64u);
  client.stop();
  service.stop_and_drain();
  server.stop();
}

// ---- injected connection faults vs the hardened client --------------------

// One server deployment with an injected fault pinned on the first
// accepted connection, driven by a deadline-armed client. Returns the
// client's recovery counters; the caller asserts the fault-specific
// shape. `ops` all complete: the injected fault may kill or wedge the
// first server-side connection, but retries (new request ids, routed to
// a usable or freshly reconnected connection — which gets a new
// server-side id, out from under the pinned override) must finish the
// run with nothing abandoned.
ClientStats run_against_fault(FaultInjector& injector,
                              std::uint32_t client_connections,
                              std::uint64_t ops) {
  serve::KvService service(service_config(2, 2));
  KvServer::Config server_cfg;
  server_cfg.fault_injector = &injector;
  KvServer server(server_cfg, service);
  server.start();
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  cfg.connections = client_connections;
  cfg.window = 16;
  cfg.request_timeout_ns = 100'000'000;  // 100ms (generous for TSan)
  cfg.max_retries = 5;
  Client client(cfg);
  client.start();
  for (std::uint64_t i = 0; i < ops; ++i) {
    client.send(i % 31, static_cast<std::int64_t>(i), (i % 2) == 0,
                client.now_ns());
  }
  client.drain();
  EXPECT_EQ(client.received(), ops);
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.abandoned, 0u);
  client.stop();
  service.stop_and_drain();
  server.stop();
  return stats;
}

TEST(KvServerFaults, ResetMidRunRecoversByReconnecting) {
  // The first response on connection 1 turns into SO_LINGER(0)+close: the
  // client sees ECONNRESET with a window of requests in flight, reaps
  // them on deadline, reconnects, and retries — every op still completes.
  FaultInjector injector;
  injector.set_action(1, FaultAction::kReset);
  const ClientStats stats = run_against_fault(injector, 1, 50);
  EXPECT_EQ(injector.resets(), 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(KvServerFaults, OrphansFailOverToAHealthyConnection) {
  // Every incarnation of client connection A dies on its first response:
  // it is server connection 1, and each reconnect gets the next id, 3 and
  // up (B holds 2 and stays healthy). A kill's orphans must leave A for B
  // rather than be re-sent together on the reconnected A, where they
  // would die with it until their retries run out.
  FaultInjector injector;
  injector.set_action(1, FaultAction::kReset);
  for (std::uint64_t id = 3; id <= 256; ++id) {
    injector.set_action(id, FaultAction::kReset);
  }
  const ClientStats stats = run_against_fault(injector, 2, 200);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GT(stats.failovers, 0u);
}

TEST(KvServerFaults, TruncatedFrameRecoversByReconnecting) {
  // Half a response frame, then an orderly close: the client's decoder
  // is left mid-frame at EOF, which must fail the connection (not wedge
  // the decoder) and hand recovery to the deadline machinery.
  FaultInjector injector;
  injector.set_action(1, FaultAction::kTruncate);
  const ClientStats stats = run_against_fault(injector, 1, 50);
  EXPECT_GE(injector.truncates(), 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(KvServerFaults, SlowLorisStallIsolatedToOneConnection) {
  // Connection 1 queues every response but never flushes — no EOF, no
  // error, just silence. Its requests must time out and fail over to the
  // healthy second connection while that connection's requests proceed
  // undisturbed; the stalled socket stays wedged through server stop()
  // (stalled responses are never queued, so the shutdown drain has
  // nothing of them to send).
  FaultInjector injector;
  injector.set_action(1, FaultAction::kStall);
  const ClientStats stats = run_against_fault(injector, 2, 50);
  EXPECT_EQ(injector.stalls(), 1u);
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(stats.failovers, 0u);
}

TEST(KvServerFaults, DelayedResponsesCompleteWithoutDeadlines) {
  // kDelay holds each flush for FaultInjector::kDelayNs, through a due
  // time on the connection's ready-list entry, but loses nothing, so even
  // the strict legacy client (no deadlines, any anomaly fatal) must see
  // every response — this pins the delay as a pure reordering-free
  // delay. The 40 requests leave in one flush at drain() (1,280 bytes,
  // under the client's flush threshold), and every response rides a
  // flush held kDelayNs after some completion, so every round trip takes
  // at least the delay.
  FaultInjector injector;
  injector.set_action(1, FaultAction::kDelay);

  serve::KvService service(service_config(2, 2));
  KvServer::Config server_cfg;
  server_cfg.fault_injector = &injector;
  KvServer server(server_cfg, service);
  server.start();
  service.start();

  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);  // strict: request_timeout_ns = 0
  client.start();
  for (std::uint64_t i = 0; i < 40; ++i) {
    client.send(i % 7, static_cast<std::int64_t>(i), (i % 2) == 0,
                client.now_ns());
  }
  client.drain();
  EXPECT_EQ(client.received(), 40u);
  EXPECT_GE(injector.delays(), 40u);
  EXPECT_GE(client.histogram().p50(), FaultInjector::kDelayNs);
  client.stop();
  service.stop_and_drain();
  server.stop();
}

// ---- randomized-probability injection (the probabilistic mode) ------------

// The injector's determinism contract, unit-level: two injectors with the
// same seed produce the same verdict sequence word for word, and explicit
// overrides consume no rng draws (the randomized stream is unperturbed by
// any number of override judgments interleaved into it).
TEST(FaultInjectorProbabilistic, SeededStreamIsDeterministicAndOverridesDrawNothing) {
  FaultInjector::Config fcfg;
  fcfg.seed = 0xca3b00d1eULL;
  fcfg.reset_prob = 0.10;
  fcfg.stall_prob = 0.05;
  fcfg.truncate_prob = 0.10;
  fcfg.delay_prob = 0.20;
  FaultInjector a(fcfg);
  FaultInjector b(fcfg);
  b.set_action(7, FaultAction::kReset);

  constexpr int kJudgments = 600;
  std::vector<FaultAction> va, vb;
  for (int i = 0; i < kJudgments; ++i) {
    va.push_back(a.on_response(1));
    // An override verdict between b's randomized draws: pinned, drawn
    // from no stream.
    EXPECT_EQ(b.on_response(7), FaultAction::kReset);
    vb.push_back(b.on_response(1));
  }
  EXPECT_TRUE(va == vb)
      << "identically-seeded injectors diverged, or overrides drew words";
  // At these probabilities every action fires in 600 draws (each is a
  // deterministic function of the seed, so this can never flake).
  EXPECT_GT(a.resets(), 0u);
  EXPECT_GT(a.stalls(), 0u);
  EXPECT_GT(a.truncates(), 0u);
  EXPECT_GT(a.delays(), 0u);
  // Counters see overrides too: b took every one of a's stream resets
  // plus kJudgments pinned ones.
  EXPECT_EQ(b.resets(), a.resets() + kJudgments);
  EXPECT_EQ(b.stalls(), a.stalls());
  EXPECT_EQ(b.truncates(), a.truncates());
  EXPECT_EQ(b.delays(), a.delays());
}

TEST(KvServerFaults, ProbabilisticCampaignRecoversEverything) {
  // Randomized-probability mode end to end: every response is judged by
  // the injector's own seeded stream — a mix of connection kills (reset,
  // truncate) and benign delays lands at unplanned points in the run,
  // including mid-window and on retries. The hardened client must finish
  // every op with nothing abandoned (run_against_fault asserts this),
  // twice: the second campaign is a rerun of the same seed, so recovery
  // is a reproducible property of the deployment, not a lucky
  // interleaving.
  FaultInjector::Config fcfg;
  fcfg.reset_prob = 0.02;
  fcfg.truncate_prob = 0.02;
  fcfg.delay_prob = 0.08;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(fcfg);
    const ClientStats stats = run_against_fault(injector, 2, 200);
    // The first 200 verdicts are a pure function of the seed, so the
    // campaign is guaranteed a healthy fault mix on every rerun.
    const std::uint64_t fired =
        injector.resets() + injector.truncates() + injector.delays();
    EXPECT_GE(fired, 5u) << "run " << run;
    EXPECT_EQ(injector.stalls(), 0u) << "run " << run;
    if (injector.resets() + injector.truncates() > 0) {
      EXPECT_GE(stats.reconnects, 1u) << "run " << run;
    }
  }
}

// ---- adversarial clients (protocol robustness over real sockets) ----------

// A positive `rcvbuf` sets SO_RCVBUF before connect, so the receive
// window the socket advertises stays that small.
int raw_connect(std::uint16_t port, int rcvbuf = 0) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const unsigned char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, 0);
    ASSERT_GT(sent, 0);
    off += static_cast<std::size_t>(sent);
  }
}

// Blocks until one full response frame decodes off `fd`.
bool read_frame(int fd, FrameDecoder& decoder, Frame& out) {
  for (;;) {
    if (decoder.next(out) == FrameDecoder::Result::kFrame) return true;
    unsigned char buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

TEST(KvServerFaults, TruncateEndsTheStreamMidFrame) {
  // Every response on connection 1 is judged kTruncate. The first one's
  // half frame must be the last byte on the wire, then EOF: completions
  // that land before the IO thread closes must not follow it. A deep
  // pipeline against small rings keeps the IO thread busy submitting
  // while the workers complete, which is what opens that window.
  FaultInjector injector;
  injector.set_action(1, FaultAction::kTruncate);
  serve::KvService service(service_config(2, 2));
  KvServer::Config server_cfg;
  server_cfg.fault_injector = &injector;
  KvServer server(server_cfg, service);
  server.start();
  service.start();

  constexpr std::size_t kFrames = 1024;
  std::vector<unsigned char> wire(kFrames * kFrameBytes);
  for (std::size_t i = 0; i < kFrames; ++i) {
    Frame put;
    put.op = Op::kPut;
    put.request_id = i + 1;
    put.key = i % 31;
    put.value = static_cast<std::int64_t>(i);
    encode_frame(put, wire.data() + i * kFrameBytes);
  }
  const int fd = raw_connect(server.port());
  send_all(fd, wire.data(), wire.size());
  std::size_t received = 0;
  unsigned char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(n, 0);  // orderly close
  EXPECT_EQ(received, kFrameBytes / 2);
  ::close(fd);
  service.stop_and_drain();
  server.stop();
  // The half frame ended the stream, so no later response asked for a
  // verdict.
  EXPECT_EQ(injector.truncates(), 1u);
}

TEST(KvServerAdversarial, BadOpcodeCondemnsOnlyThatConnection) {
  serve::KvService service(service_config(2, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  // A healthy pipelined client shares the server with the adversary for
  // the whole attack.
  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);
  client.start();
  for (std::uint64_t i = 0; i < 20; ++i) {
    client.send(i % 5, static_cast<std::int64_t>(i), (i % 2) == 0,
                client.now_ns());
  }

  // Length-valid frame, every opcode bit set: decodes far enough to name
  // the opcode unknown, which condemns the stream.
  const int fd = raw_connect(server.port());
  unsigned char wire[kFrameBytes];
  Frame probe;
  probe.op = Op::kGet;
  probe.request_id = 1;
  encode_frame(probe, wire);
  wire[7] = kOpMask;  // opcode 0x3f: not a v1 Op
  send_all(fd, wire, sizeof(wire));
  char drain[64];
  ssize_t n;
  while ((n = ::recv(fd, drain, sizeof(drain), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);  // orderly close, not a hang or a crash
  ::close(fd);
  EXPECT_GE(server.protocol_errors(), 1u);

  // The healthy connection never noticed.
  client.drain();
  EXPECT_EQ(client.received(), 20u);
  client.stop();
  service.stop_and_drain();
  server.stop();
}

TEST(KvServerAdversarial, OversizedBodyLengthCondemnsAfterFourBytes) {
  serve::KvService service(service_config(1, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  // A length prefix promising a 2 GiB body: the server must condemn on
  // the prefix alone instead of buffering toward a frame that will never
  // arrive (the slow-memory-exhaustion shape of a length-prefix
  // protocol attack).
  const int fd = raw_connect(server.port());
  const unsigned char huge_len[4] = {0xff, 0xff, 0xff, 0x7f};
  send_all(fd, huge_len, sizeof(huge_len));
  char drain[64];
  ssize_t n;
  while ((n = ::recv(fd, drain, sizeof(drain), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  ::close(fd);
  EXPECT_GE(server.protocol_errors(), 1u);

  // The listener survived the attack.
  Client::Config cfg;
  cfg.port = server.port();
  Client client(cfg);
  client.start();
  client.send(3, 33, false, client.now_ns());
  client.drain();
  EXPECT_EQ(client.received(), 1u);
  client.stop();
  service.stop_and_drain();
  server.stop();
}

TEST(KvServerAdversarial, ReplayedRequestIdsEachGetTheirOwnResponse) {
  serve::KvService service(service_config(2, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  // request_id is an opaque echo, not a dedup key: a client replaying an
  // id must get one response per request, all echoing the replayed id.
  const int fd = raw_connect(server.port());
  FrameDecoder decoder;
  unsigned char wire[kFrameBytes];
  Frame req;
  Frame resp;

  req.op = Op::kPut;
  req.request_id = 5;
  req.key = 9;
  req.value = 99;
  encode_frame(req, wire);
  send_all(fd, wire, sizeof(wire));
  ASSERT_TRUE(read_frame(fd, decoder, resp));
  EXPECT_EQ(resp.request_id, 5u);

  req.op = Op::kGet;
  req.value = 0;
  for (int replay = 0; replay < 2; ++replay) {
    encode_frame(req, wire);
    send_all(fd, wire, sizeof(wire));
  }
  for (int replay = 0; replay < 2; ++replay) {
    ASSERT_TRUE(read_frame(fd, decoder, resp));
    EXPECT_TRUE(resp.response);
    EXPECT_EQ(resp.request_id, 5u);
    // Majority quorums always intersect: both replays read the write.
    EXPECT_TRUE(resp.found);
    EXPECT_EQ(resp.value, 99);
  }
  ::close(fd);
  EXPECT_EQ(server.protocol_errors(), 0u);
  service.stop_and_drain();
  server.stop();
}

TEST(KvServerAdversarial, SharedRequestIdsStayOnTheirOwnConnections) {
  serve::KvService service(service_config(2, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  // Two connections using the same request_id for different keys: each
  // socket must receive exactly its own answer — any cross-connection
  // response routing or shared per-id state would swap the payloads.
  const int fd_a = raw_connect(server.port());
  const int fd_b = raw_connect(server.port());
  FrameDecoder dec_a;
  FrameDecoder dec_b;
  unsigned char wire[kFrameBytes];
  Frame req;
  Frame resp;

  req.op = Op::kPut;
  req.request_id = 7;
  req.key = 40;
  req.value = 4040;
  encode_frame(req, wire);
  send_all(fd_a, wire, sizeof(wire));
  ASSERT_TRUE(read_frame(fd_a, dec_a, resp));

  req.op = Op::kGet;
  req.request_id = 7;
  req.key = 40;  // written: only A's key holds a record
  req.value = 0;
  encode_frame(req, wire);
  send_all(fd_a, wire, sizeof(wire));
  req.key = 41;  // never written
  encode_frame(req, wire);
  send_all(fd_b, wire, sizeof(wire));

  ASSERT_TRUE(read_frame(fd_a, dec_a, resp));
  EXPECT_EQ(resp.request_id, 7u);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.value, 4040);
  ASSERT_TRUE(read_frame(fd_b, dec_b, resp));
  EXPECT_EQ(resp.request_id, 7u);
  EXPECT_FALSE(resp.found);

  ::close(fd_a);
  ::close(fd_b);
  EXPECT_EQ(server.protocol_errors(), 0u);
  service.stop_and_drain();
  server.stop();
}

// A peer that resets while its responses are being flushed must not pin
// its connection. The flush's hard send error can be the server's only
// notice, so the fd has to be reaped there. Raw sockets pipeline GETs,
// read one response, then abort with RST (SO_LINGER {1, 0}), a few
// hundred times; the process's fd count must then fall back to its
// starting value while the server still runs — stop() would close any
// leftovers and hide the leak.
TEST(KvServerAdversarial, PeerResetDuringFlushReleasesItsFd) {
  constexpr int kCycles = 500;
  constexpr std::size_t kPipelined = 1024;
  serve::KvService service(service_config(4, 2));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  std::vector<unsigned char> wire(kPipelined * kFrameBytes);
  Frame get;
  get.op = Op::kGet;
  for (std::size_t i = 0; i < kPipelined; ++i) {
    get.request_id = i;
    get.key = i;
    encode_frame(get, &wire[i * kFrameBytes]);
  }
  linger abort{};
  abort.l_onoff = 1;
  abort.l_linger = 0;
  const std::size_t fds_before = proc_entries("/proc/self/fd");
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const int fd = raw_connect(server.port());
    send_all(fd, wire.data(), wire.size());
    unsigned char first[kFrameBytes];
    ASSERT_GT(::recv(fd, first, sizeof(first), 0), 0);
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (proc_entries("/proc/self/fd") > fds_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(proc_entries("/proc/self/fd"), fds_before)
      << "server-side connections leaked after " << kCycles << " resets";
  service.stop_and_drain();
  server.stop();
}

// The largest send buffer the kernel grows a TCP socket to: the third
// field of /proc/sys/net/ipv4/tcp_wmem, or its usual 4 MiB if unreadable.
std::size_t tcp_wmem_max() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t min_bytes = 0;
  std::size_t default_bytes = 0;
  std::size_t max_bytes = 0;
  if (in >> min_bytes >> default_bytes >> max_bytes) return max_bytes;
  return std::size_t{4} << 20;
}

// A peer that stops reading makes the server's send() return EAGAIN with
// part of its buffered responses written: the one state in which the IO
// thread holds unsent bytes while the worker keeps appending new ones.
// A raw socket with a 4 KiB receive buffer pipelines GETs whose responses
// come to twice the largest send buffer the kernel grants, waits without
// reading, then reads everything. With one shard and one worker the
// responses complete in submission order, so every frame must decode and
// every request_id must arrive exactly once, in order.
TEST(KvServer, BackpressuredPeerGetsEveryResponseInOrder) {
  const std::size_t frames = std::max<std::size_t>(
      std::size_t{1} << 18, 2 * tcp_wmem_max() / kFrameBytes);
  serve::KvService service(service_config(1, 1));
  KvServer server(KvServer::Config{}, service);
  server.start();
  service.start();

  std::vector<unsigned char> wire(frames * kFrameBytes);
  Frame get;
  get.op = Op::kGet;
  for (std::size_t i = 0; i < frames; ++i) {
    get.request_id = i;
    get.key = i % 64;
    encode_frame(get, &wire[i * kFrameBytes]);
  }
  const int fd = raw_connect(server.port(), /*rcvbuf=*/4096);
  // A lost response must fail the test, not hang it.
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  send_all(fd, wire.data(), wire.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  FrameDecoder decoder(1 << 16);
  std::vector<unsigned char> chunk(decoder.capacity());
  Frame resp;
  std::uint64_t in_order = 0;  // responses received, all in order so far
  FrameDecoder::Result r = FrameDecoder::Result::kNeedMore;
  bool misordered = false;
  while (in_order < frames && !misordered &&
         r != FrameDecoder::Result::kError) {
    const ssize_t n = ::recv(fd, chunk.data(), decoder.free_bytes(), 0);
    if (n <= 0) break;
    decoder.feed(chunk.data(), static_cast<std::size_t>(n));
    while ((r = decoder.next(resp)) == FrameDecoder::Result::kFrame) {
      if (!resp.response || resp.request_id != in_order) {
        misordered = true;
        break;
      }
      ++in_order;
    }
  }
  ::close(fd);
  service.stop_and_drain();
  server.stop();
  EXPECT_NE(r, FrameDecoder::Result::kError) << decoder.error();
  EXPECT_FALSE(misordered) << "response " << in_order << " carried request_id "
                           << resp.request_id;
  EXPECT_EQ(in_order, frames);
  EXPECT_EQ(server.protocol_errors(), 0u);
}

}  // namespace
}  // namespace pqs::net
