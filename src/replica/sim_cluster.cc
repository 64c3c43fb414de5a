#include "replica/sim_cluster.h"

#include <utility>

#include "crypto/mac.h"
#include "util/require.h"

namespace pqs::replica {

SimCluster::SimCluster(Config config)
    : SimCluster(config, FaultPlan(config.quorums
                                       ? config.quorums->universe_size()
                                       : 1)) {}

SimCluster::SimCluster(Config config, FaultPlan faults)
    : config_(std::move(config)), rng_(config_.seed) {
  PQS_REQUIRE(config_.quorums != nullptr, "cluster needs a quorum system");
  const std::uint32_t n = config_.quorums->universe_size();
  PQS_REQUIRE(faults.size() == n, "fault plan size mismatch");
  PQS_REQUIRE(config_.clients >= 1, "at least one client");

  network_ = std::make_unique<sim::Network<Message>>(
      simulator_, config_.latency, rng_.fork());

  auto collude = std::make_shared<const ColludePlan>();
  servers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    servers_.push_back(
        std::make_unique<Server>(i, faults.mode(i), rng_.fork(), collude));
    Server* server = servers_.back().get();
    // One shared reply scratch across all servers: the simulator delivers
    // one message at a time and sends never re-enter a handler, so the
    // vector's capacity is reused for every delivery in the run.
    network_->register_node(i, [this, server](sim::NodeId from,
                                              const Message& msg) {
      server->process_into(from, msg, outbound_scratch_);
      for (auto& out : outbound_scratch_) {
        network_->send(server->id(), out.to, std::move(out.message));
      }
    });
  }

  const auto signer = crypto::Signer::from_seed(kWriterKeySeed);
  if (config_.verify_gossip) {
    for (auto& server : servers_) {
      server->set_gossip_verifier(crypto::Verifier(signer.key()));
    }
  }
  clients_.reserve(config_.clients);
  for (std::uint32_t c = 0; c < config_.clients; ++c) {
    Client::Config cc;
    cc.quorums = config_.quorums;
    cc.mode = config_.mode;
    cc.read_threshold = config_.read_threshold;
    cc.timeout = config_.client_timeout;
    cc.writer_key = signer.key();
    cc.writer_id = c + 1;
    const sim::NodeId node = n + c;
    clients_.push_back(std::make_unique<Client>(node, cc, simulator_,
                                                *network_, rng_.fork()));
    Client* client = clients_.back().get();
    network_->register_node(node, [client](sim::NodeId from,
                                           const Message& msg) {
      client->on_message(from, msg);
    });
  }
}

WriteOutcome SimCluster::write_sync(VariableId variable, std::int64_t value,
                                    std::uint32_t client_index) {
  std::optional<WriteOutcome> result;
  client(client_index)
      .write(variable, value,
             [&result](const WriteOutcome& o) { result = o; });
  const bool done =
      simulator_.run_while([&result] { return !result.has_value(); });
  PQS_CHECK(done && result.has_value());
  return *result;
}

void SimCluster::start_gossip(sim::Time period, std::uint32_t fanout) {
  PQS_REQUIRE(period > 0, "gossip period");
  PQS_REQUIRE(fanout >= 1 && fanout < universe_size(), "gossip fanout");
  PQS_REQUIRE(gossip_period_ == 0, "gossip already started");
  gossip_period_ = period;
  gossip_fanout_ = fanout;
  simulator_.schedule(period, [this] { gossip_tick(); });
}

void SimCluster::gossip_tick() {
  ++gossip_rounds_;
  const auto n = universe_size();
  for (auto& server : servers_) {
    const auto records = server->gossip_records();
    if (records.empty()) continue;
    for (std::uint32_t f = 0; f < gossip_fanout_; ++f) {
      auto peer = static_cast<sim::NodeId>(rng_.below(n - 1));
      if (peer >= server->id()) ++peer;  // skip self
      for (const auto& record : records) {
        network_->send(server->id(), peer, GossipPush{record});
      }
    }
  }
  simulator_.schedule(gossip_period_, [this] { gossip_tick(); });
}

ReadOutcome SimCluster::read_sync(VariableId variable,
                                  std::uint32_t client_index) {
  std::optional<ReadOutcome> result;
  client(client_index)
      .read(variable, [&result](const ReadOutcome& o) { result = o; });
  const bool done =
      simulator_.run_while([&result] { return !result.has_value(); });
  PQS_CHECK(done && result.has_value());
  return *result;
}

stats::ContentionSnapshot SimCluster::contention_snapshot() const {
  return snapshot_counters(servers_);
}

}  // namespace pqs::replica
