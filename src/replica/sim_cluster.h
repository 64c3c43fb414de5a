// SimCluster: the full message-passing deployment.
//
// Assembles a Simulator, a lossy/latency network, n servers (with fault
// injection) and one or more clients into a runnable system. Synchronous
// write_sync/read_sync wrappers pump the event loop until the operation
// callback fires, which gives tests and examples a sequential face over the
// fully asynchronous protocol execution.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "math/rng.h"
#include "quorum/quorum_system.h"
#include "replica/client.h"
#include "replica/fault.h"
#include "replica/server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "stats/counters.h"

namespace pqs::replica {

class SimCluster {
 public:
  struct Config {
    std::shared_ptr<const quorum::QuorumSystem> quorums;
    ReadMode mode = ReadMode::kPlain;
    std::uint32_t read_threshold = 1;
    sim::LatencyModel latency;
    sim::Time client_timeout = 1'000'000;
    std::uint64_t seed = 1;
    std::uint32_t clients = 1;
    // Correct servers verify gossip-path records against the writer MAC
    // before adoption (Byzantine-safe diffusion, [MMR99]).
    bool verify_gossip = false;
  };

  explicit SimCluster(Config config);
  SimCluster(Config config, FaultPlan faults);

  std::uint32_t universe_size() const {
    return static_cast<std::uint32_t>(servers_.size());
  }

  sim::Simulator& simulator() { return simulator_; }
  sim::Network<Message>& network() { return *network_; }
  Client& client(std::uint32_t index = 0) { return *clients_.at(index); }
  Server& server(std::uint32_t id) { return *servers_.at(id); }
  std::vector<std::unique_ptr<Server>>& servers() { return servers_; }

  // Blocking wrappers: run the simulation until the operation completes.
  WriteOutcome write_sync(VariableId variable, std::int64_t value,
                          std::uint32_t client_index = 0);
  ReadOutcome read_sync(VariableId variable, std::uint32_t client_index = 0);

  // Starts lazy anti-entropy over the network (Section 1.1): every
  // `period`, each non-crashed server pushes its gossip records to
  // `fanout` random peers as GossipPush messages. Runs until the
  // simulation stops being pumped. Idempotent per cluster.
  void start_gossip(sim::Time period, std::uint32_t fanout);

  std::uint64_t gossip_rounds() const { return gossip_rounds_; }

  // Per-server protocol counters as one cluster-level snapshot — the same
  // observability face as InstantCluster::contention_snapshot, so
  // experiments can diff contention between the instant and
  // message-passing deployments.
  stats::ContentionSnapshot contention_snapshot() const;

 private:
  void gossip_tick();

  Config config_;
  math::Rng rng_;
  sim::Simulator simulator_;
  std::unique_ptr<sim::Network<Message>> network_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  // Reply scratch shared by the server delivery handlers (single-threaded
  // event loop; capacity reused across every delivery).
  std::vector<Outbound> outbound_scratch_;
  sim::Time gossip_period_ = 0;
  std::uint32_t gossip_fanout_ = 0;
  std::uint64_t gossip_rounds_ = 0;
};

}  // namespace pqs::replica
