// Asynchronous client for the discrete-event simulation.
//
// Implements the write and read protocols of Sections 3.1, 4 and 5 over a
// sim::Network: choose a quorum by the access strategy, contact every
// member, collect acknowledgements/replies, and complete either when the
// whole quorum has answered or when the operation timeout fires (crashed and
// suppressing servers never answer; the paper's protocols implicitly assume
// the client does not block on them forever).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crypto/mac.h"
#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/quorum_system.h"
#include "replica/message.h"
#include "replica/read_rules.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pqs::replica {

struct WriteOutcome {
  quorum::Quorum quorum;
  std::uint32_t acks = 0;
  std::uint64_t timestamp = 0;
  bool complete = false;  // every quorum member acked before the timeout
};

struct ReadOutcome {
  quorum::Quorum quorum;
  std::uint32_t replies = 0;
  ReadSelection selection;
  bool complete = false;  // every quorum member replied before the timeout
};

class Client {
 public:
  struct Config {
    std::shared_ptr<const quorum::QuorumSystem> quorums;
    ReadMode mode = ReadMode::kPlain;
    std::uint32_t read_threshold = 1;
    sim::Time timeout = 1'000'000;  // 1 virtual second
    crypto::Key128 writer_key{};
    std::uint32_t writer_id = 1;
  };

  Client(sim::NodeId node, Config config, sim::Simulator& simulator,
         sim::Network<Message>& network, math::Rng rng);

  sim::NodeId node() const { return node_; }

  // Issues a write; `done` fires exactly once.
  void write(VariableId variable, std::int64_t value,
             std::function<void(const WriteOutcome&)> done);

  // Issues a read; `done` fires exactly once.
  void read(VariableId variable,
            std::function<void(const ReadOutcome&)> done);

  // Network delivery entry point (registered with the network by the
  // cluster).
  void on_message(sim::NodeId from, const Message& message);

 private:
  struct PendingWrite {
    WriteOutcome outcome;
    std::vector<std::uint32_t> acked;  // distinct servers, sorted insert
    std::function<void(const WriteOutcome&)> done;
  };
  struct PendingRead {
    ReadOutcome outcome;
    std::vector<std::uint32_t> responded;  // distinct servers
    std::vector<ReadReply> replies;
    std::function<void(const ReadOutcome&)> done;
  };

  // Records `server` in the sorted set `seen` iff it belongs to `quorum`
  // and was not recorded before. Duplicate and rogue replies are dropped.
  static bool record_distinct(const quorum::Quorum& quorum,
                              std::vector<std::uint32_t>& seen,
                              std::uint32_t server);

  void finish_write(OpId op, bool complete);
  void finish_read(OpId op, bool complete);

  // Draws the next quorum through draw_mask_ scratch and materializes it
  // into `out`. Each pending operation owns a fresh outcome vector, so
  // unlike InstantCluster the sim client still allocates per op.
  void draw_quorum(quorum::Quorum& out);
  // Sends `message` to every member of the quorum just drawn.
  void send_to_quorum(const quorum::Quorum& quorum, const Message& message);

  sim::NodeId node_;
  Config config_;
  sim::Simulator& simulator_;
  sim::Network<Message>& network_;
  math::Rng rng_;
  crypto::Signer signer_;
  crypto::Verifier verifier_;
  std::uint64_t next_op_ = 1;
  std::uint64_t write_seq_ = 0;
  quorum::QuorumBitset draw_mask_;  // per-client draw scratch
  std::unordered_map<OpId, PendingWrite> writes_;
  std::unordered_map<OpId, PendingRead> reads_;
};

}  // namespace pqs::replica
