// InstantCluster: the protocol stack with a zero-latency, loss-free network.
//
// Runs the exact same Server code and read-selection rules as the
// discrete-event SimCluster, but message exchange is a direct function call.
// This is the harness for statistical validation (hundreds of thousands of
// write/read pairs to measure staleness rates against epsilon) where event
// scheduling would only add cost, and for the gossip engine's experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/mac.h"
#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/membership.h"
#include "quorum/quorum_system.h"
#include "quorum/strategy.h"
#include "replica/fault.h"
#include "replica/read_rules.h"
#include "replica/server.h"
#include "stats/counters.h"

namespace pqs::replica {

struct WriteResult {
  quorum::Quorum quorum;    // where the write was directed
  std::uint32_t acks = 0;   // servers that acknowledged
  std::uint64_t timestamp = 0;
};

struct ReadResult {
  quorum::Quorum quorum;
  std::uint32_t replies = 0;  // servers that answered at all
  ReadSelection selection;
  // Repair write-backs pushed by read_repair_into (0 on plain reads).
  std::uint32_t repairs = 0;
};

class InstantCluster {
 public:
  struct Config {
    std::shared_ptr<const quorum::QuorumSystem> quorums;
    ReadMode mode = ReadMode::kPlain;
    std::uint32_t read_threshold = 1;  // masking k
    std::uint64_t seed = 1;
    // Dynamic membership (timed quorums). When set, the quorum system's
    // universe becomes a fixed *slot capacity* and quorum draws become
    // uniform q-subsets (q = quorums->min_quorum_size()) of the cluster's
    // current MembershipView — R(live, q) over whoever is live right now,
    // the regime of core/timed_epsilon.h. initial_live caps the starting
    // membership to slots [0, initial_live) (0 means "all live"). Churn
    // randomness comes from a dedicated generator seeded with churn_seed,
    // so membership events never perturb the quorum-draw stream — with a
    // full live view, draws are bit-identical to the static system's.
    bool dynamic_membership = false;
    std::uint32_t initial_live = 0;
    std::uint64_t churn_seed = 0xc4a84e11u;
    // Workload-aware access strategy (quorum/strategy.h). When set, writes
    // draw from its write distribution and reads from its read
    // distribution — one alias-table rng word per draw. `quorums` may be
    // left null (the strategy then doubles as the cluster's quorum system)
    // or must share the strategy's universe. Mutually exclusive with
    // dynamic_membership: a strategy's support is a fixed-universe object,
    // while timed quorums re-draw over whoever is live.
    std::shared_ptr<const quorum::Strategy> strategy;
  };

  // All servers correct.
  explicit InstantCluster(Config config);
  InstantCluster(Config config, FaultPlan faults);

  std::uint32_t universe_size() const {
    return static_cast<std::uint32_t>(servers_.size());
  }

  // Single-writer operations (writer id 1), per the paper's safe-variable
  // protocol. Timestamps are strictly increasing per writer.
  WriteResult write(VariableId variable, std::int64_t value);
  ReadResult read(VariableId variable);

  // Multi-writer entry point: timestamps are (sequence << 16) | writer so
  // distinct writers never collide. The paper's semantics (Theorem 3.2)
  // are only claimed for a single writer; this is the standard extension.
  WriteResult write_as(std::uint32_t writer, VariableId variable,
                       std::int64_t value);

  // In-place variants: identical protocol execution, but `result` is
  // overwritten in place so its quorum vector's capacity is reused across
  // operations. Quorums are drawn with sample_mask into per-instance
  // bitset scratch and the servers are reached through their direct entry
  // points, so the steady-state hot loop does not allocate. write/read
  // above are thin wrappers over these.
  void write_into(WriteResult& result, VariableId variable,
                  std::int64_t value);
  void write_as_into(WriteResult& result, std::uint32_t writer,
                     VariableId variable, std::int64_t value);
  void read_into(ReadResult& result, VariableId variable);

  // Read with read-repair: performs read_into, then — when a value was
  // selected — pushes the winning record back to every read-quorum server
  // whose reply was missing or carried an older timestamp (one direct
  // apply_write per such server; non-answering servers still cost a repair
  // message). result.repairs counts the write-backs. Repair consumes no
  // rng draws, so quorum streams are identical with repair on or off —
  // only server state (and future reads) change.
  void read_repair_into(ReadResult& result, VariableId variable);

  // Per-server protocol counters as one cluster-level snapshot (the
  // observability face of the multi-writer contention experiments).
  stats::ContentionSnapshot contention_snapshot() const;

  // --- Dynamic membership (config.dynamic_membership only) ---
  //
  // The cluster holds the authoritative MembershipView its clients draw
  // quorums from; every change bumps the view epoch by one and installs
  // the new view on the affected server (diffusion to the rest of the
  // fleet is gossip's job — see diffusion/GossipEngine::view_agreement).
  // join activates a dead slot with a fresh empty server; leave retires a
  // live slot (the Server object stays, but no longer receives draws);
  // replace retires `victim` and activates `joiner` with a fresh server in
  // one reconfiguration — victim == joiner is in-place slot reuse, the
  // churn model of Gramoli-Raynal where the fleet size is constant but
  // members (and their stored records) turn over.
  const quorum::MembershipView& view() const { return view_; }
  std::uint64_t view_epoch() const { return view_.epoch(); }
  void join(quorum::ServerId slot);
  void leave(quorum::ServerId slot);
  void replace(quorum::ServerId victim, quorum::ServerId joiner);
  // One churn event: a uniformly random live slot is replaced in place by
  // a fresh server (drawn from the dedicated churn rng, never the quorum
  // stream). Returns the replaced slot.
  quorum::ServerId churn_replace();
  // `events` consecutive churn_replace() steps.
  void run_churn(std::uint32_t events);
  math::Rng& churn_rng() { return churn_rng_; }

  Server& server(std::uint32_t id) { return *servers_.at(id); }
  const Server& server(std::uint32_t id) const { return *servers_.at(id); }
  std::vector<std::unique_ptr<Server>>& servers() { return servers_; }

  const crypto::Verifier& verifier() const { return verifier_; }
  const quorum::QuorumSystem& quorums() const { return *config_.quorums; }
  math::Rng& rng() { return rng_; }

  // Deterministic record of the strategy draws this cluster has made:
  // `draws` counts them, `checksum` folds (index, read/write side) in
  // order. Pure function of the operation sequence — part of the
  // serving tier's bit-identity aggregate when a strategy is installed.
  struct StrategyDrawStats {
    std::uint64_t draws = 0;
    std::uint64_t checksum = 0;
  };
  StrategyDrawStats strategy_draw_stats() const {
    return {strategy_draws_, strategy_checksum_};
  }

 private:
  std::uint64_t next_timestamp(std::uint32_t writer);
  // Draws the operation's quorum into draw_mask_: from the strategy's
  // write or read distribution when one is installed, else R(live, q)
  // over the view under dynamic membership, else sample_mask.
  void draw_quorum(bool is_write);
  // Installs a fresh, empty, correct server into `slot` (rng forked from
  // the churn stream) carrying the current view.
  void fresh_server(quorum::ServerId slot);
  void record_strategy_draw(std::uint32_t index, bool is_write) {
    ++strategy_draws_;
    strategy_checksum_ = strategy_checksum_ * 0x9e3779b97f4a7c15ULL +
                         (2ULL * index + (is_write ? 1 : 0) + 1);
  }

  Config config_;
  crypto::Signer signer_;
  crypto::Verifier verifier_;
  math::Rng rng_;
  math::Rng churn_rng_;
  quorum::MembershipView view_;
  std::shared_ptr<const ColludePlan> collude_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::uint64_t> writer_seq_;
  // Compact-universe draw scratch for view-aware mask draws.
  std::vector<std::uint64_t> compact_scratch_;
  // Per-instance draw and reply scratch: the quorum stays a mask while the
  // operation runs and is materialized into the result at the end.
  quorum::QuorumBitset draw_mask_;
  std::vector<ReadReply> reply_scratch_;
  std::uint64_t strategy_draws_ = 0;
  std::uint64_t strategy_checksum_ = 0;
};

}  // namespace pqs::replica
