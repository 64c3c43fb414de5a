// A replicated-variable server.
//
// Each server stores, per variable, the highest-timestamped record it has
// accepted, exactly as in the paper's access protocol (Section 3.1): writes
// install (value, timestamp) pairs, reads return the stored pair. The server
// is network-agnostic — process() returns the messages to transmit — so the
// same implementation runs under the discrete-event SimCluster, the direct
// InstantCluster, and the gossip engine.
//
// Fault behaviour is injected via FaultMode (see fault.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "math/rng.h"
#include "quorum/membership.h"
#include "replica/fault.h"
#include "replica/message.h"
#include "stats/counters.h"

namespace pqs::replica {

struct Outbound {
  std::uint32_t to = 0;
  Message message;
};

class Server {
 public:
  Server(std::uint32_t id, FaultMode mode, math::Rng rng,
         std::shared_ptr<const ColludePlan> collude_plan = nullptr);

  std::uint32_t id() const { return id_; }
  FaultMode mode() const { return mode_; }
  void set_mode(FaultMode mode) { mode_ = mode; }

  // Handles one message from `from` (a client or a peer server) and returns
  // the replies to send. Crashed servers return nothing and change nothing.
  std::vector<Outbound> process(std::uint32_t from, const Message& message);

  // As process(), but appends the replies to `out` (which is cleared
  // first) so its capacity is reused across deliveries — the per-delivery
  // entry point of the pooled SimCluster network path. process() routes
  // through this, so the two cannot diverge.
  void process_into(std::uint32_t from, const Message& message,
                    std::vector<Outbound>& out);

  // Direct-call entry points for the zero-allocation protocol path
  // (InstantCluster): the same state transitions and fault behaviours as
  // process(), minus the Outbound vector. apply_write returns whether the
  // server acknowledges; serve_read overwrites every field of `reply`
  // (which may hold a previous reply) and returns whether the server
  // answers at all. A correct server's read is inline (below the class);
  // the faulty modes are served out of line. process() routes through
  // these, so the wire and direct paths cannot diverge.
  bool apply_write(const WriteRequest& w);
  bool serve_read(const ReadRequest& r, ReadReply& reply);

  // Current record for a variable (nullptr if none). Test/analysis access;
  // reflects the server's true state regardless of its advertised lies.
  // The pointer stays valid until the server next stores a variable it
  // has not seen before.
  const crypto::SignedRecord* find(VariableId variable) const;

  // Gossip-path adoption: installs the record if it is newer than what is
  // stored. Correct servers only; the gossip engine skips faulty ones.
  // Returns true if the record was adopted.
  bool adopt(const crypto::SignedRecord& record);

  // All records currently stored (for anti-entropy exchange), in the
  // order their variables were first seen.
  std::vector<crypto::SignedRecord> snapshot() const;

  // What this server pushes during a gossip round — honest state for
  // correct servers, stale or fabricated records for Byzantine ones,
  // nothing for crashed/suppressing servers. Variables come in first-seen
  // order, as in snapshot().
  std::vector<crypto::SignedRecord> gossip_records();

  // When set, gossip adoption verifies the writer MAC first (the
  // Byzantine-safe diffusion of [MMR99]); client writes are unaffected.
  void set_gossip_verifier(std::optional<crypto::Verifier> verifier) {
    gossip_verifier_ = std::move(verifier);
  }

  // Dynamic membership: the server's current view of the fleet. The
  // default view is empty (capacity 0, "not yet told") — gossip skips
  // pushing it, so static deployments keep their exact rng streams.
  // install_membership is the authoritative reconfiguration path (the
  // cluster applying a change); merge_membership is the gossip path
  // (lattice join, returns whether the view changed).
  const quorum::MembershipView& membership() const { return membership_; }
  void install_membership(const quorum::MembershipView& view) {
    membership_ = view;
  }
  bool merge_membership(const quorum::MembershipView& view) {
    return membership_.merge(view);
  }

  std::uint64_t writes_accepted() const { return writes_accepted_; }
  std::uint64_t reads_served() const { return reads_served_; }
  // Writes this server acknowledged but did not adopt because it already
  // held a higher-timestamped record — the server-side trace of
  // multi-writer timestamp conflicts (depends on which quorums the
  // contending writes actually landed on).
  std::uint64_t writes_superseded() const { return writes_superseded_; }
  // The counters above as one stats-layer value, so cluster snapshots
  // (InstantCluster/SimCluster::contention_snapshot) aggregate without
  // reaching into individual accessors.
  stats::ServerCounters counters() const {
    return {writes_accepted_, reads_served_, writes_superseded_};
  }

 private:
  void handle_write(std::uint32_t from, const WriteRequest& w,
                    std::vector<Outbound>& out);
  void handle_read(std::uint32_t from, const ReadRequest& r,
                   std::vector<Outbound>& out);
  // serve_read for every mode but kCorrect; op and server are already set.
  bool serve_faulty_read(const ReadRequest& r, ReadReply& reply);

  // The record store: one entry per variable the server has ever accepted
  // a write or gossip record for. `first` is the first record accepted
  // (what kStaleReplay serves); `current` is the highest-timestamped
  // record adopted, valid only when has_current. A Byzantine server acks
  // writes without adopting them, so it records `first` alone — and keeps
  // no current record after it heals until its first adopt.
  struct Entry {
    crypto::SignedRecord current;
    crypto::SignedRecord first;
    bool has_current = false;
  };
  // The entry for `variable`, or nullptr.
  const Entry* lookup(VariableId variable) const;
  // The entry for record.variable, appended with first = record when the
  // variable is new.
  Entry& entry_for(const crypto::SignedRecord& record);
  // Index of the slot holding `variable`'s entry, or of the empty slot
  // where it would go. slots_ must be non-empty.
  std::size_t probe(VariableId variable) const;

  std::uint32_t id_;
  FaultMode mode_;
  math::Rng rng_;
  std::shared_ptr<const ColludePlan> collude_plan_;
  std::optional<crypto::Verifier> gossip_verifier_;
  quorum::MembershipView membership_;
  // Entries in first-seen order, so snapshot() and gossip_records() list
  // variables in an order that does not depend on the standard library.
  std::vector<Entry> entries_;
  // Open-addressing index over entries_ (linear probing, power-of-two
  // size, at most half full): 0 marks an empty slot, i + 1 entry i.
  std::vector<std::uint32_t> slots_;
  std::uint64_t writes_accepted_ = 0;
  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_superseded_ = 0;
};

inline std::size_t Server::probe(VariableId variable) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot =
      static_cast<std::size_t>((variable * 0x9e3779b97f4a7c15ULL) >> 32) &
      mask;
  while (slots_[slot] != 0 &&
         entries_[slots_[slot] - 1].first.variable != variable) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

inline const Server::Entry* Server::lookup(VariableId variable) const {
  if (slots_.empty()) return nullptr;
  const std::uint32_t index = slots_[probe(variable)];
  return index == 0 ? nullptr : &entries_[index - 1];
}

inline bool Server::serve_read(const ReadRequest& r, ReadReply& reply) {
  reply.op = r.op;
  reply.server = id_;
  if (mode_ != FaultMode::kCorrect) return serve_faulty_read(r, reply);
  ++reads_served_;
  const Entry* entry = lookup(r.variable);
  if (entry != nullptr && entry->has_current) {
    reply.has_value = true;
    reply.record = entry->current;
  } else {
    reply.has_value = false;
    reply.record = crypto::SignedRecord{};
  }
  return true;
}

// One counters() entry per server, as a cluster-level snapshot — the
// shared body of InstantCluster/SimCluster::contention_snapshot (stats
// cannot depend on replica, so the aggregation lives here).
stats::ContentionSnapshot snapshot_counters(
    const std::vector<std::unique_ptr<Server>>& servers);

}  // namespace pqs::replica
