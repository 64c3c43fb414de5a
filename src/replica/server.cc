#include "replica/server.h"

#include <utility>

#include "util/require.h"

namespace pqs::replica {

Server::Server(std::uint32_t id, FaultMode mode, math::Rng rng,
               std::shared_ptr<const ColludePlan> collude_plan)
    : id_(id), mode_(mode), rng_(rng), collude_plan_(std::move(collude_plan)) {
  if (mode == FaultMode::kCollude) {
    PQS_REQUIRE(collude_plan_ != nullptr, "colluders need a shared plan");
  }
}

std::vector<Outbound> Server::process(std::uint32_t from,
                                      const Message& message) {
  std::vector<Outbound> out;
  process_into(from, message, out);
  return out;
}

void Server::process_into(std::uint32_t from, const Message& message,
                          std::vector<Outbound>& out) {
  out.clear();
  if (mode_ == FaultMode::kCrash) return;
  if (const auto* w = std::get_if<WriteRequest>(&message)) {
    handle_write(from, *w, out);
    return;
  }
  if (const auto* r = std::get_if<ReadRequest>(&message)) {
    handle_read(from, *r, out);
    return;
  }
  if (const auto* g = std::get_if<GossipPush>(&message)) {
    // Correct servers adopt fresher gossip; faulty ones ignore it. With a
    // gossip verifier installed, adoption is Byzantine-safe: records whose
    // writer MAC does not verify are discarded ([MMR99]).
    if (mode_ == FaultMode::kCorrect) {
      if (!gossip_verifier_ || gossip_verifier_->verify(g->record)) {
        adopt(g->record);
      }
    }
    return;
  }
  // WriteAck / ReadReply are client-bound; a server receiving one ignores it.
}

void Server::handle_write(std::uint32_t from, const WriteRequest& w,
                          std::vector<Outbound>& out) {
  if (apply_write(w)) out.push_back({from, WriteAck{w.op, id_}});
}

void Server::handle_read(std::uint32_t from, const ReadRequest& r,
                         std::vector<Outbound>& out) {
  ReadReply reply;
  if (serve_read(r, reply)) out.push_back({from, reply});
}

bool Server::apply_write(const WriteRequest& w) {
  switch (mode_) {
    case FaultMode::kCorrect:
      if (!adopt(w.record)) ++writes_superseded_;
      ++writes_accepted_;
      return true;
    case FaultMode::kSuppress:
      return false;  // omission: never acknowledges
    case FaultMode::kStaleReplay:
    case FaultMode::kForge:
    case FaultMode::kCollude:
      // Pretends to accept (acks) but does not durably adopt; it keeps only
      // the first record per variable, so stale replay has something
      // genuine.
      entry_for(w.record);
      return true;
    case FaultMode::kCrash:
      break;
  }
  return false;
}

bool Server::serve_faulty_read(const ReadRequest& r, ReadReply& reply) {
  reply.has_value = false;
  reply.record = crypto::SignedRecord{};
  switch (mode_) {
    case FaultMode::kSuppress:
      return false;
    case FaultMode::kStaleReplay: {
      if (const Entry* entry = lookup(r.variable)) {
        reply.has_value = true;
        reply.record = entry->first;  // genuine tag, stale timestamp
      }
      return true;
    }
    case FaultMode::kForge: {
      reply.has_value = true;
      reply.record.variable = r.variable;
      reply.record.value = static_cast<std::int64_t>(rng_.next() >> 1);
      reply.record.timestamp = (~0ULL >> 8) - rng_.below(1024);
      reply.record.writer = 0;
      reply.record.tag = rng_.next();  // cannot compute a valid tag
      return true;
    }
    case FaultMode::kCollude: {
      reply.has_value = true;
      reply.record = collude_plan_->forged(r.variable);
      return true;
    }
    case FaultMode::kCorrect:  // served inline by serve_read
    case FaultMode::kCrash:
      break;
  }
  return false;
}

Server::Entry& Server::entry_for(const crypto::SignedRecord& record) {
  if (!slots_.empty()) {
    const std::uint32_t index = slots_[probe(record.variable)];
    if (index != 0) return entries_[index - 1];
  }
  if (2 * (entries_.size() + 1) > slots_.size()) {
    // Keep the table at most half full: double it and re-index.
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      slots_[probe(entries_[i].first.variable)] =
          static_cast<std::uint32_t>(i + 1);
    }
  }
  slots_[probe(record.variable)] =
      static_cast<std::uint32_t>(entries_.size() + 1);
  entries_.push_back({crypto::SignedRecord{}, record, false});
  return entries_.back();
}

const crypto::SignedRecord* Server::find(VariableId variable) const {
  const Entry* entry = lookup(variable);
  return entry != nullptr && entry->has_current ? &entry->current : nullptr;
}

bool Server::adopt(const crypto::SignedRecord& record) {
  Entry& entry = entry_for(record);
  if (entry.has_current && record.timestamp <= entry.current.timestamp) {
    return false;
  }
  entry.current = record;
  entry.has_current = true;
  return true;
}

std::vector<crypto::SignedRecord> Server::snapshot() const {
  std::vector<crypto::SignedRecord> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (entry.has_current) out.push_back(entry.current);
  }
  return out;
}

stats::ContentionSnapshot snapshot_counters(
    const std::vector<std::unique_ptr<Server>>& servers) {
  stats::ContentionSnapshot snap(static_cast<std::uint32_t>(servers.size()));
  for (std::uint32_t u = 0; u < servers.size(); ++u) {
    snap.server(u) = servers[u]->counters();
  }
  return snap;
}

std::vector<crypto::SignedRecord> Server::gossip_records() {
  switch (mode_) {
    case FaultMode::kCorrect:
      return snapshot();
    case FaultMode::kStaleReplay: {
      std::vector<crypto::SignedRecord> out;
      out.reserve(entries_.size());
      for (const Entry& entry : entries_) out.push_back(entry.first);
      return out;
    }
    case FaultMode::kForge: {
      std::vector<crypto::SignedRecord> out;
      for (const Entry& entry : entries_) {
        crypto::SignedRecord fake;
        fake.variable = entry.first.variable;
        fake.value = static_cast<std::int64_t>(rng_.next() >> 1);
        fake.timestamp = (~0ULL >> 8) - rng_.below(1024);
        fake.writer = 0;
        fake.tag = rng_.next();
        out.push_back(fake);
      }
      return out;
    }
    case FaultMode::kCollude: {
      std::vector<crypto::SignedRecord> out;
      for (const Entry& entry : entries_) {
        out.push_back(collude_plan_->forged(entry.first.variable));
      }
      return out;
    }
    case FaultMode::kSuppress:
    case FaultMode::kCrash:
      break;
  }
  return {};
}

}  // namespace pqs::replica
