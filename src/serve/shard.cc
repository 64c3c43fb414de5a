#include "serve/shard.h"

#include <ostream>

namespace pqs::serve {

Shard::Shard(std::unique_ptr<replica::InstantCluster> cluster)
    : cluster_(std::move(cluster)),
      accesses_(cluster_->universe_size(), 0) {}

bool Shard::apply(const Request& request) {
  if (request.fault.has_value()) {
    cluster_->server(static_cast<std::uint32_t>(request.key))
        .set_mode(*request.fault);
    ++counters_.fault_events;
    return false;
  }
  if (request.churn != ChurnKind::kNone) {
    switch (request.churn) {
      case ChurnKind::kReplace:
        cluster_->churn_replace();
        break;
      case ChurnKind::kJoin:
        cluster_->join(static_cast<quorum::ServerId>(request.key));
        break;
      case ChurnKind::kLeave:
        cluster_->leave(static_cast<quorum::ServerId>(request.key));
        break;
      case ChurnKind::kNone:
        break;
    }
    ++counters_.churn_events;
    return false;
  }
  if (request.is_read) {
    ++counters_.reads;
    cluster_->read_into(read_scratch_, request.key);
    for (const auto u : read_scratch_.quorum) ++accesses_[u];
    const auto& selection = read_scratch_.selection;
    // Byzantine accounting first: what the selection rule refused, and
    // whether refusing was enough to still pick a value (masked) or left
    // the read with ⊥ (bot). All deterministic, so inside the gate.
    counters_.rejected_forgeries += selection.rejected;
    if (selection.rejected > 0 && selection.has_value) {
      ++counters_.masked_reads;
    }
    if (!selection.has_value) ++counters_.bot_reads;
    const auto expected = last_written_.find(request.key);
    if (expected == last_written_.end()) {
      ++counters_.empty_reads;
    } else if (!selection.has_value) {
      ++counters_.empty_reads;
      ++counters_.stale_reads;
    } else if (selection.record.value != expected->second) {
      ++counters_.stale_reads;
    }
  } else {
    ++counters_.writes;
    cluster_->write_into(write_scratch_, request.key, request.value);
    for (const auto u : write_scratch_.quorum) ++accesses_[u];
    last_written_[request.key] = request.value;
  }
  return true;
}

ShardAggregate Shard::aggregate() const {
  ShardAggregate out = counters_;
  for (std::size_t u = 0; u < accesses_.size(); ++u) {
    out.access_checksum +=
        (static_cast<std::uint64_t>(u) + 1) * accesses_[u];
  }
  out.membership_epoch = cluster_->view_epoch();
  const auto draws = cluster_->strategy_draw_stats();
  out.strategy_draws = draws.draws;
  out.strategy_checksum = draws.checksum;
  return out;
}

stats::LoadProfile Shard::profile() const {
  return stats::LoadProfile(accesses_, counters_.reads + counters_.writes);
}

void run_closed_loop(Shard& shard, workload::OpenLoopGenerator& gen,
                     std::uint64_t ops) {
  workload::Operation op;
  Request request;
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    request.key = op.key;
    request.value = op.value;
    request.is_read = op.is_read;
    shard.apply(request);
  }
}

std::ostream& operator<<(std::ostream& os, const ShardAggregate& a) {
  const char* sep = "{";
#define PQS_AGGREGATE_PRINT(name) \
  os << sep << #name "=" << a.name; \
  sep = ", ";
  PQS_SHARD_AGGREGATE_FIELDS(PQS_AGGREGATE_PRINT)
#undef PQS_AGGREGATE_PRINT
  return os << "}";
}

}  // namespace pqs::serve
