#include "replica/instant_cluster.h"

#include <cstddef>
#include <utility>

#include "util/require.h"

namespace pqs::replica {

namespace {

std::uint32_t plan_universe(const InstantCluster::Config& config) {
  if (config.quorums != nullptr) return config.quorums->universe_size();
  if (config.strategy != nullptr) return config.strategy->universe_size();
  return 1;
}

}  // namespace

InstantCluster::InstantCluster(Config config)
    : InstantCluster(config, FaultPlan(plan_universe(config))) {}

InstantCluster::InstantCluster(Config config, FaultPlan faults)
    : config_(std::move(config)),
      signer_(crypto::Signer::from_seed(kWriterKeySeed)),
      verifier_(signer_.key()),
      rng_(config_.seed),
      churn_rng_(config_.churn_seed),
      collude_(std::make_shared<const ColludePlan>()) {
  if (config_.strategy != nullptr) {
    PQS_REQUIRE(!config_.dynamic_membership,
                "a strategy's support is fixed-universe; it cannot be "
                "combined with dynamic membership");
    if (config_.quorums == nullptr) {
      config_.quorums = config_.strategy;
    } else {
      PQS_REQUIRE(config_.quorums->universe_size() ==
                      config_.strategy->universe_size(),
                  "strategy universe mismatch");
    }
  }
  PQS_REQUIRE(config_.quorums != nullptr, "cluster needs a quorum system");
  const std::uint32_t n = config_.quorums->universe_size();
  PQS_REQUIRE(faults.size() == n, "fault plan size mismatch");
  servers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    servers_.push_back(
        std::make_unique<Server>(i, faults.mode(i), rng_.fork(), collude_));
  }
  writer_seq_.assign(1u << 8, 0);
  if (config_.dynamic_membership) {
    const std::uint32_t live =
        config_.initial_live == 0 ? n : config_.initial_live;
    PQS_REQUIRE(live <= n, "initial_live exceeds slot capacity");
    PQS_REQUIRE(live >= config_.quorums->min_quorum_size(),
                "initial membership smaller than a quorum");
    view_ = quorum::MembershipView(n, live);
    for (auto& s : servers_) s->install_membership(view_);
  }
}

void InstantCluster::fresh_server(quorum::ServerId slot) {
  servers_[slot] =
      std::make_unique<Server>(slot, FaultMode::kCorrect, churn_rng_.fork(),
                               collude_);
  servers_[slot]->install_membership(view_);
}

void InstantCluster::join(quorum::ServerId slot) {
  PQS_REQUIRE(config_.dynamic_membership, "static membership");
  view_.join(slot);
  fresh_server(slot);
}

void InstantCluster::leave(quorum::ServerId slot) {
  PQS_REQUIRE(config_.dynamic_membership, "static membership");
  PQS_REQUIRE(view_.live_count() > config_.quorums->min_quorum_size(),
              "leave would shrink membership below a quorum");
  view_.leave(slot);
}

void InstantCluster::replace(quorum::ServerId victim,
                             quorum::ServerId joiner) {
  PQS_REQUIRE(config_.dynamic_membership, "static membership");
  view_.replace(victim, joiner);
  fresh_server(joiner);
}

quorum::ServerId InstantCluster::churn_replace() {
  PQS_REQUIRE(config_.dynamic_membership, "static membership");
  const auto victim = view_.nth_live(
      static_cast<std::uint32_t>(churn_rng_.below(view_.live_count())));
  replace(victim, victim);
  return victim;
}

void InstantCluster::run_churn(std::uint32_t events) {
  for (std::uint32_t i = 0; i < events; ++i) churn_replace();
}

std::uint64_t InstantCluster::next_timestamp(std::uint32_t writer) {
  PQS_REQUIRE(writer < writer_seq_.size(), "writer id");
  return (++writer_seq_[writer] << 16) | writer;
}

void InstantCluster::draw_quorum(bool is_write) {
  if (config_.strategy) {
    // One alias-table word from the shared quorum stream; the prebuilt
    // support mask is copied into the scratch.
    const quorum::Strategy& strategy = *config_.strategy;
    const std::uint32_t idx = is_write ? strategy.draw_write_index(rng_)
                                       : strategy.draw_read_index(rng_);
    record_strategy_draw(idx, is_write);
    draw_mask_ = is_write ? strategy.write_mask(idx) : strategy.read_mask(idx);
  } else if (config_.dynamic_membership) {
    // R(live, q) over the current view. With every slot live this
    // consumes the exact rng draws of the static sample_mask below.
    view_.sample_live_mask(config_.quorums->min_quorum_size(), rng_,
                           draw_mask_, compact_scratch_);
  } else {
    config_.quorums->sample_mask(draw_mask_, rng_);
  }
}

WriteResult InstantCluster::write(VariableId variable, std::int64_t value) {
  return write_as(1, variable, value);
}

WriteResult InstantCluster::write_as(std::uint32_t writer, VariableId variable,
                                     std::int64_t value) {
  WriteResult result;
  write_as_into(result, writer, variable, value);
  return result;
}

void InstantCluster::write_into(WriteResult& result, VariableId variable,
                                std::int64_t value) {
  write_as_into(result, 1, variable, value);
}

void InstantCluster::write_as_into(WriteResult& result, std::uint32_t writer,
                                   VariableId variable, std::int64_t value) {
  result.acks = 0;
  draw_quorum(/*is_write=*/true);
  result.timestamp = next_timestamp(writer);
  const auto record = signer_.sign(variable, value, result.timestamp, writer);
  draw_mask_.for_each_set_bit([&](quorum::ServerId u) {
    if (servers_[u]->apply_write(WriteRequest{0, record})) ++result.acks;
  });
  draw_mask_.to_quorum_into(result.quorum);
}

ReadResult InstantCluster::read(VariableId variable) {
  ReadResult result;
  read_into(result, variable);
  return result;
}

void InstantCluster::read_into(ReadResult& result, VariableId variable) {
  result.repairs = 0;
  draw_quorum(/*is_write=*/false);
  // Each server writes its reply straight into the next scratch slot,
  // overwriting whatever an earlier read left there; a server that does
  // not answer leaves the slot to the next member.
  std::uint32_t replies = 0;
  draw_mask_.for_each_set_bit([&](quorum::ServerId u) {
    if (replies == reply_scratch_.size()) reply_scratch_.emplace_back();
    if (servers_[u]->serve_read(ReadRequest{0, variable},
                                reply_scratch_[replies])) {
      ++replies;
    }
  });
  reply_scratch_.resize(replies);
  result.replies = replies;
  draw_mask_.to_quorum_into(result.quorum);
  result.selection =
      select(config_.mode, reply_scratch_, &verifier_, config_.read_threshold);
}

void InstantCluster::read_repair_into(ReadResult& result,
                                      VariableId variable) {
  read_into(result, variable);
  if (!result.selection.has_value) return;
  const crypto::SignedRecord& best = result.selection.record;
  // The quorum and the reply scratch are both in ascending server order
  // (read_into fills them from one for_each_set_bit walk, and the scratch
  // skips servers that did not answer), so one lockstep walk pairs each
  // quorum member with its reply, if any.
  std::size_t next = 0;
  for (const auto u : result.quorum) {
    bool fresh = false;
    if (next < reply_scratch_.size() && reply_scratch_[next].server == u) {
      const ReadReply& reply = reply_scratch_[next++];
      fresh = reply.has_value && reply.record.timestamp >= best.timestamp;
    }
    if (fresh) continue;
    servers_[u]->apply_write(WriteRequest{0, best});
    ++result.repairs;
  }
}

stats::ContentionSnapshot InstantCluster::contention_snapshot() const {
  return snapshot_counters(servers_);
}

}  // namespace pqs::replica
