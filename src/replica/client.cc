#include "replica/client.h"

#include <algorithm>
#include <utility>

#include "util/require.h"

namespace pqs::replica {

Client::Client(sim::NodeId node, Config config, sim::Simulator& simulator,
               sim::Network<Message>& network, math::Rng rng)
    : node_(node),
      config_(std::move(config)),
      simulator_(simulator),
      network_(network),
      rng_(rng),
      signer_(config_.writer_key),
      verifier_(config_.writer_key) {
  PQS_REQUIRE(config_.quorums != nullptr, "client needs a quorum system");
  PQS_REQUIRE(config_.timeout > 0, "client timeout");
}

void Client::draw_quorum(quorum::Quorum& out) {
  config_.quorums->sample_mask(draw_mask_, rng_);
  draw_mask_.to_quorum_into(out);
}

void Client::send_to_quorum(const quorum::Quorum& quorum,
                            const Message& message) {
  for (auto u : quorum) network_.send(node_, u, message);
}

void Client::write(VariableId variable, std::int64_t value,
                   std::function<void(const WriteOutcome&)> done) {
  const OpId op = next_op_++;
  PendingWrite pending;
  draw_quorum(pending.outcome.quorum);
  pending.outcome.timestamp = (++write_seq_ << 16) | config_.writer_id;
  pending.done = std::move(done);
  const auto record = signer_.sign(variable, value, pending.outcome.timestamp,
                                   config_.writer_id);
  const auto it = writes_.emplace(op, std::move(pending)).first;
  send_to_quorum(it->second.outcome.quorum, WriteRequest{op, record});
  simulator_.schedule(config_.timeout, [this, op] { finish_write(op, false); });
}

void Client::read(VariableId variable,
                  std::function<void(const ReadOutcome&)> done) {
  const OpId op = next_op_++;
  PendingRead pending;
  draw_quorum(pending.outcome.quorum);
  pending.done = std::move(done);
  const auto it = reads_.emplace(op, std::move(pending)).first;
  send_to_quorum(it->second.outcome.quorum, ReadRequest{op, variable});
  simulator_.schedule(config_.timeout, [this, op] { finish_read(op, false); });
}

bool Client::record_distinct(const quorum::Quorum& quorum,
                             std::vector<std::uint32_t>& seen,
                             std::uint32_t server) {
  if (!std::binary_search(quorum.begin(), quorum.end(), server)) {
    return false;  // rogue reply from a server we never contacted
  }
  const auto at = std::lower_bound(seen.begin(), seen.end(), server);
  if (at != seen.end() && *at == server) return false;  // duplicate
  seen.insert(at, server);
  return true;
}

void Client::on_message(sim::NodeId /*from*/, const Message& message) {
  if (const auto* ack = std::get_if<WriteAck>(&message)) {
    const auto it = writes_.find(ack->op);
    if (it == writes_.end()) return;  // already completed (late ack)
    if (!record_distinct(it->second.outcome.quorum, it->second.acked,
                         ack->server)) {
      return;
    }
    ++it->second.outcome.acks;
    if (it->second.outcome.acks == it->second.outcome.quorum.size()) {
      finish_write(ack->op, true);
    }
    return;
  }
  if (const auto* reply = std::get_if<ReadReply>(&message)) {
    const auto it = reads_.find(reply->op);
    if (it == reads_.end()) return;
    if (!record_distinct(it->second.outcome.quorum, it->second.responded,
                         reply->server)) {
      return;
    }
    it->second.replies.push_back(*reply);
    ++it->second.outcome.replies;
    if (it->second.outcome.replies == it->second.outcome.quorum.size()) {
      finish_read(reply->op, true);
    }
    return;
  }
}

void Client::finish_write(OpId op, bool complete) {
  const auto it = writes_.find(op);
  if (it == writes_.end()) return;  // timeout raced with completion
  PendingWrite pending = std::move(it->second);
  writes_.erase(it);
  pending.outcome.complete = complete;
  pending.done(pending.outcome);
}

void Client::finish_read(OpId op, bool complete) {
  const auto it = reads_.find(op);
  if (it == reads_.end()) return;
  PendingRead pending = std::move(it->second);
  reads_.erase(it);
  pending.outcome.complete = complete;
  pending.outcome.selection = select(config_.mode, pending.replies, &verifier_,
                                     config_.read_threshold);
  pending.done(pending.outcome);
}

}  // namespace pqs::replica
