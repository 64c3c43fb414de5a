// Weighted voting (Gifford [Gif79]).
//
// Each server u carries votes[u] votes; a quorum is any set of servers
// whose votes total at least the threshold T, with 2T > V (total votes) so
// that two quorums always share a server. Majority voting is the special
// case of unit votes. This is the oldest strict baseline in the paper's
// bibliography and shows how heterogeneous servers skew load: high-vote
// servers appear in most quorums.
//
// Access strategy: a uniformly random permutation of the servers is taken
// and the shortest prefix reaching T votes forms the quorum. This is the
// natural unbiased strategy for vote systems; the induced load has no
// closed form for general vote vectors, so load() reports a fixed-seed
// Monte-Carlo estimate (documented, deterministic).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quorum/quorum_system.h"

namespace pqs::quorum {

class WeightedVotingSystem final : public QuorumSystem {
 public:
  // votes[u] >= 1 for each server; threshold T with V/2 < T <= V.
  WeightedVotingSystem(std::vector<std::uint32_t> votes,
                       std::uint32_t threshold);

  // Unit votes, T = floor(V/2) + 1: plain majority voting.
  static WeightedVotingSystem majority(std::uint32_t n);

  std::string name() const override;
  std::uint32_t universe_size() const override;
  void sample_into(Quorum& out, math::Rng& rng) const override;
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  // Fewest servers that can reach T (greedy by descending votes;
  // precomputed at construction).
  std::uint32_t min_quorum_size() const override { return min_quorum_size_; }
  // Fixed-seed Monte-Carlo estimate of the permutation strategy's load, on
  // the shared deterministic engine (quorum::engine_load).
  double load() const override;
  // Smallest set whose removal leaves the survivors below T, i.e. the
  // fewest servers holding at least V - T + 1 votes (greedy descending;
  // precomputed at construction).
  std::uint32_t fault_tolerance() const override { return fault_tolerance_; }
  // Exact, by dynamic programming over the attainable vote sums.
  double failure_probability(double p) const override;
  bool has_live_quorum(const std::vector<bool>& alive) const override;
  bool has_live_quorum_mask(const QuorumBitset& alive) const override;

  std::uint32_t threshold() const { return threshold_; }
  const std::vector<std::uint32_t>& votes() const { return votes_; }

 private:
  // Fewest servers (greedy descending votes) reaching `target` votes; runs
  // on the vote vector sorted once at construction.
  std::uint32_t greedy_count(std::uint32_t target) const;

  std::vector<std::uint32_t> votes_;
  std::uint32_t threshold_;
  std::uint32_t total_votes_;
  // Hoisted out of the per-call paths: votes sorted descending once, and
  // the two greedy measures derived from them.
  std::vector<std::uint32_t> votes_descending_;
  std::uint32_t min_quorum_size_;
  std::uint32_t fault_tolerance_;
};

}  // namespace pqs::quorum
