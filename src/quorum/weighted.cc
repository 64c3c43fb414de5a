#include "quorum/weighted.h"

#include <algorithm>
#include <numeric>

#include "math/sampling.h"
#include "quorum/engine_link.h"
#include "util/require.h"

namespace pqs::quorum {

WeightedVotingSystem::WeightedVotingSystem(std::vector<std::uint32_t> votes,
                                           std::uint32_t threshold)
    : votes_(std::move(votes)), threshold_(threshold) {
  PQS_REQUIRE(!votes_.empty(), "weighted voting needs servers");
  for (auto v : votes_) PQS_REQUIRE(v >= 1, "every server needs >= 1 vote");
  total_votes_ = std::accumulate(votes_.begin(), votes_.end(), 0u);
  PQS_REQUIRE(threshold_ <= total_votes_, "threshold above total votes");
  PQS_REQUIRE(2 * threshold_ > total_votes_,
              "weighted voting requires 2T > V for intersection");
  // Sort once; every greedy measure reads this instead of re-sorting a
  // copy of the vote vector per call.
  votes_descending_ = votes_;
  std::sort(votes_descending_.begin(), votes_descending_.end(),
            std::greater<>());
  min_quorum_size_ = greedy_count(threshold_);
  // Disabling every quorum needs the dead votes to exceed V - T; the
  // cheapest way takes the largest-vote servers first.
  fault_tolerance_ = greedy_count(total_votes_ - threshold_ + 1);
}

std::uint32_t WeightedVotingSystem::greedy_count(std::uint32_t target) const {
  std::uint32_t gathered = 0;
  std::uint32_t count = 0;
  for (auto v : votes_descending_) {
    if (gathered >= target) break;
    gathered += v;
    ++count;
  }
  return count;
}

WeightedVotingSystem WeightedVotingSystem::majority(std::uint32_t n) {
  PQS_REQUIRE(n >= 1, "universe size");
  return WeightedVotingSystem(std::vector<std::uint32_t>(n, 1), n / 2 + 1);
}

std::string WeightedVotingSystem::name() const {
  return "weighted(n=" + std::to_string(votes_.size()) +
         ",V=" + std::to_string(total_votes_) +
         ",T=" + std::to_string(threshold_) + ")";
}

std::uint32_t WeightedVotingSystem::universe_size() const {
  return static_cast<std::uint32_t>(votes_.size());
}

void WeightedVotingSystem::sample_into(Quorum& out, math::Rng& rng) const {
  // Scratch persists across draws so the hot loop never allocates. The
  // final sort orders the *members* (the sorted-quorum invariant of the
  // vector path); the mask path below has no ordering to maintain.
  static thread_local std::vector<std::uint32_t> order;
  order.resize(votes_.size());
  std::iota(order.begin(), order.end(), 0u);
  math::shuffle(order, rng);
  out.clear();
  std::uint32_t gathered = 0;
  for (auto u : order) {
    out.push_back(u);
    gathered += votes_[u];
    if (gathered >= threshold_) break;
  }
  std::sort(out.begin(), out.end());
}

void WeightedVotingSystem::sample_mask(QuorumBitset& out,
                                       math::Rng& rng) const {
  static thread_local std::vector<std::uint32_t> order;
  order.resize(votes_.size());
  std::iota(order.begin(), order.end(), 0u);
  math::shuffle(order, rng);
  out.resize(universe_size());
  std::uint32_t gathered = 0;
  for (auto u : order) {
    out.set(u);
    gathered += votes_[u];
    if (gathered >= threshold_) break;
  }
}

double WeightedVotingSystem::load() const {
  // No closed form for general vote vectors; a fixed-seed estimate on the
  // shared deterministic engine (see engine_link.h for the layering).
  constexpr std::uint64_t kSamples = 20000;
  const std::uint64_t seed =
      0x1f0ad ^ (std::uint64_t(total_votes_) << 20) ^ threshold_;
  return engine_load(*this, kSamples, seed);
}

double WeightedVotingSystem::failure_probability(double p) const {
  // dp[v] = P(alive servers hold exactly v votes); exact in O(n * V).
  std::vector<double> dp(total_votes_ + 1, 0.0);
  dp[0] = 1.0;
  std::uint32_t prefix = 0;
  for (auto v : votes_) {
    prefix += v;
    // Alive with probability 1 - p contributes its v votes (in-place
    // knapsack update, descending so each server counts once).
    for (std::uint32_t sum = prefix; sum >= v; --sum) {
      dp[sum] = dp[sum] * p + dp[sum - v] * (1.0 - p);
    }
    for (std::uint32_t sum = 0; sum < v; ++sum) dp[sum] *= p;
  }
  double fail = 0.0;
  for (std::uint32_t sum = 0; sum < threshold_; ++sum) fail += dp[sum];
  return std::min(1.0, fail);
}

bool WeightedVotingSystem::has_live_quorum(
    const std::vector<bool>& alive) const {
  std::uint32_t gathered = 0;
  for (std::uint32_t u = 0; u < votes_.size(); ++u) {
    if (alive[u]) gathered += votes_[u];
  }
  return gathered >= threshold_;
}

bool WeightedVotingSystem::has_live_quorum_mask(
    const QuorumBitset& alive) const {
  std::uint32_t gathered = 0;
  alive.for_each_set_bit([&](ServerId u) {
    gathered += votes_[u];
    return gathered < threshold_;  // stop once the quorum is reached
  });
  return gathered >= threshold_;
}

}  // namespace pqs::quorum
