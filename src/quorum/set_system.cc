#include "quorum/set_system.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "math/sampling.h"
#include "quorum/bitset.h"
#include "util/require.h"

namespace pqs::quorum {

namespace {

// The exact exponential-time routines (hitting set, inclusion-exclusion)
// represent quorums as 64-bit masks; explicit systems are for small studies.
constexpr std::uint32_t kMaxExactUniverse = 64;
constexpr std::size_t kMaxExactQuorums = 24;

std::uint64_t to_mask(const Quorum& q) {
  std::uint64_t m = 0;
  for (ServerId u : q) m |= 1ULL << u;
  return m;
}

}  // namespace

SetSystem::SetSystem(std::uint32_t n, std::vector<Quorum> quorums)
    : SetSystem(n, std::move(quorums), {}) {}

SetSystem::SetSystem(std::uint32_t n, std::vector<Quorum> quorums,
                     std::vector<double> weights)
    : n_(n), quorums_(std::move(quorums)), weights_(std::move(weights)) {
  PQS_REQUIRE(n >= 1, "set system universe size");
  PQS_REQUIRE(!quorums_.empty(), "set system needs at least one quorum");
  for (auto& q : quorums_) {
    PQS_REQUIRE(!q.empty(), "empty quorum");
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    PQS_REQUIRE(q.back() < n, "quorum member outside universe");
  }
  if (weights_.empty()) {
    weights_.assign(quorums_.size(), 1.0 / static_cast<double>(quorums_.size()));
  }
  PQS_REQUIRE(weights_.size() == quorums_.size(),
              "one weight per quorum required");
  double total = 0.0;
  for (double w : weights_) {
    PQS_REQUIRE(w >= 0.0, "negative strategy weight");
    total += w;
  }
  PQS_REQUIRE(std::abs(total - 1.0) < 1e-9, "strategy must sum to 1");
  cumulative_.resize(weights_.size());
  std::partial_sum(weights_.begin(), weights_.end(), cumulative_.begin());
  cumulative_.back() = 1.0;
  masks_.reserve(quorums_.size());
  for (const auto& q : quorums_) {
    masks_.emplace_back(n_);
    masks_.back().assign(q);
  }
}

SetSystem SetSystem::all_subsets(std::uint32_t n, std::uint32_t q) {
  PQS_REQUIRE(q >= 1 && q <= n, "subset size");
  PQS_REQUIRE(n <= 24, "all_subsets is for tiny universes");
  std::vector<Quorum> quorums;
  Quorum current(q);
  // Standard combination enumeration.
  std::vector<std::uint32_t> idx(q);
  std::iota(idx.begin(), idx.end(), 0u);
  while (true) {
    for (std::uint32_t i = 0; i < q; ++i) current[i] = idx[i];
    quorums.push_back(current);
    // Advance.
    std::int32_t i = static_cast<std::int32_t>(q) - 1;
    while (i >= 0 && idx[i] == n - q + static_cast<std::uint32_t>(i)) --i;
    if (i < 0) break;
    ++idx[i];
    for (std::uint32_t j = static_cast<std::uint32_t>(i) + 1; j < q; ++j) {
      idx[j] = idx[j - 1] + 1;
    }
  }
  return SetSystem(n, std::move(quorums));
}

std::string SetSystem::name() const {
  return "explicit(n=" + std::to_string(n_) +
         ",m=" + std::to_string(quorums_.size()) + ")";
}

std::size_t SetSystem::sample_index(math::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const std::size_t i = static_cast<std::size_t>(it - cumulative_.begin());
  return std::min(i, quorums_.size() - 1);
}

void SetSystem::sample_into(Quorum& out, math::Rng& rng) const {
  out = quorums_[sample_index(rng)];
}

void SetSystem::sample_mask(QuorumBitset& out, math::Rng& rng) const {
  // Word-copy of the bitset materialized at construction; no per-member
  // work at all. Same uniform draw as the vector path.
  out = masks_[sample_index(rng)];
}

std::uint32_t SetSystem::min_quorum_size() const {
  std::size_t best = quorums_.front().size();
  for (const auto& q : quorums_) best = std::min(best, q.size());
  return static_cast<std::uint32_t>(best);
}

double SetSystem::server_load(ServerId u) const {
  double load = 0.0;
  for (std::size_t i = 0; i < quorums_.size(); ++i) {
    if (std::binary_search(quorums_[i].begin(), quorums_[i].end(), u)) {
      load += weights_[i];
    }
  }
  return load;
}

double SetSystem::load() const {
  double worst = 0.0;
  for (ServerId u = 0; u < n_; ++u) worst = std::max(worst, server_load(u));
  return worst;
}

bool SetSystem::is_strict() const { return min_pairwise_intersection() >= 1; }

std::uint32_t SetSystem::min_pairwise_intersection() const {
  std::size_t best = n_;
  for (std::size_t i = 0; i < quorums_.size(); ++i) {
    for (std::size_t j = i; j < quorums_.size(); ++j) {
      best = std::min(
          best, math::sorted_intersection_size(quorums_[i], quorums_[j]));
      if (best == 0) return 0;
    }
  }
  return static_cast<std::uint32_t>(best);
}

bool SetSystem::is_dissemination(std::uint32_t b) const {
  return fault_tolerance() > b && min_pairwise_intersection() >= b + 1;
}

bool SetSystem::is_masking(std::uint32_t b) const {
  return fault_tolerance() > b && min_pairwise_intersection() >= 2 * b + 1;
}

double SetSystem::intersection_probability() const {
  double total = 0.0;
  for (std::size_t i = 0; i < quorums_.size(); ++i) {
    if (weights_[i] == 0.0) continue;
    total += weights_[i] * quorum_quality(i);
  }
  return total;
}

double SetSystem::quorum_quality(std::size_t index) const {
  PQS_REQUIRE(index < quorums_.size(), "quorum index");
  double quality = 0.0;
  for (std::size_t j = 0; j < quorums_.size(); ++j) {
    if (math::sorted_intersects(quorums_[index], quorums_[j])) {
      quality += weights_[j];
    }
  }
  return quality;
}

std::vector<std::size_t> SetSystem::high_quality_indices(double delta) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < quorums_.size(); ++i) {
    if (quorum_quality(i) >= 1.0 - delta) out.push_back(i);
  }
  return out;
}

std::uint32_t SetSystem::hitting_set_size(
    const std::vector<std::size_t>& indices) const {
  PQS_REQUIRE(n_ <= kMaxExactUniverse, "exact hitting set needs n <= 64");
  PQS_REQUIRE(!indices.empty(), "hitting set of nothing");
  std::vector<std::uint64_t> masks;
  masks.reserve(indices.size());
  for (std::size_t i : indices) masks.push_back(to_mask(quorums_[i]));

  std::uint32_t best = n_;  // hitting everything always works
  // Branch and bound: pick the first un-hit quorum and branch on which of
  // its members joins the hitting set.
  auto recurse = [&](auto&& self, std::uint64_t chosen,
                     std::uint32_t size) -> void {
    if (size >= best) return;
    const std::uint64_t* unhit = nullptr;
    for (const auto& m : masks) {
      if ((m & chosen) == 0) {
        unhit = &m;
        break;
      }
    }
    if (unhit == nullptr) {
      best = std::min(best, size);
      return;
    }
    std::uint64_t m = *unhit;
    while (m != 0) {
      const std::uint64_t bit = m & (~m + 1);
      self(self, chosen | bit, size + 1);
      m ^= bit;
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

std::uint32_t SetSystem::fault_tolerance() const {
  std::vector<std::size_t> all(quorums_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return hitting_set_size(all);
}

namespace {
// delta = sqrt(eps) (Definition 3.6), floored at 1e-9 so that a strict
// system whose weight sums accumulate ~1e-16 of floating error still
// classifies every quorum as high quality.
double high_quality_delta(double eps) {
  return std::max(std::sqrt(std::max(0.0, eps)), 1e-9);
}
}  // namespace

std::uint32_t SetSystem::probabilistic_fault_tolerance() const {
  const double eps = std::max(0.0, 1.0 - intersection_probability());
  const auto hq = high_quality_indices(high_quality_delta(eps));
  if (hq.empty()) return 0;
  return hitting_set_size(hq);
}

double SetSystem::failure_probability_over(
    const std::vector<std::size_t>& indices, double p) const {
  PQS_REQUIRE(n_ <= kMaxExactUniverse, "exact F_p needs n <= 64");
  PQS_REQUIRE(indices.size() <= kMaxExactQuorums,
              "exact F_p needs few quorums (inclusion-exclusion)");
  if (indices.empty()) return 1.0;
  std::vector<std::uint64_t> masks;
  masks.reserve(indices.size());
  for (std::size_t i : indices) masks.push_back(to_mask(quorums_[i]));
  // P(some quorum fully alive) by inclusion-exclusion over quorum subsets.
  const double alive = 1.0 - p;
  double p_live = 0.0;
  const std::size_t m = masks.size();
  for (std::uint64_t t = 1; t < (1ULL << m); ++t) {
    std::uint64_t uni = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (t & (1ULL << i)) uni |= masks[i];
    }
    const int sign = (popcount64(t) % 2 == 1) ? 1 : -1;
    p_live += sign * std::pow(alive, popcount64(uni));
  }
  return std::clamp(1.0 - p_live, 0.0, 1.0);
}

double SetSystem::failure_probability(double p) const {
  std::vector<std::size_t> all(quorums_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return failure_probability_over(all, p);
}

double SetSystem::probabilistic_failure_probability(double p) const {
  const double eps = std::max(0.0, 1.0 - intersection_probability());
  return failure_probability_over(
      high_quality_indices(high_quality_delta(eps)), p);
}

bool SetSystem::has_live_quorum(const std::vector<bool>& alive) const {
  for (const auto& q : quorums_) {
    bool ok = true;
    for (ServerId u : q) {
      if (!alive[u]) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

bool SetSystem::has_live_quorum_mask(const QuorumBitset& alive) const {
  for (const auto& m : masks_) {
    if (alive.contains_all(m)) return true;
  }
  return false;
}

}  // namespace pqs::quorum
