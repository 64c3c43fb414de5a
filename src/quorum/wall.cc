#include "quorum/wall.h"

#include <algorithm>
#include <cmath>

#include "quorum/measures.h"
#include "util/require.h"

namespace pqs::quorum {

WallSystem::WallSystem(std::vector<std::uint32_t> widths)
    : widths_(std::move(widths)) {
  PQS_REQUIRE(!widths_.empty(), "wall needs at least one row");
  starts_.reserve(widths_.size());
  std::uint32_t at = 0;
  for (auto w : widths_) {
    PQS_REQUIRE(w >= 1, "wall row width");
    starts_.push_back(at);
    at += w;
  }
  n_ = at;
}

WallSystem WallSystem::uniform(std::uint32_t rows, std::uint32_t width) {
  PQS_REQUIRE(rows >= 1 && width >= 1, "wall dimensions");
  return WallSystem(std::vector<std::uint32_t>(rows, width));
}

std::string WallSystem::name() const {
  return "wall(d=" + std::to_string(widths_.size()) +
         ",n=" + std::to_string(n_) + ")";
}

void WallSystem::sample_into(Quorum& out, math::Rng& rng) const {
  const std::uint32_t d = rows();
  const std::uint32_t chosen =
      static_cast<std::uint32_t>(rng.below(d));
  out.clear();
  out.reserve(widths_[chosen] + d - 1 - chosen);
  for (std::uint32_t c = 0; c < widths_[chosen]; ++c) {
    out.push_back(row_start(chosen) + c);
  }
  for (std::uint32_t j = chosen + 1; j < d; ++j) {
    out.push_back(row_start(j) +
                  static_cast<std::uint32_t>(rng.below(widths_[j])));
  }
  // Row-major emission in increasing rows is already sorted.
}

void WallSystem::sample_mask(QuorumBitset& out, math::Rng& rng) const {
  const std::uint32_t d = rows();
  const std::uint32_t chosen = static_cast<std::uint32_t>(rng.below(d));
  out.resize(n_);
  out.set_range(row_start(chosen), row_start(chosen) + widths_[chosen]);
  for (std::uint32_t j = chosen + 1; j < d; ++j) {
    out.set(row_start(j) + static_cast<std::uint32_t>(rng.below(widths_[j])));
  }
}

std::uint32_t WallSystem::min_quorum_size() const {
  const std::uint32_t d = rows();
  std::uint32_t best = n_;
  for (std::uint32_t i = 0; i < d; ++i) {
    best = std::min(best, widths_[i] + d - 1 - i);
  }
  return best;
}

double WallSystem::load() const {
  // Max over rows of the per-server closed form: full-row use (the row's
  // own choice) plus representative duty for the rows above it.
  double worst = 0.0;
  for (std::uint32_t i = 0; i < rows(); ++i) {
    worst = std::max(worst, wall_server_load(widths_, i));
  }
  return worst;
}

std::uint32_t WallSystem::fault_tolerance() const {
  // A hitting set either touches every row once (quorums with chosen row i
  // contain all of row i), or swallows some row j whole (hitting every
  // quorum choosing a row above j) and touches each row below j. The
  // second option costs w_j + (d - 1 - j) = the quorum size at row j.
  return std::min(rows(), min_quorum_size());
}

double WallSystem::failure_probability(double p) const {
  // Exact bottom-up DP over rows (rows are disjoint => independent).
  // For the suffix starting at row i track:
  //   u = P(no quorum can be formed within the suffix),
  //   t = P(no quorum in suffix AND every suffix row has a survivor).
  // Recurrence with a = P(row fully alive), b = P(row has a survivor):
  //   u_i = (1 - a) u_{i+1} + a (u_{i+1} - t_{i+1})
  //   t_i = (b - a) t_{i+1}
  double u = 1.0;
  double t = 1.0;
  for (std::uint32_t i = rows(); i-- > 0;) {
    const double w = static_cast<double>(widths_[i]);
    const double a = std::pow(1.0 - p, w);
    const double b = 1.0 - std::pow(p, w);
    const double u_next = u;
    const double t_next = t;
    u = (1.0 - a) * u_next + a * (u_next - t_next);
    t = (b - a) * t_next;
  }
  return std::clamp(u, 0.0, 1.0);
}

bool WallSystem::has_live_quorum(const std::vector<bool>& alive) const {
  const std::uint32_t d = rows();
  bool suffix_has_survivors = true;  // all rows below i have >= 1 alive
  for (std::uint32_t i = d; i-- > 0;) {
    bool full = true;
    bool any = false;
    for (std::uint32_t c = 0; c < widths_[i]; ++c) {
      const bool a = alive[row_start(i) + c];
      full = full && a;
      any = any || a;
    }
    if (full && suffix_has_survivors) return true;
    suffix_has_survivors = suffix_has_survivors && any;
  }
  return false;
}

bool WallSystem::has_live_quorum_mask(const QuorumBitset& alive) const {
  // Same bottom-up scan as above with each row answered by word ops.
  const std::uint32_t d = rows();
  bool suffix_has_survivors = true;
  for (std::uint32_t i = d; i-- > 0;) {
    const std::uint32_t lo = row_start(i);
    const std::uint32_t hi = lo + widths_[i];
    const std::uint32_t live = alive.count_in_range(lo, hi);
    if (live == widths_[i] && suffix_has_survivors) return true;
    suffix_has_survivors = suffix_has_survivors && live > 0;
  }
  return false;
}

}  // namespace pqs::quorum
