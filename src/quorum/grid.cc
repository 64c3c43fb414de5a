#include "quorum/grid.h"

#include <algorithm>
#include <cmath>

#include "math/sampling.h"
#include "math/stats.h"
#include "quorum/engine_link.h"
#include "quorum/measures.h"
#include "util/require.h"

namespace pqs::quorum {

GridSystem::GridSystem(std::uint32_t rows, std::uint32_t cols, std::uint32_t d)
    : rows_(rows), cols_(cols), d_(d) {
  PQS_REQUIRE(rows >= 1 && cols >= 1, "grid dimensions");
  PQS_REQUIRE(d >= 1 && d <= std::min(rows, cols), "grid depth");
}

namespace {
std::uint32_t isqrt_exact(std::uint32_t n) {
  const auto s = static_cast<std::uint32_t>(std::lround(std::sqrt(double(n))));
  PQS_REQUIRE(s * s == n, "grid universe must be a perfect square");
  return s;
}
}  // namespace

GridSystem GridSystem::square(std::uint32_t n) {
  const std::uint32_t s = isqrt_exact(n);
  return GridSystem(s, s, 1);
}

GridSystem GridSystem::dissemination(std::uint32_t n, std::uint32_t b) {
  const std::uint32_t s = isqrt_exact(n);
  const auto d = static_cast<std::uint32_t>(
      std::ceil(std::sqrt((static_cast<double>(b) + 1.0) / 2.0)));
  GridSystem g(s, s, d);
  PQS_REQUIRE(g.min_pairwise_intersection() >= b + 1,
              "grid dissemination overlap");
  PQS_REQUIRE(g.fault_tolerance() > b, "grid dissemination availability");
  return g;
}

GridSystem GridSystem::masking(std::uint32_t n, std::uint32_t b) {
  const std::uint32_t s = isqrt_exact(n);
  const auto d = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(b) + 1.0)));
  GridSystem g(s, s, d);
  PQS_REQUIRE(g.min_pairwise_intersection() >= 2 * b + 1,
              "grid masking overlap");
  PQS_REQUIRE(g.fault_tolerance() > b, "grid masking availability");
  return g;
}

std::string GridSystem::name() const {
  return "grid(" + std::to_string(rows_) + "x" + std::to_string(cols_) +
         ",d=" + std::to_string(d_) + ")";
}

void GridSystem::sample_into(Quorum& out, math::Rng& rng) const {
  // Scratch persists across draws so the hot loop never allocates.
  static thread_local std::vector<std::uint32_t> row_ids;
  static thread_local std::vector<std::uint32_t> col_ids;
  math::sample_without_replacement(rows_, d_, rng, row_ids);
  math::sample_without_replacement(cols_, d_, rng, col_ids);
  out.clear();
  out.reserve(static_cast<std::size_t>(min_quorum_size()));
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const bool row_in =
        std::binary_search(row_ids.begin(), row_ids.end(), r);
    for (std::uint32_t c = 0; c < cols_; ++c) {
      const bool col_in =
          std::binary_search(col_ids.begin(), col_ids.end(), c);
      if (row_in || col_in) out.push_back(r * cols_ + c);
    }
  }
  // Already sorted: row-major emission.
}

namespace {
// The mask fill shared by sample_mask and the batched sample_masks.
void fill_grid_mask(std::uint32_t rows, std::uint32_t cols, std::uint32_t d,
                    QuorumBitset& out, math::Rng& rng) {
  static thread_local std::vector<std::uint32_t> row_ids;
  static thread_local std::vector<std::uint32_t> col_ids;
  math::sample_without_replacement(rows, d, rng, row_ids);
  math::sample_without_replacement(cols, d, rng, col_ids);
  out.resize(rows * cols);
  // Chosen rows are contiguous word ranges; chosen columns stride one bit
  // per row. No scan over the full grid, unlike the sorted emission above.
  for (const std::uint32_t r : row_ids) {
    out.set_range(r * cols, (r + 1) * cols);
  }
  for (const std::uint32_t c : col_ids) {
    for (std::uint32_t r = 0; r < rows; ++r) out.set(r * cols + c);
  }
}
}  // namespace

void GridSystem::sample_mask(QuorumBitset& out, math::Rng& rng) const {
  fill_grid_mask(rows_, cols_, d_, out, rng);
}

void GridSystem::sample_masks(QuorumBitset* out, std::size_t count,
                              math::Rng& rng) const {
  for (std::size_t i = 0; i < count; ++i) {
    fill_grid_mask(rows_, cols_, d_, out[i], rng);
  }
}

std::uint32_t GridSystem::min_quorum_size() const {
  // d rows + d cols minus the d*d shared cells.
  return d_ * cols_ + d_ * rows_ - d_ * d_;
}

double GridSystem::load() const {
  // Every server is symmetric under the uniform row/column strategy, so
  // the load is the (shared) per-server access probability.
  return grid_server_load(rows_, cols_, d_);
}

std::uint32_t GridSystem::fault_tolerance() const {
  // A hitting set must leave at most d-1 untouched rows or at most d-1
  // untouched columns; the cheapest way is one server in each of
  // rows - d + 1 rows (or symmetrically for columns).
  //
  // Note: the paper's Tables 3-4 report sqrt(n) for all grid variants; for
  // d > 1 the exact value is sqrt(n) - d + 1 (see EXPERIMENTS.md).
  return std::min(rows_, cols_) - d_ + 1;
}

double GridSystem::failure_probability(double p) const {
  // Rows and columns are correlated through shared cells, so there is no
  // simple closed form for d >= 1; a fixed-seed Monte-Carlo estimate keeps
  // the QuorumSystem interface uniform and deterministic across runs. The
  // estimate runs on the shared core::Estimator through the engine_link
  // seam (thread-count independent by the engine's sharding contract).
  constexpr std::uint64_t kSamples = 200000;
  const std::uint64_t seed = 0xfe11c0de ^ (std::uint64_t(rows_) << 32) ^
                             cols_ ^ (std::uint64_t(d_) << 16);
  return engine_failure_probability(*this, p, kSamples, seed);
}

bool GridSystem::has_live_quorum_mask(const QuorumBitset& alive) const {
  // >= d fully-alive rows and >= d fully-alive columns, word-parallel.
  std::uint32_t live_rows = 0;
  for (std::uint32_t r = 0; r < rows_ && live_rows < d_; ++r) {
    if (alive.all_set_in_range(r * cols_, (r + 1) * cols_)) ++live_rows;
  }
  if (live_rows < d_) return false;
  if (cols_ <= 64) {
    // AND the rows' column windows together: bit c survives iff column c is
    // alive in every row. One word of state, two shifts per row.
    const std::uint64_t* words = alive.words();
    const std::uint64_t full = cols_ >= 64 ? ~0ULL : (1ULL << cols_) - 1;
    std::uint64_t live_cols = full;
    for (std::uint32_t r = 0; r < rows_ && live_cols != 0; ++r) {
      const std::uint32_t lo = r * cols_;
      std::uint64_t window = words[lo / 64] >> (lo % 64);
      if (lo % 64 != 0 && lo / 64 + 1 < alive.word_count()) {
        window |= words[lo / 64 + 1] << (64 - lo % 64);
      }
      live_cols &= window;
    }
    return popcount64(live_cols & full) >= d_;
  }
  std::uint32_t live_cols = 0;
  for (std::uint32_t c = 0; c < cols_ && live_cols < d_; ++c) {
    bool ok = true;
    for (std::uint32_t r = 0; r < rows_; ++r) {
      if (!alive.test(r * cols_ + c)) {
        ok = false;
        break;
      }
    }
    live_cols += ok ? 1u : 0u;
  }
  return live_cols >= d_;
}

bool GridSystem::has_live_quorum(const std::vector<bool>& alive) const {
  // A live quorum exists iff at least d rows are fully alive and at least
  // d columns are fully alive.
  std::uint32_t live_rows = 0;
  for (std::uint32_t r = 0; r < rows_ && live_rows < d_; ++r) {
    bool ok = true;
    for (std::uint32_t c = 0; c < cols_; ++c) {
      if (!alive[r * cols_ + c]) {
        ok = false;
        break;
      }
    }
    live_rows += ok ? 1u : 0u;
  }
  if (live_rows < d_) return false;
  std::uint32_t live_cols = 0;
  for (std::uint32_t c = 0; c < cols_ && live_cols < d_; ++c) {
    bool ok = true;
    for (std::uint32_t r = 0; r < rows_; ++r) {
      if (!alive[r * cols_ + c]) {
        ok = false;
        break;
      }
    }
    live_cols += ok ? 1u : 0u;
  }
  return live_cols >= d_;
}

}  // namespace pqs::quorum
