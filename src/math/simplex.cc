#include "math/simplex.h"

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/require.h"

namespace pqs::math {

namespace {

// Pivot tolerance: entries this close to zero are treated as zero. The
// programs this solver sees carry probabilities and loads in [0, ~n], so
// a fixed absolute tolerance is appropriate.
constexpr double kTol = 1e-9;

// Dense simplex tableau: `rows` constraint rows plus one objective row,
// `cols` variable columns plus one right-hand-side column. The objective
// row holds reduced costs for a minimization problem; a column may enter
// the basis while its reduced cost is < -kTol.
struct Tableau {
  std::size_t rows = 0;
  std::size_t cols = 0;  // variable columns (rhs excluded)
  std::vector<double> cells;            // (rows + 1) x (cols + 1)
  std::vector<std::size_t> basis;       // basic variable of each row
  std::vector<bool> allowed;            // may this column enter the basis?

  double& at(std::size_t r, std::size_t c) { return cells[r * (cols + 1) + c]; }
  double& rhs(std::size_t r) { return cells[r * (cols + 1) + cols]; }
  double& obj(std::size_t c) { return cells[rows * (cols + 1) + c]; }
  double& obj_rhs() { return cells[rows * (cols + 1) + cols]; }

  void pivot(std::size_t pr, std::size_t pc) {
    const double inv = 1.0 / at(pr, pc);
    for (std::size_t c = 0; c <= cols; ++c) at(pr, c) *= inv;
    at(pr, pc) = 1.0;  // kill the residual rounding on the pivot itself
    for (std::size_t r = 0; r <= rows; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= cols; ++c) {
        at(r, c) -= factor * at(pr, c);
      }
      at(r, pc) = 0.0;
    }
    basis[pr] = pc;
  }

  // Runs the simplex iteration to optimality with Bland's rule (smallest
  // eligible index for both the entering and the leaving choice), which
  // rules out cycling. Returns false when the objective is unbounded
  // below. The iteration cap is a belt-and-braces guard: Bland's rule
  // already guarantees termination, so hitting it means the arithmetic
  // itself broke down.
  bool iterate() {
    const std::uint64_t cap = 2000ULL * (rows + cols + 1);
    for (std::uint64_t it = 0; it < cap; ++it) {
      std::size_t entering = cols;
      for (std::size_t c = 0; c < cols; ++c) {
        if (allowed[c] && obj(c) < -kTol) {
          entering = c;
          break;
        }
      }
      if (entering == cols) return true;  // optimal
      std::size_t leaving = rows;
      double best_ratio = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        if (at(r, entering) <= kTol) continue;
        const double ratio = rhs(r) / at(r, entering);
        if (leaving == rows || ratio < best_ratio - kTol ||
            (ratio < best_ratio + kTol && basis[r] < basis[leaving])) {
          leaving = r;
          best_ratio = ratio;
        }
      }
      if (leaving == rows) return false;  // unbounded
      pivot(leaving, entering);
    }
    PQS_REQUIRE(false, "simplex iteration cap exceeded");
    return false;
  }
};

}  // namespace

LpResult solve_lp(const std::vector<double>& c,
                  const std::vector<std::vector<double>>& a,
                  const std::vector<double>& b) {
  const std::size_t n = c.size();
  const std::size_t m = a.size();
  PQS_REQUIRE(b.size() == m, "rhs size mismatch");
  for (const auto& row : a) {
    PQS_REQUIRE(row.size() == n, "constraint row size mismatch");
  }

  // Columns: n structural, m slacks, then one artificial per negative-rhs
  // row (its slack enters with coefficient -1 there, so it cannot seed
  // the basis).
  std::size_t artificials = 0;
  for (const double bi : b) {
    if (bi < 0.0) ++artificials;
  }
  Tableau t;
  t.rows = m;
  t.cols = n + m + artificials;
  t.cells.assign((m + 1) * (t.cols + 1), 0.0);
  t.basis.assign(m, 0);
  t.allowed.assign(t.cols, true);

  std::size_t next_artificial = n + m;
  for (std::size_t r = 0; r < m; ++r) {
    const bool negate = b[r] < 0.0;
    const double sign = negate ? -1.0 : 1.0;
    for (std::size_t j = 0; j < n; ++j) t.at(r, j) = sign * a[r][j];
    t.at(r, n + r) = sign;  // slack
    t.rhs(r) = sign * b[r];
    if (negate) {
      t.at(r, next_artificial) = 1.0;
      t.basis[r] = next_artificial++;
    } else {
      t.basis[r] = n + r;
    }
  }

  LpResult result;
  if (artificials > 0) {
    // Phase 1: minimize the sum of artificials. Cost 1 on each artificial
    // column, canonicalized by subtracting the rows they are basic in.
    for (std::size_t j = n + m; j < t.cols; ++j) t.obj(j) = 1.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (t.basis[r] < n + m) continue;
      for (std::size_t cidx = 0; cidx <= t.cols; ++cidx) {
        t.obj(cidx) -= t.at(r, cidx);
      }
    }
    if (!t.iterate()) {
      // Phase 1 is bounded below by 0; unbounded means broken arithmetic.
      PQS_REQUIRE(false, "phase-1 simplex reported unbounded");
    }
    if (-t.obj_rhs() > 1e-7) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    // Drive surviving artificials out of the basis where a real column is
    // available; a row with no real pivot is a redundant constraint and
    // its artificial stays basic at zero (harmless once the column is
    // barred from re-entering).
    for (std::size_t r = 0; r < m; ++r) {
      if (t.basis[r] < n + m) continue;
      for (std::size_t j = 0; j < n + m; ++j) {
        if (std::fabs(t.at(r, j)) > kTol) {
          t.pivot(r, j);
          break;
        }
      }
    }
    for (std::size_t j = n + m; j < t.cols; ++j) t.allowed[j] = false;
  }

  // Phase 2: install the real objective and canonicalize against the
  // current basis.
  for (std::size_t cidx = 0; cidx <= t.cols; ++cidx) {
    t.cells[m * (t.cols + 1) + cidx] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) t.obj(j) = c[j];
  for (std::size_t r = 0; r < m; ++r) {
    const double cost = t.basis[r] < n ? c[t.basis[r]] : 0.0;
    if (cost == 0.0) continue;
    for (std::size_t cidx = 0; cidx <= t.cols; ++cidx) {
      t.obj(cidx) -= cost * t.at(r, cidx);
    }
  }
  if (!t.iterate()) {
    result.status = LpStatus::kUnbounded;
    return result;
  }

  result.status = LpStatus::kOptimal;
  result.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (t.basis[r] < n) {
      result.x[t.basis[r]] = t.rhs(r) < 0.0 ? 0.0 : t.rhs(r);
    }
  }
  result.objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) result.objective += c[j] * result.x[j];
  return result;
}

}  // namespace pqs::math
