// A dense two-phase simplex solver for small linear programs.
//
// The strategy optimizer (quorum/strategy.h) minimizes the maximum
// capacity-weighted per-server load over a distribution of candidate
// quorums — an LP with tens of variables (one probability per candidate
// plus the max-load epigraph variable) and at most universe_size + 3
// constraints. At that size a dense tableau beats any sparse machinery,
// and exact pivoting discipline matters more than speed: the solver uses
// Bland's anti-cycling rule throughout, so it terminates on every input,
// and phase 1 introduces artificial variables only for rows whose
// right-hand side is negative (the eps-ceiling and sum-to-one rows), so
// well-posed feasible programs start one pivot from a basis.
//
// Canonical form solved here:  minimize c.x  s.t.  A x <= b,  x >= 0.
// Negative entries of b are allowed (that is what phase 1 is for);
// equality constraints are expressed as a <= / >= pair by the caller.
#pragma once

#include <vector>

namespace pqs::math {

enum class LpStatus {
  kOptimal,     // x holds an optimal feasible point
  kInfeasible,  // no x >= 0 satisfies A x <= b
  kUnbounded,   // the objective decreases without bound over the feasible set
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;   // c.x at the returned point (kOptimal only)
  std::vector<double> x;    // the primal solution (kOptimal only)
};

// Minimizes c.x subject to A x <= b and x >= 0. `a` is dense row-major:
// a[i] is constraint row i and every row must have c.size() entries.
LpResult solve_lp(const std::vector<double>& c,
                  const std::vector<std::vector<double>>& a,
                  const std::vector<double>& b);

}  // namespace pqs::math
