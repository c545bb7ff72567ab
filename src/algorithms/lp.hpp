/// \file lp.hpp
/// \brief Linear-programming problem and solution types shared by the
///        serial and distributed simplex solvers.
///
/// Problems are in the canonical inequality form the paper's simplex
/// demonstration uses:   maximize c·x   subject to  A·x ≤ b,  x ≥ 0.
/// Negative right-hand sides are allowed; the solvers run a Phase I with
/// artificial variables when needed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hypercube/check.hpp"

namespace vmp {

struct LpProblem {
  std::size_t nvars = 0;  ///< structural variables
  std::size_t ncons = 0;  ///< inequality constraints
  std::vector<double> c;  ///< objective, size nvars (maximized)
  std::vector<double> A;  ///< row-major ncons × nvars constraint matrix
  std::vector<double> b;  ///< right-hand sides, size ncons

  void validate() const {
    VMP_REQUIRE(c.size() == nvars, "objective length mismatch");
    VMP_REQUIRE(A.size() == ncons * nvars, "constraint matrix size mismatch");
    VMP_REQUIRE(b.size() == ncons, "rhs length mismatch");
  }
};

enum class LpStatus { Optimal, Unbounded, Infeasible, IterationLimit };

[[nodiscard]] constexpr const char* to_string(LpStatus s) noexcept {
  switch (s) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::IterationLimit: return "iteration-limit";
  }
  return "?";
}

enum class PivotRule {
  Dantzig,  ///< most negative reduced cost (fast in practice)
  Bland,    ///< smallest eligible index (anti-cycling guarantee)
};

struct SimplexOptions {
  PivotRule rule = PivotRule::Dantzig;
  double eps = 1e-9;
  std::size_t max_iters = 20000;
};

struct LpSolution {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;             ///< structural variable values
  std::size_t iterations = 0;        ///< total pivots (both phases)
  std::size_t phase1_iterations = 0;
};

}  // namespace vmp
