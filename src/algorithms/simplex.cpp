#include "algorithms/simplex.hpp"

#include <cmath>
#include <limits>

#include "algorithms/tableau.hpp"
#include "core/elementwise.hpp"
#include "core/primitives.hpp"
#include "core/vector_ops.hpp"
#include "obs/trace.hpp"

namespace vmp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct DistTableau {
  DistMatrix<double> T;
  std::vector<std::size_t> basis;
  std::size_t nvars, nslack, nart;
  [[nodiscard]] std::size_t width() const { return nvars + nslack + nart; }
  [[nodiscard]] std::size_t allowed() const { return nvars + nslack; }
  [[nodiscard]] std::size_t m() const { return T.nrows() - 1; }
};

/// Entering column: most-negative (Dantzig) or smallest-index (Bland)
/// reduced cost below -eps; -1 if optimal.
std::ptrdiff_t entering(DistTableau& tb, const SimplexOptions& o) {
  VMP_TRACE(tb.T.grid().cube(), "entering");
  const DistVector<double> obj = extract(tb.T, Axis::Row, 0);
  const std::size_t allowed = tb.allowed();
  const ValueIndex<double> best =
      o.rule == PivotRule::Bland
          ? vec_argmin_key(obj,
                           [&](double v, std::size_t g) {
                             return (g < allowed && v < -o.eps)
                                        ? static_cast<double>(g)
                                        : kInf;
                           })
          : vec_argmin_key(obj, [&](double v, std::size_t g) {
              return (g < allowed && v < -o.eps) ? v : kInf;
            });
  return best.index;
}

/// Minimum-ratio leaving row for the extracted entering column;
/// -1 if unbounded.
std::ptrdiff_t leaving(DistTableau& tb, const DistVector<double>& colv,
                       const SimplexOptions& o) {
  VMP_TRACE(tb.T.grid().cube(), "leaving");
  DistVector<double> ratios = extract(tb.T, Axis::Col, tb.width());
  vec_zip_indexed(ratios, colv, [&](double rhs, double a, std::size_t g) {
    return (g >= 1 && a > o.eps) ? rhs / a : kInf;
  });
  const ValueIndex<double> best =
      vec_argmin_key(ratios, [](double v, std::size_t) { return v; });
  if (best.index < 0 || o.rule != PivotRule::Bland) return best.index;
  // Bland: among the exact min-ratio rows, the smallest basis variable.
  const double target = best.value;
  const ValueIndex<double> bland =
      vec_argmin_key(ratios, [&](double v, std::size_t g) {
        return v == target ? static_cast<double>(tb.basis[g - 1]) : kInf;
      });
  return bland.index;
}

/// Scale the pivot row, eliminate the pivot column from every other row —
/// extract / insert / rank-1 update, all primitive-level.
void pivot(DistTableau& tb, std::size_t prow_i, std::size_t pcol_j) {
  VMP_TRACE(tb.T.grid().cube(), "pivot");
  DistVector<double> colv = extract(tb.T, Axis::Col, pcol_j);
  const double piv = vec_fetch(colv, prow_i);
  DistVector<double> prow = extract(tb.T, Axis::Row, prow_i);
  vec_apply(prow, [piv](double x) { return x / piv; });
  insert(tb.T, Axis::Row, prow_i, prow);
  vec_fill_range(colv, prow_i, prow_i + 1, 0.0);
  rank1_update(tb.T, -1.0, colv, prow);
  tb.basis[prow_i - 1] = pcol_j;
}

/// Run pivots to optimality.
LpStatus optimize(DistTableau& tb, const SimplexOptions& o,
                  std::size_t& iters) {
  while (iters < o.max_iters) {
    const std::ptrdiff_t j = entering(tb, o);
    if (j < 0) return LpStatus::Optimal;
    const DistVector<double> colv =
        extract(tb.T, Axis::Col, static_cast<std::size_t>(j));
    const std::ptrdiff_t i =
        leaving(tb, colv, o);
    if (i < 0) return LpStatus::Unbounded;
    pivot(tb, static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    ++iters;
  }
  return LpStatus::IterationLimit;
}

}  // namespace

LpSolution simplex_solve(Grid& grid, const LpProblem& lp, SimplexOptions opts,
                         MatrixLayout layout) {
  VMP_TRACE(grid.cube(), "simplex");
  detail::TableauSetup setup = detail::build_tableau(lp);
  const std::size_t m = lp.ncons, nv = lp.nvars;
  const std::size_t width = setup.width();

  DistTableau tb{DistMatrix<double>(grid, m + 1, width + 1, layout),
                 std::move(setup.basis), setup.nvars, setup.nslack,
                 setup.nart};
  tb.T.load(setup.T.data());
  // Shipping the initial tableau from the front end is charged as one bulk
  // transfer (the CM timed I/O separately; one start-up suffices here).
  grid.cube().clock().charge_comm_step((m + 1) * (width + 1), 1,
                                       (m + 1) * (width + 1));

  LpSolution sol;

  // -- Phase I ---------------------------------------------------------------
  if (tb.nart > 0) {
    const LpStatus st = optimize(tb, opts, sol.phase1_iterations);
    sol.iterations = sol.phase1_iterations;
    if (st == LpStatus::IterationLimit) {
      sol.status = st;
      return sol;
    }
    if (mat_fetch(tb.T, 0, width) < -opts.eps) {
      sol.status = LpStatus::Infeasible;
      return sol;
    }
    // Drive still-basic artificials out where possible (first usable
    // column, exactly as the serial reference does).
    for (std::size_t i = 1; i <= m; ++i) {
      if (tb.basis[i - 1] < tb.allowed()) continue;
      const DistVector<double> rowi = extract(tb.T, Axis::Row, i);
      const std::size_t allowed = tb.allowed();
      const ValueIndex<double> j =
          vec_argmin_key(rowi, [&](double v, std::size_t g) {
            return (g < allowed && std::abs(v) > opts.eps)
                       ? static_cast<double>(g)
                       : kInf;
          });
      if (j.index >= 0) {
        pivot(tb, i, static_cast<std::size_t>(j.index));
        ++sol.iterations;
      }
    }
  }

  // -- Phase II ---------------------------------------------------------------
  {
    // Fresh objective row shipped from the front end (one bulk transfer),
    // then the basic columns are eliminated from it.
    std::vector<double> row0(width + 1, 0.0);
    for (std::size_t j = 0; j < nv; ++j) row0[j] = -lp.c[j];
    DistVector<double> obj(grid, width + 1, Align::Cols, layout.cols);
    obj.load(row0);
    grid.cube().clock().charge_comm_step(width + 1, 1, width + 1);
    for (std::size_t i = 1; i <= m; ++i) {
      const double f = vec_fetch(obj, tb.basis[i - 1]);
      if (f == 0.0) continue;
      const DistVector<double> rowi = extract(tb.T, Axis::Row, i);
      vec_axpy(obj, -f, rowi);
    }
    insert(tb.T, Axis::Row, 0, obj);
  }
  sol.status = optimize(tb, opts, sol.iterations);
  if (sol.status != LpStatus::Optimal) return sol;

  // Host readback of the optimum (untimed, like to_host()).
  sol.objective = tb.T.at(0, width);
  sol.x.assign(nv, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    if (tb.basis[i] < nv) sol.x[tb.basis[i]] = tb.T.at(i + 1, width);
  return sol;
}

}  // namespace vmp
