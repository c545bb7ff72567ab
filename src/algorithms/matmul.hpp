/// \file matmul.hpp
/// \brief Dense matrix-matrix multiplication backends and their cost-model
///        selector (docs/matmul.md):
///
///  * `matmul`       — rank-1 / outer-product: C = Σ_k a_k ⊗ b_k, one pair
///                     of extract broadcasts per reduction index.
///  * `matmul_summa` — block-panel SUMMA: whole ownership panels broadcast
///                     along the grid rows/columns, O(√p) start-ups.
///  * `matmul_hyper` — hyper-systolic (Lippert et al.; Galli): the operands
///                     move along a Gray-coded ring on the shift-base
///                     schedule {0,1,…,K−1} × K with K ≈ √p, cutting the
///                     per-processor communication volume from the O(p)
///                     block-moves of the broadcast formulations to O(√p).
///  * `matmul_auto`  — picks the cheapest eligible backend from simulated
///                     cost models parameterized by the machine's
///                     CostParams and physical topology.
#pragma once

#include "embed/dist_matrix.hpp"

namespace vmp {

/// C = A·B.  A is n×k, B is k×m; A's column partition must equal B's row
/// partition (they index the same reduction dimension).  The result
/// inherits A's row partition and B's column partition.
[[nodiscard]] DistMatrix<double> matmul(const DistMatrix<double>& A,
                                        const DistMatrix<double>& B);

/// C = A·B by block-panel SUMMA: instead of one broadcast per reduction
/// index, whole ownership panels of A-columns and B-rows are broadcast
/// along the grid rows / columns and multiplied locally — O(√p) start-ups
/// instead of O(k·lg p), the "parallelize two loops with aligned panels"
/// choice of the era's matrix-multiplication analyses.  Requires Block
/// partitioning of the reduction axis on both operands.
[[nodiscard]] DistMatrix<double> matmul_summa(const DistMatrix<double>& A,
                                              const DistMatrix<double>& B);

/// C = A·B by the hyper-systolic schedule: on a 1-D (row-partitioned,
/// pcols == 1) grid viewed as a Gray-coded ring, A is replicated along the
/// K−1 unit strides of the shift base (K = 2^⌈d/2⌉ ≈ √p), B streams through
/// the p/K systolic phases in stride-K shifts, and the K partial-C copies
/// are summed by a backward combining pass — ~3(√p − 1) block-moves per
/// processor instead of the O(p) panel broadcasts of SUMMA on the same
/// grid.  Requires Block row partitioning of both operands.  Every
/// processor accumulates its blocks in a fixed schedule order, so results
/// are bit-identical across thread counts and repeats; the reduction order
/// differs from matmul_summa's ascending-k order, so the two agree to
/// round-off (the documented ULP budget in docs/matmul.md), not bitwise.
/// On the host the schedule is charged step by step over the operands'
/// own blocks and the product computed afterwards in one team step, so a
/// FaultError computes nothing and leaves A and B untouched.
[[nodiscard]] DistMatrix<double> matmul_hyper(const DistMatrix<double>& A,
                                              const DistMatrix<double>& B);

/// Simulated-cost estimates (µs) of the three backends for one A·B on the
/// operands' machine — the quantities matmul_auto compares.  Ineligible
/// backends (hyper off a 1-D Block-row grid, SUMMA without Block reduction
/// axes) are +infinity.  Models are priced with the cube's CostParams; on
/// routed topology presets the shift terms follow the physical routes
/// exactly and the broadcast terms carry a first-order route-dilation
/// correction.
struct MatmulCost {
  double rank1 = 0.0;
  double summa = 0.0;
  double hyper = 0.0;
};
[[nodiscard]] MatmulCost matmul_cost(const DistMatrix<double>& A,
                                     const DistMatrix<double>& B);

/// C = A·B via whichever backend the cost models predict cheapest (ties
/// prefer hyper, then SUMMA — fewer start-ups at equal volume).
[[nodiscard]] DistMatrix<double> matmul_auto(const DistMatrix<double>& A,
                                             const DistMatrix<double>& B);

}  // namespace vmp
