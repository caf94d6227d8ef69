#ifndef TRICLUST_SRC_CORE_OBJECTIVE_H_
#define TRICLUST_SRC_CORE_OBJECTIVE_H_

#include <vector>

#include "src/core/result.h"
#include "src/graph/user_graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"

namespace triclust {

/// A per-row quadratic pull of a factor toward a target,
///   Σᵢ weights[i]·||Sᵢ − targetᵢ||²,
/// with rows of weight 0 left free. The guided seeds of paper §7 (δ on
/// seeded Sp/Su rows, one-hot targets) and the online temporal user term
/// (γ on evolving users, target Suw(t)) are both this shape.
struct RowPull {
  std::vector<double> weights;
  DenseMatrix target;
};

/// The pull's loss at `factor`: Σᵢ weights[i]·||factorᵢ − targetᵢ||².
double RowPullLoss(const std::vector<double>& weights,
                   const DenseMatrix& target, const DenseMatrix& factor);

/// Evaluates every component of the tri-clustering objective (paper Eq. 1
/// offline, Eq. 19 online) at the current factors. The temporal user term is
/// included only when `temporal_weights`/`temporal_target` are provided
/// (per-row γ already folded into the weights).
LossComponents ComputeObjective(
    const SparseMatrix& xp, const SparseMatrix& xu, const SparseMatrix& xr,
    const UserGraph& gu, const DenseMatrix& sp, const DenseMatrix& su,
    const DenseMatrix& sf, const DenseMatrix& hp, const DenseMatrix& hu,
    double alpha, const DenseMatrix& sf_target, double beta,
    const std::vector<double>* temporal_weights = nullptr,
    const DenseMatrix* temporal_target = nullptr);

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_OBJECTIVE_H_
