#include "src/core/snapshot_solver.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "src/core/init.h"
#include "src/matrix/ops.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace triclust {

namespace {

/// Makes `entry` the newest element of a window history and drops the
/// oldest beyond max(window − 1, 1): the window-aggregate snapshots
/// t−w+1..t−1, keeping at least one so window == 1 still carries the last
/// snapshot (a quiet day must not reset the stream to the lexicon prior).
template <typename T>
void PushIntoWindow(std::deque<T>* history, T entry, int window) {
  history->push_front(std::move(entry));
  while (static_cast<int>(history->size()) > std::max(window - 1, 1)) {
    history->pop_back();
  }
}

}  // namespace

SnapshotSolver::SnapshotSolver(OnlineConfig config, DenseMatrix sf0)
    : config_(config), sf0_(std::move(sf0)) {
  TRICLUST_CHECK_GE(config_.base.num_clusters, 2);
  TRICLUST_CHECK_EQ(sf0_.cols(),
                    static_cast<size_t>(config_.base.num_clusters));
  TRICLUST_CHECK_GT(config_.tau, 0.0);
  TRICLUST_CHECK_LE(config_.tau, 1.0);
  TRICLUST_CHECK_GE(config_.window, 1);
  TRICLUST_CHECK_GE(config_.alpha, 0.0);
  TRICLUST_CHECK_GE(config_.gamma, 0.0);
}

DenseMatrix SnapshotSolver::ComputeSfw(const StreamState& state) const {
  if (state.sf_history.empty()) return sf0_;
  DenseMatrix sfw(sf0_.rows(), sf0_.cols(), 0.0);
  double weight = config_.tau;
  double weight_sum = 0.0;
  for (const DenseMatrix& sf : state.sf_history) {
    sfw.Axpy(weight, sf);
    weight_sum += weight;
    weight *= config_.tau;
  }
  if (weight_sum > 0.0) sfw.ScaleInPlace(1.0 / weight_sum);
  // A converged Sf's magnitude is an arbitrary byproduct of the
  // factorization scale; as a regularization target only the row *shapes*
  // matter. Renormalizing each feature row to a distribution keeps the
  // target on the same scale class as the prior Sf0 (row-stochastic), so
  // the α pull stays meaningful across snapshots of any volume.
  sfw.NormalizeRowsL1();
  // Persistent lexicon anchor (see OnlineConfig::lexicon_blend).
  const double blend = config_.lexicon_blend;
  if (blend > 0.0) {
    sfw.ScaleInPlace(1.0 - blend);
    sfw.Axpy(blend, sf0_);
  }
  return sfw;
}

TriClusterResult SnapshotSolver::Solve(const DatasetMatrices& data,
                                       StreamState* state, SolveInfo* info,
                                       update::UpdateWorkspace* workspace) const {
  const size_t m = data.num_users();
  const size_t k = static_cast<size_t>(config_.base.num_clusters);
  TRICLUST_CHECK_EQ(data.xp.cols(), sf0_.rows());

  // One update workspace per snapshot fit unless the caller owns one. A
  // caller-owned workspace may still hold transposes keyed to a *previous*
  // snapshot's (freed) matrix addresses, which a new allocation can
  // coincidentally reuse — drop them here so the by-address cache can only
  // ever hit within this fit. The cache is per-fit anyway (the data
  // matrices change every snapshot); only the scratch buffers usefully
  // survive across fits.
  update::UpdateWorkspace local_workspace;
  if (workspace == nullptr) {
    workspace = &local_workspace;
  } else {
    workspace->ResetTransposeCache();
  }

  // The workspace carries the fit's thread budget (see updates.h): install
  // it on this thread for the whole solve so every kernel below honors it.
  // Ambient budgets (the default) make this a no-op and the fit inherits
  // the caller's width (its installed budget, else 1). Thread-local, so
  // concurrent Solve() calls with different budgets never interfere.
  ScopedThreadBudget fit_budget(workspace->budget);
  // Same scoping for the kernel-body selection (kernel_dispatch.h): pool
  // workers execute whatever this thread selects, so installing it here
  // covers every kernel of the fit.
  ScopedKernelMode fit_kernels(config_.base.kernel_mode);

  const DenseMatrix sfw = ComputeSfw(*state);

  // --- partition users (paper: new / evolving / disappeared) --------------
  UserPartition partition;
  for (size_t j = 0; j < m; ++j) {
    if (state->user_history.count(data.user_ids[j]) > 0) {
      partition.evolving_rows.push_back(j);
    } else {
      partition.new_rows.push_back(j);
    }
  }
  partition.num_disappeared =
      state->user_history.size() - partition.evolving_rows.size();

  TriClusterResult result;
  if (data.num_tweets() == 0) {
    // Nothing arrived in this window: carry the feature state forward.
    result.sf = sfw;
    PushIntoWindow(&state->sf_history, sfw, config_.window);
  } else {
    // --- temporal user target -----------------------------------------------
    // Suw(t): decayed aggregate of each evolving user's history (normalized
    // like Sfw), pulled with weight γ; zero rows and weight for new users.
    RowPull suw{std::vector<double>(m, 0.0), DenseMatrix(m, k, 0.0)};
    for (size_t j : partition.evolving_rows) {
      const auto& history = state->user_history.at(data.user_ids[j]);
      double weight = config_.tau;
      for (const auto& row : history) {
        TRICLUST_CHECK_EQ(row.size(), k);
        for (size_t c = 0; c < k; ++c) suw.target(j, c) += weight * row[c];
        weight *= config_.tau;
      }
      // Row-normalize to a distribution (same rationale as Sfw).
      double row_sum = 0.0;
      for (size_t c = 0; c < k; ++c) row_sum += suw.target(j, c);
      for (size_t c = 0; c < k; ++c) {
        suw.target(j, c) = row_sum > 0.0 ? suw.target(j, c) / row_sum
                                         : 1.0 / static_cast<double>(k);
      }
      suw.weights[j] = config_.gamma;
    }

    // --- initialization (Algorithm 2 lines 1–2) ---------------------------
    Rng rng(config_.base.seed + static_cast<uint64_t>(state->timestep) * 7919);
    FactorSet f;
    f.sf = sfw;  // line 1: Sf(t) = Sfw(t)
    // Strictly positive entries so every coordinate can move.
    double* sf = f.sf.data();
    for (size_t i = 0; i < f.sf.size(); ++i) {
      sf[i] = std::max(sf[i], 1e-4) + rng.Uniform(0.0, 0.01);
    }
    auto propagate = [&](const SparseMatrix& x) {
      DenseMatrix s = SpMM(x, sfw);
      s.NormalizeRowsL1();
      for (size_t i = 0; i < s.size(); ++i) {
        s.data()[i] += rng.Uniform(0.01, 0.05);
      }
      return s;
    };
    f.sp = propagate(data.xp);
    f.su = propagate(data.xu);
    // line 1: evolving users resume from their aggregate.
    if (config_.seed_users_from_history) {
      for (size_t j : partition.evolving_rows) {
        for (size_t c = 0; c < k; ++c) {
          f.su(j, c) =
              std::max(suw.target(j, c), 1e-4) + rng.Uniform(0.0, 0.01);
        }
      }
    }
    f.hp = DenseMatrix::Identity(k);
    f.hu = DenseMatrix::Identity(k);
    for (size_t i = 0; i < f.hp.size(); ++i) {
      f.hp.data()[i] += rng.Uniform(0.01, 0.05);
      f.hu.data()[i] += rng.Uniform(0.01, 0.05);
    }

    // --- multiplicative loop (Algorithm 2 lines 3–8) ----------------------
    result = update::RunSweeps(data, sfw, config_.alpha, config_.base,
                               /*sp_pull=*/nullptr, &suw,
                               &LossComponents::temporal_user_loss,
                               std::move(f), workspace);

    // --- roll state forward -------------------------------------------------
    PushIntoWindow(&state->sf_history, result.sf, config_.window);
    for (size_t j = 0; j < m; ++j) {
      const double* row = result.su.Row(j);
      PushIntoWindow(&state->user_history[data.user_ids[j]],
                     std::vector<double>(row, row + k), config_.window);
    }
  }
  ++state->timestep;

  if (info != nullptr) {
    info->sfw = sfw;
    info->partition = std::move(partition);
  }
  return result;
}

}  // namespace triclust
