#ifndef TRICLUST_SRC_CORE_UPDATES_H_
#define TRICLUST_SRC_CORE_UPDATES_H_

#include <vector>

#include "src/core/config.h"
#include "src/core/init.h"
#include "src/core/objective.h"
#include "src/core/result.h"
#include "src/data/matrix_builder.h"
#include "src/graph/user_graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"
#include "src/util/parallel.h"

namespace triclust {
namespace update {

/// The multiplicative update rules of the tri-clustering framework
/// (paper Eq. 7, 9, 11, 12, 13 offline; Eq. 20–24, 26 online). Each rule
/// performs one in-place step M ← M ∘ sqrt(numerator/denominator) with the
/// Lagrangian Δ-term split into positive and negative parts, exactly as
/// derived in the paper; `eps` guards the denominators.
///
/// The online variants are the same formulas with time-dependent targets:
/// Sf's lexicon target becomes the decayed window aggregate Sfw(t) and Su
/// gains a per-row temporal term γ·(Su − Suw), so one parameterized kernel
/// serves both frameworks.
///
/// All three S-rules accept an optional L1 `sparsity` weight (paper §7's
/// sparsity regularization): the sub-gradient of λs·||S||₁ over S ≥ 0 is the
/// constant λs, which lands in the denominator of the multiplicative step
/// and shrinks small entries toward zero.

/// Reusable state for the update rules: cached CSR transposes of the data
/// matrices plus pre-sized scratch matrices for every intermediate of the
/// multiplicative algebra. Each rule naively materializes ~10 temporaries;
/// one workspace owned for the duration of a fit (what RunSweeps' callers
/// pass in) makes every iteration after the first allocation-free and
/// replaces the serial scatter-transpose products (SpTMM) with the
/// row-parallel SpMM over a transpose built once.
///
/// A workspace may be shared by all five rules of a fit (they run
/// sequentially and the scratch is overwritten per call; only `x_sf`
/// carries a product from an S-rule to the H-rule after it) but must not
/// be used from two threads at once, and the sparse matrices handed to the
/// rules must stay alive and unmodified while it caches their transposes.
/// Passing no workspace (nullptr) makes a rule allocate locally — the
/// historical behavior; results are bit-identical either way.
class UpdateWorkspace {
 public:
  /// Identifies which data matrix a cached transpose belongs to.
  enum class TransposeSlot { kXp = 0, kXu = 1, kXr = 2 };

  /// The CSR transpose of `x`, built on first use and rebuilt only when a
  /// different matrix (by address) is bound to the slot.
  const SparseMatrix& Transposed(TransposeSlot slot, const SparseMatrix& x);

  /// The fit's thread budget. A workspace is per-fit scratch, which makes
  /// it the natural carrier for the per-fit width: the online snapshot
  /// solve installs this budget on the fitting thread for the duration of
  /// the fit, so every kernel under the fit honors it without any
  /// process-global state (the offline solve installs
  /// TriClusterConfig::num_threads instead).
  /// Ambient (the default) inherits the caller's width — its installed
  /// budget, else 1 (see parallel.h). CampaignEngine::Advance pins it to 1
  /// for every sharded fit. Results are bit-identical at every setting.
  ThreadBudget budget;

  /// Forgets the cached transposes (scratch matrices are kept). Needed
  /// when re-using a long-lived workspace against *new* data matrices that
  /// may coincidentally alias a prior fit's freed addresses — the
  /// by-address cache check cannot distinguish that case on its own.
  /// SnapshotSolver::Solve calls this on every caller-owned workspace;
  /// direct users of the update rules must do likewise at fit boundaries.
  void ResetTransposeCache();

  /// Scratch matrices, used freely by the update rules. rows_* hold
  /// (n|m|l)×k intermediates, kk_* hold k×k ones.
  DenseMatrix rows_a, rows_b, rows_c, rows_d, rows_e, rows_f;
  DenseMatrix kk_a, kk_b, kk_c, kk_d, kk_e, kk_f;
  DenseMatrix delta, delta_pos, delta_neg;
  DenseMatrix numer, denom;

  /// The S-rule → H-rule hand-off: UpdateSp leaves Xp·Sf here and UpdateSu
  /// leaves Xu·Sf, and no rule overwrites it otherwise. Sf does not change
  /// between an S-rule and the H-rule after it, so RunSweeps passes this
  /// buffer as UpdateHp's `xp_sf` and UpdateHu's `xu_sf`: each sparse
  /// product is computed once per sweep instead of twice, with the same
  /// kernel on the same inputs, hence the same bits.
  DenseMatrix x_sf;

 private:
  struct CachedTranspose {
    const SparseMatrix* source = nullptr;
    SparseMatrix transposed;
  };
  CachedTranspose transpose_cache_[3];
};

/// Eq. (7)/(23): feature-cluster update. `sf_target` is Sf0 offline and
/// Sfw(t) online; `alpha` weighs the term.
void UpdateSf(const SparseMatrix& xp, const SparseMatrix& xu,
              const DenseMatrix& sp, const DenseMatrix& su,
              const DenseMatrix& hp, const DenseMatrix& hu, double alpha,
              const DenseMatrix& sf_target, DenseMatrix* sf, double eps,
              double sparsity = 0.0, UpdateWorkspace* workspace = nullptr);

/// Eq. (9)/(22): tweet-cluster update. `prior_weights`/`prior_target`
/// optionally add a per-row quadratic pull δᵢ·||Spᵢ − targetᵢ||² — the
/// guided (semi-supervised) regularization of paper §7, used to inject
/// seed tweet labels; both must be passed together.
void UpdateSp(const SparseMatrix& xp, const SparseMatrix& xr,
              const DenseMatrix& sf, const DenseMatrix& hp,
              const DenseMatrix& su, DenseMatrix* sp, double eps,
              double sparsity = 0.0,
              const std::vector<double>* prior_weights = nullptr,
              const DenseMatrix* prior_target = nullptr,
              UpdateWorkspace* workspace = nullptr);

/// Eq. (11) offline (temporal_weights == nullptr) and Eq. (24)/(26) online:
/// user-cluster update with graph regularization β and optional per-row
/// temporal regularization. `temporal_weights` holds the per-row γ (0 for
/// new users, γ for evolving users) and `temporal_target` the decayed
/// aggregate Suw(t); both must be passed together.
void UpdateSu(const SparseMatrix& xu, const SparseMatrix& xr,
              const UserGraph& gu, const DenseMatrix& sf,
              const DenseMatrix& hu, const DenseMatrix& sp, double beta,
              const std::vector<double>* temporal_weights,
              const DenseMatrix* temporal_target, DenseMatrix* su,
              double eps, double sparsity = 0.0,
              UpdateWorkspace* workspace = nullptr);

/// Eq. (12)/(21): tweet-association update. `xp_sf`, when given, must be
/// Xp·Sf for this `sf` (what UpdateSp leaves in UpdateWorkspace::x_sf);
/// nullptr computes it. The result is bit-identical either way.
void UpdateHp(const SparseMatrix& xp, const DenseMatrix& sp,
              const DenseMatrix& sf, DenseMatrix* hp, double eps,
              UpdateWorkspace* workspace = nullptr,
              const DenseMatrix* xp_sf = nullptr);

/// Eq. (13)/(20): user-association update. `xu_sf` is Xu·Sf or nullptr, as
/// for UpdateHp.
void UpdateHu(const SparseMatrix& xu, const DenseMatrix& su,
              const DenseMatrix& sf, DenseMatrix* hu, double eps,
              UpdateWorkspace* workspace = nullptr,
              const DenseMatrix* xu_sf = nullptr);

/// The multiplicative loop shared by offline Algorithm 1 and the online
/// snapshot solve (Algorithm 2 lines 3–8). Starting from `factors`, each
/// sweep applies UpdateSp, UpdateHp, UpdateSu, UpdateHu and UpdateSf in
/// that order — UpdateHp/UpdateHu reuse the X·Sf product their S-rule
/// left in the workspace — and then evaluates the objective
/// (ComputeObjective against `sf_target`/`alpha`, plus the pull losses).
/// It stops when the relative objective change drops below
/// `config.tolerance` (converged), after `config.max_iterations` sweeps, or
/// when the objective turns non-finite — then the diverged sweep is
/// discarded, its loss entry dropped, and the last finite iterate returned.
/// `iterations` counts the discarded sweep.
///
/// `sp_pull`/`su_pull` optionally add a per-row pull on Sp/Su (nullptr =
/// none). The Sp pull's loss is reported in `guided_loss`; the Su pull's in
/// the LossComponents field `su_pull_loss` names — `guided_loss` for seed
/// labels, `temporal_user_loss` for the online history pull. Reads
/// epsilon, sparsity, beta, tolerance, max_iterations and track_loss from
/// `config`; runs under whatever thread budget and kernel mode the caller
/// installed. Returns the factors together with the loss history.
TriClusterResult RunSweeps(const DatasetMatrices& data,
                           const DenseMatrix& sf_target, double alpha,
                           const TriClusterConfig& config,
                           const RowPull* sp_pull, const RowPull* su_pull,
                           double LossComponents::*su_pull_loss,
                           FactorSet factors, UpdateWorkspace* workspace);

}  // namespace update
}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_UPDATES_H_
