#ifndef TRICLUST_PERFBENCH_MIRROR_H_
#define TRICLUST_PERFBENCH_MIRROR_H_

#include <string>

#include "perfbench/trace.h"
#include "src/core/config.h"
#include "src/core/result.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/matrix_builder.h"
#include "src/matrix/dense_matrix.h"
#include "src/util/parallel.h"

namespace perfbench {

/// The traced runs attribute solver time to single update rules by
/// replaying the solvers' loops from outside, one public core call at a
/// time with a span around each: InitializeFactors (or the online
/// initialization), update::Update{Sp,Hp,Su,Hu,Sf} and ComputeObjective,
/// in the solvers' order, under one UpdateWorkspace and the fit's
/// ScopedThreadBudget / ScopedKernelMode. A mirror is only trusted when
/// its output is bit-identical to the library solver's on the same input
/// (SameFactors); the untraced runs never use it.

/// Algorithm 1 as OfflineTriClusterer::Run executes it (no supervision).
triclust::TriClusterResult MirrorOfflineRun(
    const triclust::DatasetMatrices& data, const triclust::DenseMatrix& sf0,
    const triclust::TriClusterConfig& config, Tracer* tracer);

/// Algorithm 2 for one snapshot as SnapshotSolver::Solve executes it,
/// advancing `state` (a copy of the campaign's pre-fit state) in place.
/// `budget` is the per-fit width the engine gave the fit.
triclust::TriClusterResult MirrorSnapshotSolve(
    const triclust::SnapshotSolver& solver,
    const triclust::DatasetMatrices& data, triclust::StreamState* state,
    triclust::ThreadBudget budget, Tracer* tracer);

/// Empty when both results hold bit-identical factors and the same
/// iteration count and convergence flag; the first difference otherwise.
std::string SameFactors(const triclust::TriClusterResult& mirror,
                        const triclust::TriClusterResult& library);

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_MIRROR_H_
