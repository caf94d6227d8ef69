#include "perfbench/mirror.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/core/init.h"
#include "src/core/objective.h"
#include "src/core/updates.h"
#include "src/matrix/kernel_dispatch.h"
#include "src/matrix/ops.h"
#include "src/util/rng.h"

namespace perfbench {

using triclust::DatasetMatrices;
using triclust::DenseMatrix;
using triclust::FactorSet;
using triclust::TriClusterResult;
namespace update = triclust::update;

namespace {

/// One Sp → Hp → Su → Hu → Sf sweep (Algorithm 1/2 order), a span per rule.
void Sweep(const DatasetMatrices& data, const DenseMatrix& sf_target,
           double alpha, double beta, double eps, double sparsity,
           const std::vector<double>* temporal_weights,
           const DenseMatrix* temporal_target, FactorSet* f,
           update::UpdateWorkspace* workspace, Tracer* tracer) {
  {
    Span span(tracer, "core.UpdateSp");
    update::UpdateSp(data.xp, data.xr, f->sf, f->hp, f->su, &f->sp, eps,
                     sparsity, nullptr, nullptr, workspace);
  }
  {
    Span span(tracer, "core.UpdateHp");
    update::UpdateHp(data.xp, f->sp, f->sf, &f->hp, eps, workspace);
  }
  {
    Span span(tracer, "core.UpdateSu");
    update::UpdateSu(data.xu, data.xr, data.gu, f->sf, f->hu, f->sp, beta,
                     temporal_weights, temporal_target, &f->su, eps,
                     sparsity, workspace);
  }
  {
    Span span(tracer, "core.UpdateHu");
    update::UpdateHu(data.xu, f->su, f->sf, &f->hu, eps, workspace);
  }
  {
    Span span(tracer, "core.UpdateSf");
    update::UpdateSf(data.xp, data.xu, f->sp, f->su, f->hp, f->hu, alpha,
                     sf_target, &f->sf, eps, sparsity, workspace);
  }
}

/// The solvers' shared loop: sweep, objective, divergence rollback and the
/// relative-tolerance stop, exactly as offline.cc / snapshot_solver.cc.
void Iterate(const DatasetMatrices& data, const DenseMatrix& sf_target,
             double alpha, const triclust::TriClusterConfig& config,
             const std::vector<double>* temporal_weights,
             const DenseMatrix* temporal_target, FactorSet* f,
             update::UpdateWorkspace* workspace, TriClusterResult* result,
             Tracer* tracer) {
  auto objective = [&]() {
    Span span(tracer, "core.ComputeObjective");
    return triclust::ComputeObjective(data.xp, data.xu, data.xr, data.gu,
                                      f->sp, f->su, f->sf, f->hp, f->hu,
                                      alpha, sf_target, config.beta,
                                      temporal_weights, temporal_target)
        .Total();
  };
  double previous_total = objective();
  FactorSet last_finite = *f;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    Span iteration(tracer, "core.iteration");
    Sweep(data, sf_target, alpha, config.beta, config.epsilon,
          config.sparsity, temporal_weights, temporal_target, f, workspace,
          tracer);
    result->iterations = iter + 1;
    const double total = objective();
    if (!std::isfinite(total)) {
      *f = std::move(last_finite);
      break;
    }
    last_finite = *f;
    const double denom = std::max(previous_total, 1e-30);
    if (std::fabs(previous_total - total) / denom < config.tolerance) {
      result->converged = true;
      break;
    }
    previous_total = total;
  }
}

void MoveFactors(FactorSet* f, TriClusterResult* result) {
  result->sp = std::move(f->sp);
  result->su = std::move(f->su);
  result->sf = std::move(f->sf);
  result->hp = std::move(f->hp);
  result->hu = std::move(f->hu);
}

/// Trims a history deque to the solver's window (snapshot_solver.cc).
template <typename Deque>
void TrimHistory(Deque* history, int window) {
  while (static_cast<int>(history->size()) > std::max(window - 1, 1)) {
    history->pop_back();
  }
}

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

TriClusterResult MirrorOfflineRun(const DatasetMatrices& data,
                                  const DenseMatrix& sf0,
                                  const triclust::TriClusterConfig& config,
                                  Tracer* tracer) {
  Span solve(tracer, "core.solve");
  triclust::ScopedThreadBudget thread_scope(
      triclust::ThreadBudget(config.num_threads));
  triclust::ScopedKernelMode kernel_scope(config.kernel_mode);
  update::UpdateWorkspace workspace;
  FactorSet f;
  {
    Span span(tracer, "core.InitializeFactors");
    f = triclust::InitializeFactors(data, sf0, config);
  }
  TriClusterResult result;
  Iterate(data, sf0, config.alpha, config, nullptr, nullptr, &f, &workspace,
          &result, tracer);
  MoveFactors(&f, &result);
  return result;
}

TriClusterResult MirrorSnapshotSolve(const triclust::SnapshotSolver& solver,
                                     const DatasetMatrices& data,
                                     triclust::StreamState* state,
                                     triclust::ThreadBudget budget,
                                     Tracer* tracer) {
  Span solve(tracer, "core.solve");
  const triclust::OnlineConfig& config = solver.config();
  const size_t n = data.num_tweets();
  const size_t m = data.num_users();
  const size_t k = static_cast<size_t>(config.base.num_clusters);
  update::UpdateWorkspace workspace;
  workspace.budget = budget;
  triclust::ScopedThreadBudget fit_budget(workspace.budget);
  triclust::ScopedKernelMode fit_kernels(config.base.kernel_mode);

  TriClusterResult result;
  FactorSet f;
  DenseMatrix sfw;
  DenseMatrix suw(m, k, 0.0);
  std::vector<double> temporal_weights(m, 0.0);
  {
    Span span(tracer, "core.init");
    sfw = solver.ComputeSfw(*state);
    if (n == 0) {
      result.sf = sfw;
      ++state->timestep;
      state->sf_history.push_front(sfw);
      TrimHistory(&state->sf_history, config.window);
      return result;
    }
    std::vector<size_t> evolving_rows;
    for (size_t j = 0; j < m; ++j) {
      if (state->user_history.count(data.user_ids[j]) > 0) {
        evolving_rows.push_back(j);
      }
    }
    for (size_t j : evolving_rows) {
      double weight = config.tau;
      for (const auto& row : state->user_history.at(data.user_ids[j])) {
        for (size_t c = 0; c < k; ++c) suw(j, c) += weight * row[c];
        weight *= config.tau;
      }
      double row_sum = 0.0;
      for (size_t c = 0; c < k; ++c) row_sum += suw(j, c);
      for (size_t c = 0; c < k; ++c) {
        suw(j, c) = row_sum > 0.0 ? suw(j, c) / row_sum
                                  : 1.0 / static_cast<double>(k);
      }
      temporal_weights[j] = config.gamma;
    }

    triclust::Rng rng(config.base.seed +
                      static_cast<uint64_t>(state->timestep) * 7919);
    f.sf = sfw;
    for (size_t i = 0; i < f.sf.size(); ++i) {
      f.sf.data()[i] =
          std::max(f.sf.data()[i], 1e-4) + rng.Uniform(0.0, 0.01);
    }
    f.sp = triclust::SpMM(data.xp, sfw);
    f.sp.NormalizeRowsL1();
    for (size_t i = 0; i < f.sp.size(); ++i) {
      f.sp.data()[i] += rng.Uniform(0.01, 0.05);
    }
    f.su = triclust::SpMM(data.xu, sfw);
    f.su.NormalizeRowsL1();
    for (size_t i = 0; i < f.su.size(); ++i) {
      f.su.data()[i] += rng.Uniform(0.01, 0.05);
    }
    if (config.seed_users_from_history) {
      for (size_t j : evolving_rows) {
        for (size_t c = 0; c < k; ++c) {
          f.su(j, c) = std::max(suw(j, c), 1e-4) + rng.Uniform(0.0, 0.01);
        }
      }
    }
    f.hp = DenseMatrix::Identity(k);
    f.hu = DenseMatrix::Identity(k);
    for (size_t i = 0; i < f.hp.size(); ++i) {
      f.hp.data()[i] += rng.Uniform(0.01, 0.05);
      f.hu.data()[i] += rng.Uniform(0.01, 0.05);
    }
  }

  Iterate(data, sfw, config.alpha, config.base, &temporal_weights, &suw, &f,
          &workspace, &result, tracer);

  state->sf_history.push_front(f.sf);
  TrimHistory(&state->sf_history, config.window);
  for (size_t j = 0; j < m; ++j) {
    auto& history = state->user_history[data.user_ids[j]];
    history.push_front(std::vector<double>(f.su.Row(j), f.su.Row(j) + k));
    TrimHistory(&history, config.window);
  }
  ++state->timestep;
  MoveFactors(&f, &result);
  return result;
}

std::string SameFactors(const TriClusterResult& mirror,
                        const TriClusterResult& library) {
  if (mirror.iterations != library.iterations) {
    return "mirror ran " + std::to_string(mirror.iterations) +
           " iterations, the library solver " +
           std::to_string(library.iterations);
  }
  if (mirror.converged != library.converged) {
    return "mirror and library solver disagree on convergence";
  }
  const std::pair<const char*, std::pair<const DenseMatrix*,
                                         const DenseMatrix*>>
      factors[] = {{"Sp", {&mirror.sp, &library.sp}},
                   {"Su", {&mirror.su, &library.su}},
                   {"Sf", {&mirror.sf, &library.sf}},
                   {"Hp", {&mirror.hp, &library.hp}},
                   {"Hu", {&mirror.hu, &library.hu}}};
  for (const auto& [name, pair] : factors) {
    if (!SameBits(*pair.first, *pair.second)) {
      return std::string("mirror factor ") + name +
             " is not bit-identical to the library solver's";
    }
  }
  return "";
}

}  // namespace perfbench
