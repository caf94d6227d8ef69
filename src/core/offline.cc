#include "src/core/offline.h"

#include "src/core/init.h"
#include "src/core/updates.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace triclust {

OfflineTriClusterer::OfflineTriClusterer(TriClusterConfig config)
    : config_(config) {
  TRICLUST_CHECK_GE(config_.num_clusters, 2);
  TRICLUST_CHECK_GE(config_.alpha, 0.0);
  TRICLUST_CHECK_GE(config_.beta, 0.0);
  TRICLUST_CHECK_GE(config_.max_iterations, 1);
  TRICLUST_CHECK_GE(config_.num_threads, 0);
}

namespace {

/// Expands seed labels into the per-row pull used by the guided update
/// rules: weight δ and a one-hot target on every seeded row, weight 0 on
/// the rest.
RowPull SeedPull(const std::vector<Sentiment>& seeds, size_t rows, size_t k,
                 double weight) {
  TRICLUST_CHECK_EQ(seeds.size(), rows);
  RowPull pull{std::vector<double>(rows, 0.0), DenseMatrix(rows, k, 0.0)};
  for (size_t i = 0; i < rows; ++i) {
    if (seeds[i] == Sentiment::kUnlabeled) continue;
    const int cls = SentimentIndex(seeds[i]);
    if (cls >= static_cast<int>(k)) continue;
    pull.weights[i] = weight;
    pull.target(i, static_cast<size_t>(cls)) = 1.0;
  }
  return pull;
}

}  // namespace

TriClusterResult OfflineTriClusterer::Run(const DatasetMatrices& data,
                                          const DenseMatrix& sf0,
                                          const Supervision* supervision) const {
  TRICLUST_CHECK_EQ(data.xp.rows(), data.xr.cols());
  TRICLUST_CHECK_EQ(data.xu.rows(), data.xr.rows());
  TRICLUST_CHECK_EQ(data.xp.cols(), data.xu.cols());
  TRICLUST_CHECK_EQ(sf0.rows(), data.xp.cols());
  TRICLUST_CHECK_EQ(sf0.cols(), static_cast<size_t>(config_.num_clusters));

  // Every kernel under this fit honors the configured per-fit thread
  // budget (installed thread-local, so concurrent fits with different
  // budgets coexist), and one workspace amortizes the data-matrix
  // transposes plus all update scratch across iterations.
  ScopedThreadBudget thread_scope(ThreadBudget(config_.num_threads));
  ScopedKernelMode kernel_scope(config_.kernel_mode);
  update::UpdateWorkspace workspace;

  // Guided mode: seed labels become per-row pulls on Sp and Su.
  RowPull tweet_pull;
  RowPull user_pull;
  const RowPull* sp_pull = nullptr;
  const RowPull* su_pull = nullptr;
  if (supervision != nullptr) {
    TRICLUST_CHECK_GE(supervision->weight, 0.0);
    const size_t k = static_cast<size_t>(config_.num_clusters);
    if (!supervision->tweet_seeds.empty()) {
      tweet_pull = SeedPull(supervision->tweet_seeds, data.num_tweets(), k,
                            supervision->weight);
      sp_pull = &tweet_pull;
    }
    if (!supervision->user_seeds.empty()) {
      user_pull = SeedPull(supervision->user_seeds, data.num_users(), k,
                           supervision->weight);
      su_pull = &user_pull;
    }
  }

  return update::RunSweeps(data, sf0, config_.alpha, config_, sp_pull,
                           su_pull, &LossComponents::guided_loss,
                           InitializeFactors(data, sf0, config_), &workspace);
}

}  // namespace triclust
