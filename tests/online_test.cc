#include "src/core/online.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/core/objective.h"
#include "src/core/offline.h"
#include "src/core/snapshot_solver.h"
#include "src/core/updates.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/matrix/ops.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::SmallProblem;

OnlineConfig FastOnlineConfig() {
  OnlineConfig config;
  config.base.max_iterations = 30;
  return config;
}

struct OnlineFixtureData {
  SmallProblem problem;
  std::vector<Snapshot> snapshots;
};

OnlineFixtureData MakeFixture(uint64_t seed = 5) {
  OnlineFixtureData f{MakeSmallProblem(seed), {}};
  f.snapshots = SplitByDay(f.problem.dataset.corpus);
  return f;
}

TEST(OnlineTest, FirstSnapshotActsLikeBootstrap) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  EXPECT_EQ(online.timestep(), 0);
  const DatasetMatrices day0 = f.problem.builder.Build(
      f.problem.dataset.corpus, f.snapshots[0].tweet_ids, 0);
  const TriClusterResult r = online.ProcessSnapshot(day0);
  EXPECT_EQ(online.timestep(), 1);
  // No history yet: every user is new, Sfw falls back to Sf0.
  EXPECT_EQ(online.last_partition().evolving_rows.size(), 0u);
  EXPECT_EQ(online.last_partition().new_rows.size(), day0.num_users());
  EXPECT_EQ(online.last_sfw(), f.problem.sf0);
  EXPECT_EQ(r.sp.rows(), day0.num_tweets());
  EXPECT_TRUE(IsNonNegative(r.sp));
}

TEST(OnlineTest, UsersBecomeEvolvingOnReappearance) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;

  const DatasetMatrices day0 =
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0);
  online.ProcessSnapshot(day0);
  std::unordered_set<size_t> seen(day0.user_ids.begin(),
                                  day0.user_ids.end());

  const DatasetMatrices day1 =
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1);
  online.ProcessSnapshot(day1);
  const auto& partition = online.last_partition();
  // Every "evolving" row's user was seen on day 0, every "new" row's wasn't.
  for (size_t row : partition.evolving_rows) {
    EXPECT_TRUE(seen.count(day1.user_ids[row]) > 0);
  }
  for (size_t row : partition.new_rows) {
    EXPECT_TRUE(seen.count(day1.user_ids[row]) == 0);
  }
  EXPECT_EQ(partition.evolving_rows.size() + partition.new_rows.size(),
            day1.num_users());
  // Disappeared = day-0 users not active on day 1.
  size_t expected_disappeared = 0;
  std::unordered_set<size_t> today(day1.user_ids.begin(),
                                   day1.user_ids.end());
  for (size_t u : seen) {
    if (today.count(u) == 0) ++expected_disappeared;
  }
  EXPECT_EQ(partition.num_disappeared, expected_disappeared);
}

TEST(OnlineTest, SfwIsDecayedAggregateOfHistory) {
  const auto f = MakeFixture();
  OnlineConfig config = FastOnlineConfig();
  config.window = 2;  // Sfw(t) = normalized τ·Sf(t−1) = Sf(t−1)
  config.lexicon_blend = 0.0;  // the paper's pure-history aggregate
  OnlineTriClusterer online(config, f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;

  const TriClusterResult r0 = online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0));
  online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1));
  // With w = 2 the aggregate is the previous Sf with each feature row
  // renormalized to a distribution (factor magnitudes are arbitrary; only
  // the row shapes are regularization targets).
  DenseMatrix expected = r0.sf;
  expected.NormalizeRowsL1();
  const DenseMatrix& sfw = online.last_sfw();
  ASSERT_EQ(sfw.rows(), expected.rows());
  ASSERT_EQ(sfw.cols(), expected.cols());
  for (size_t i = 0; i < sfw.size(); ++i) {
    EXPECT_NEAR(sfw.data()[i], expected.data()[i], 1e-9);
  }
}

TEST(OnlineTest, UserSentimentHistoryMaintained) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;
  const DatasetMatrices day0 =
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0);
  const TriClusterResult r0 = online.ProcessSnapshot(day0);
  for (size_t j = 0; j < day0.num_users(); ++j) {
    const auto row = online.UserSentiment(day0.user_ids[j]);
    ASSERT_EQ(row.size(), 3u);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(row[c], r0.su(j, c));
    }
  }
  EXPECT_TRUE(online.UserSentiment(999999).empty());
}

TEST(OnlineTest, EmptySnapshotCarriesStateForward) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;
  const TriClusterResult r0 = online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0));

  DatasetMatrices empty;
  {
    SparseMatrix::Builder xp_builder(0, f.problem.data.num_features());
    empty.xp = xp_builder.Build();
    SparseMatrix::Builder xu_builder(0, f.problem.data.num_features());
    empty.xu = xu_builder.Build();
    SparseMatrix::Builder xr_builder(0, 0);
    empty.xr = xr_builder.Build();
    empty.gu = UserGraph(0);
  }
  const TriClusterResult r1 = online.ProcessSnapshot(empty);
  EXPECT_EQ(online.timestep(), 2);
  EXPECT_EQ(r1.sp.rows(), 0u);
  EXPECT_EQ(r1.sf.rows(), f.problem.data.num_features());
  // User history survives an empty day.
  EXPECT_FALSE(online.UserSentiment(r0.su.rows() > 0
                                        ? f.problem.builder
                                              .Build(corpus,
                                                     f.snapshots[0].tweet_ids,
                                                     0)
                                              .user_ids[0]
                                        : 0)
                   .empty());
}

TEST(OnlineTest, ObjectiveNonIncreasingWithinSnapshot) {
  const auto f = MakeFixture();
  OnlineConfig config = FastOnlineConfig();
  config.base.tolerance = 0.0;
  config.base.max_iterations = 20;
  OnlineTriClusterer online(config, f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;
  online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0));
  const TriClusterResult r = online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1));
  ASSERT_GT(r.loss_history.size(), 5u);
  // The warm start places the solve near a balance point, so the component
  // oscillation of paper Fig. 8 can appear from the first iterations; the
  // testable property is overall descent with bounded oscillation.
  const double first = r.loss_history.front().Total();
  double lowest = first;
  for (const LossComponents& loss : r.loss_history) {
    lowest = std::min(lowest, loss.Total());
  }
  EXPECT_LT(lowest, first);
  EXPECT_LE(r.loss_history.back().Total(), 1.25 * lowest);
}

TEST(OnlineTest, AccuracyComparableToOfflinePerSnapshot) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;
  double online_acc = 0.0;
  int scored = 0;
  for (size_t s = 0; s < f.snapshots.size(); ++s) {
    const DatasetMatrices data = f.problem.builder.Build(
        corpus, f.snapshots[s].tweet_ids, f.snapshots[s].last_day);
    const TriClusterResult r = online.ProcessSnapshot(data);
    if (data.num_tweets() == 0) continue;
    online_acc += ClusteringAccuracy(r.TweetClusters(), data.tweet_labels);
    ++scored;
  }
  ASSERT_GT(scored, 0);
  online_acc /= scored;
  EXPECT_GT(online_acc, 0.6);
}

TEST(OnlineTest, FactorsStayNonNegativeAcrossStream) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;
  for (size_t s = 0; s < 5; ++s) {
    const DatasetMatrices data = f.problem.builder.Build(
        corpus, f.snapshots[s].tweet_ids, f.snapshots[s].last_day);
    const TriClusterResult r = online.ProcessSnapshot(data);
    EXPECT_TRUE(IsNonNegative(r.sp));
    EXPECT_TRUE(IsNonNegative(r.su));
    EXPECT_TRUE(IsNonNegative(r.sf));
    EXPECT_TRUE(AllFinite(r.sf));
  }
}

TEST(OnlineTest, WindowThreeAggregatesTwoSnapshots) {
  const auto f = MakeFixture();
  OnlineConfig config = FastOnlineConfig();
  config.window = 3;
  config.tau = 0.5;
  config.lexicon_blend = 0.0;  // the paper's pure-history aggregate
  OnlineTriClusterer online(config, f.problem.sf0);
  const Corpus& corpus = f.problem.dataset.corpus;
  const TriClusterResult r0 = online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0));
  const TriClusterResult r1 = online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1));
  online.ProcessSnapshot(
      f.problem.builder.Build(corpus, f.snapshots[2].tweet_ids, 2));
  // Sfw(2) = row-normalized[(τ·Sf(1) + τ²·Sf(0)) / (τ + τ²)]
  //        = row-normalized[(2·Sf(1) + Sf(0)) / 3].
  DenseMatrix expected = r1.sf;
  expected.ScaleInPlace(2.0 / 3.0);
  expected.Axpy(1.0 / 3.0, r0.sf);
  expected.NormalizeRowsL1();
  const DenseMatrix& got = online.last_sfw();
  ASSERT_EQ(got.rows(), expected.rows());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-9);
  }
}

/// The snapshot solver's divergence branch: one Xp entry of 1e154 in day 1
/// overflows the objective a few sweeps in. The solve must stop there, drop
/// the diverged sweep's loss, return the last finite iterate — the factors
/// of the same solve capped one sweep earlier — and roll the stream state
/// forward from those restored factors.
TEST(OnlineTest, DivergenceRestoresLastFiniteIterateAndRollsForward) {
  using testing_util::BitEqual;
  const auto f = MakeFixture();
  const Corpus& corpus = f.problem.dataset.corpus;
  OnlineConfig config = FastOnlineConfig();
  config.base.max_iterations = 200;
  config.base.tolerance = 0.0;

  StreamState state;
  (void)SnapshotSolver(config, f.problem.sf0)
      .Solve(f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0),
             &state);
  DatasetMatrices day1 =
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1);
  day1.xp = testing_util::WithFirstEntry(day1.xp, 1e154);

  StreamState diverged_state = state;
  const TriClusterResult diverged =
      SnapshotSolver(config, f.problem.sf0).Solve(day1, &diverged_state);
  ASSERT_GT(diverged.iterations, 1);
  ASSERT_LT(diverged.iterations, config.base.max_iterations);
  EXPECT_FALSE(diverged.converged);
  ASSERT_EQ(diverged.loss_history.size(),
            static_cast<size_t>(diverged.iterations));
  for (const LossComponents& loss : diverged.loss_history) {
    EXPECT_TRUE(std::isfinite(loss.Total()));
  }

  config.base.max_iterations = diverged.iterations - 1;
  StreamState capped_state = state;
  const TriClusterResult capped =
      SnapshotSolver(config, f.problem.sf0).Solve(day1, &capped_state);
  EXPECT_EQ(capped.iterations, diverged.iterations - 1);
  EXPECT_TRUE(BitEqual(diverged.sp, capped.sp));
  EXPECT_TRUE(BitEqual(diverged.su, capped.su));
  EXPECT_TRUE(BitEqual(diverged.sf, capped.sf));
  EXPECT_TRUE(BitEqual(diverged.hp, capped.hp));
  EXPECT_TRUE(BitEqual(diverged.hu, capped.hu));

  // The state rolled forward from the restored factors.
  EXPECT_EQ(diverged_state.timestep, 2);
  ASSERT_FALSE(diverged_state.sf_history.empty());
  EXPECT_TRUE(BitEqual(diverged_state.sf_history.front(), diverged.sf));
  const size_t k = diverged.su.cols();
  for (size_t j = 0; j < day1.num_users(); ++j) {
    const std::vector<double>& row =
        diverged_state.user_history.at(day1.user_ids[j]).front();
    ASSERT_EQ(row.size(), k);
    for (size_t c = 0; c < k; ++c) {
      EXPECT_TRUE(BitEqual(row[c], diverged.su(j, c)));
    }
  }
  std::ostringstream diverged_bytes;
  std::ostringstream capped_bytes;
  ASSERT_TRUE(diverged_state.Write(&diverged_bytes).ok());
  ASSERT_TRUE(capped_state.Write(&capped_bytes).ok());
  EXPECT_EQ(diverged_bytes.str(), capped_bytes.str());
}

/// A divergence that real serving input reaches: campaign 0 of the
/// serve_fleet benchmark (Prop30LikeConfig(1), 100 days, prior
/// CorruptLexicon(true_lexicon, 0.6, 0.05, 99)) served day by day with the
/// default OnlineConfig. Day 10 (n = 170, m = 89, l = 692) blows up: the
/// objective reaches ~1.95e284 at iteration 10 and turns non-finite at
/// iteration 11. RunSweeps rolls back to the iteration-10 iterate, which is
/// finite but already blown up. This pins that behaviour (and the warning
/// naming the shape and the last finite objective) until the numeric fix
/// lands; that fix moves accuracy, so it will re-record this test.
TEST(OnlineTest, ServeFleetDay10DivergenceRollsBackToBlownUpIterate) {
  using testing_util::BitEqual;
  SyntheticConfig corpus_config = Prop30LikeConfig(1);
  corpus_config.num_days = 100;
  const SyntheticDataset dataset = GenerateSynthetic(corpus_config);
  MatrixBuilder builder;
  builder.Fit(dataset.corpus);
  const DenseMatrix sf0 =
      CorruptLexicon(dataset.true_lexicon, 0.6, 0.05, 99)
          .BuildSf0(builder.vocabulary(), 3);
  const OnlineConfig config;
  const SnapshotSolver solver(config, sf0);
  const std::vector<Snapshot> days = SplitByDay(dataset.corpus);
  ASSERT_GT(days.size(), 10u);

  StreamState state;
  for (size_t d = 0; d < 10; ++d) {
    const TriClusterResult r = solver.Solve(
        builder.Build(dataset.corpus, days[d].tweet_ids, days[d].last_day),
        &state);
    ASSERT_TRUE(std::isfinite(r.loss_history.back().Total())) << "day " << d;
  }
  const DatasetMatrices day10 =
      builder.Build(dataset.corpus, days[10].tweet_ids, days[10].last_day);
  ASSERT_EQ(day10.num_tweets(), 170u);
  ASSERT_EQ(day10.num_users(), 89u);
  ASSERT_EQ(day10.num_features(), 692u);

  StreamState diverged_state = state;
  ::testing::internal::CaptureStderr();
  const TriClusterResult diverged = solver.Solve(day10, &diverged_state);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("diverged at iteration 11 (n=170 m=89 l=692, last "
                     "finite objective 1.95"),
            std::string::npos)
      << log;

  EXPECT_EQ(diverged.iterations, 12);
  EXPECT_FALSE(diverged.converged);
  ASSERT_EQ(diverged.loss_history.size(), 12u);
  const double last = diverged.loss_history.back().Total();
  EXPECT_TRUE(std::isfinite(last));
  EXPECT_GT(last, 1e280);
  for (const DenseMatrix* m :
       {&diverged.sp, &diverged.su, &diverged.sf, &diverged.hp,
        &diverged.hu}) {
    for (size_t i = 0; i < m->size(); ++i) {
      ASSERT_TRUE(std::isfinite(m->data()[i]));
    }
  }

  // The rollback hands back exactly the iteration-10 iterate.
  OnlineConfig capped_config = config;
  capped_config.base.max_iterations = 11;
  StreamState capped_state = state;
  const TriClusterResult capped =
      SnapshotSolver(capped_config, sf0).Solve(day10, &capped_state);
  EXPECT_EQ(capped.iterations, 11);
  EXPECT_TRUE(BitEqual(diverged.sp, capped.sp));
  EXPECT_TRUE(BitEqual(diverged.su, capped.su));
  EXPECT_TRUE(BitEqual(diverged.sf, capped.sf));
  EXPECT_TRUE(BitEqual(diverged.hp, capped.hp));
  EXPECT_TRUE(BitEqual(diverged.hu, capped.hu));
}

/// A snapshot fit with the temporal Su pull active is bitwise equal to
/// Algorithm 2's loop written out from the public update rules, each called
/// without the X·Sf product the shared loop hands from an S-rule to its
/// H-rule: the five updates in order, the objective with the temporal term,
/// and the relative tolerance stop. Factors, iterations and every loss
/// entry must match — the assumption an outside re-implementation of the
/// loop (perfbench's mirror) relies on.
TEST(OnlineTest, SnapshotFitMatchesReferenceLoopBitwise) {
  using testing_util::BitEqual;
  using testing_util::LossBitEqual;
  const auto f = MakeFixture();
  const Corpus& corpus = f.problem.dataset.corpus;
  OnlineConfig config = FastOnlineConfig();
  config.base.max_iterations = 100;
  config.base.tolerance = 1e-4;
  config.base.track_loss = true;
  const SnapshotSolver solver(config, f.problem.sf0);

  StreamState state;
  (void)solver.Solve(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0), &state);
  const DatasetMatrices d =
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1);

  StreamState fit_state = state;
  const TriClusterResult fit = solver.Solve(d, &fit_state);

  // The solver's own initialization and Sfw target: a zero-sweep solve of
  // the same snapshot from the same state returns them.
  OnlineConfig init_config = config;
  init_config.base.max_iterations = 0;
  StreamState init_state = state;
  SnapshotSolver::SolveInfo info;
  const TriClusterResult init =
      SnapshotSolver(init_config, f.problem.sf0).Solve(d, &init_state, &info);
  ASSERT_EQ(init.iterations, 0);

  // Suw(t): each evolving user's τ-decayed history, row-normalized, pulled
  // with weight γ; new users get no pull.
  const size_t m = d.num_users();
  const size_t k = static_cast<size_t>(config.base.num_clusters);
  ASSERT_FALSE(info.partition.evolving_rows.empty());
  std::vector<double> weights(m, 0.0);
  DenseMatrix suw(m, k, 0.0);
  for (size_t j : info.partition.evolving_rows) {
    double weight = config.tau;
    for (const std::vector<double>& row :
         state.user_history.at(d.user_ids[j])) {
      for (size_t c = 0; c < k; ++c) suw(j, c) += weight * row[c];
      weight *= config.tau;
    }
    double row_sum = 0.0;
    for (size_t c = 0; c < k; ++c) row_sum += suw(j, c);
    for (size_t c = 0; c < k; ++c) {
      suw(j, c) = row_sum > 0.0 ? suw(j, c) / row_sum
                                : 1.0 / static_cast<double>(k);
    }
    weights[j] = config.gamma;
  }

  const TriClusterConfig& base = config.base;
  const DenseMatrix& sfw = info.sfw;
  update::UpdateWorkspace ws;
  FactorSet fs{init.sp, init.su, init.sf, init.hp, init.hu};
  std::vector<LossComponents> history;
  auto record = [&]() -> double {
    history.push_back(ComputeObjective(d.xp, d.xu, d.xr, d.gu, fs.sp, fs.su,
                                       fs.sf, fs.hp, fs.hu, config.alpha,
                                       sfw, base.beta, &weights, &suw));
    return history.back().Total();
  };
  const double eps = base.epsilon;
  double previous = record();
  int iterations = 0;
  bool converged = false;
  for (int iter = 0; iter < base.max_iterations; ++iter) {
    update::UpdateSp(d.xp, d.xr, fs.sf, fs.hp, fs.su, &fs.sp, eps,
                     base.sparsity, nullptr, nullptr, &ws);
    update::UpdateHp(d.xp, fs.sp, fs.sf, &fs.hp, eps, &ws);
    update::UpdateSu(d.xu, d.xr, d.gu, fs.sf, fs.hu, fs.sp, base.beta,
                     &weights, &suw, &fs.su, eps, base.sparsity, &ws);
    update::UpdateHu(d.xu, fs.su, fs.sf, &fs.hu, eps, &ws);
    update::UpdateSf(d.xp, d.xu, fs.sp, fs.su, fs.hp, fs.hu, config.alpha,
                     sfw, &fs.sf, eps, base.sparsity, &ws);
    iterations = iter + 1;
    const double total = record();
    ASSERT_TRUE(std::isfinite(total));
    if (std::fabs(previous - total) / std::max(previous, 1e-30) <
        base.tolerance) {
      converged = true;
      break;
    }
    previous = total;
  }

  ASSERT_TRUE(converged);
  EXPECT_EQ(fit.iterations, iterations);
  EXPECT_EQ(fit.converged, converged);
  EXPECT_TRUE(BitEqual(fit.sp, fs.sp));
  EXPECT_TRUE(BitEqual(fit.su, fs.su));
  EXPECT_TRUE(BitEqual(fit.sf, fs.sf));
  EXPECT_TRUE(BitEqual(fit.hp, fs.hp));
  EXPECT_TRUE(BitEqual(fit.hu, fs.hu));
  ASSERT_EQ(fit.loss_history.size(), history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_TRUE(LossBitEqual(fit.loss_history[i], history[i]))
        << "loss entry " << i;
  }
  EXPECT_GT(history.back().temporal_user_loss, 0.0);
}

TEST(OnlineTest, RejectsMismatchedFeatureSpace) {
  const auto f = MakeFixture();
  OnlineTriClusterer online(FastOnlineConfig(), f.problem.sf0);
  DatasetMatrices bad;
  SparseMatrix::Builder xp_builder(1, 3);  // wrong feature count
  xp_builder.Add(0, 0, 1.0);
  bad.xp = xp_builder.Build();
  EXPECT_DEATH(online.ProcessSnapshot(bad), "check failed");
}

}  // namespace
}  // namespace triclust
