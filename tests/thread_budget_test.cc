/// Tests of the thread-local ThreadBudget (src/util/parallel.h): width
/// resolution, nested parallelism, concurrent pool jobs, the any-width
/// bit-identity of the fixed-grain reductions, and
/// CampaignEngine::SplitThreadBudget.

#include "src/util/parallel.h"

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/offline.h"
#include "src/matrix/ops.h"
#include "src/serving/campaign_engine.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::RandomSparse;
using testing_util::SmallProblem;

/// Sizes above the reduction grains so multi-chunk combining engages.
constexpr size_t kRows = 3000;
constexpr size_t kCols = 700;
constexpr size_t kK = 3;

// --- ThreadBudget value semantics and width resolution -----------------------

TEST(ThreadBudgetTest, ResolvesZeroToHardwareConcurrency) {
  const ThreadBudget automatic(0);
  EXPECT_EQ(automatic.threads(), 0);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(automatic.resolved(), hw > 0 ? static_cast<int>(hw) : 1);
  EXPECT_GE(automatic.resolved(), 1);
}

TEST(ThreadBudgetTest, ExplicitBudgetResolvesToItself) {
  const ThreadBudget five(5);
  EXPECT_EQ(five.threads(), 5);
  EXPECT_EQ(five.resolved(), 5);
  EXPECT_FALSE(five.is_ambient());
  EXPECT_TRUE(ThreadBudget().is_ambient());
  EXPECT_TRUE(ThreadBudget::Ambient().is_ambient());
  EXPECT_EQ(ThreadBudget::Serial().resolved(), 1);
}

TEST(ThreadBudgetTest, WidthResolutionOrder) {
  // Rule 2: no installed budget — width 1.
  EXPECT_EQ(CurrentParallelWidth(), 1);
  {
    // Rule 1: the innermost installed budget wins; ambient installs are
    // no-ops.
    ScopedThreadBudget budget{ThreadBudget(2)};
    EXPECT_EQ(CurrentParallelWidth(), 2);
    {
      ScopedThreadBudget inner{ThreadBudget(7)};
      EXPECT_EQ(CurrentParallelWidth(), 7);
      ScopedThreadBudget ambient{ThreadBudget::Ambient()};
      EXPECT_EQ(CurrentParallelWidth(), 7);
    }
    EXPECT_EQ(CurrentParallelWidth(), 2);

    // Budgets are per thread: a fresh std::thread and a pool chunk start
    // with none installed and resolve to width 1.
    int fresh_thread_width = 0;
    std::thread([&] { fresh_thread_width = CurrentParallelWidth(); }).join();
    EXPECT_EQ(fresh_thread_width, 1);
    std::atomic<int> wide_chunks{0};
    ParallelFor(0, 8, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (CurrentParallelWidth() != 1) wide_chunks.fetch_add(1);
      }
    });
    EXPECT_EQ(wide_chunks.load(), 0);
  }
  EXPECT_EQ(CurrentParallelWidth(), 1);
}

TEST(ThreadBudgetTest, BraceInitializedScopeInstallsNamedBudget) {
  // Regression: `ScopedThreadBudget scope(ThreadBudget(n));` with a *named*
  // argument is a function declaration (most vexing parse) — it compiles,
  // installs nothing, and the caller silently runs at the ambient width.
  // CampaignEngine::Advance hit exactly this. Brace initialization is the
  // required spelling; -Wvexing-parse (promoted via -Wall) rejects the
  // paren form at compile time, and this test pins the runtime behavior.
  const int n = 5;
  ThreadBudget named(n);
  ScopedThreadBudget scope{named};
  EXPECT_EQ(CurrentParallelWidth(), 5);
}

TEST(ThreadBudgetTest, ChunkBodiesStartSerialAndCanInstallBudgets) {
  // Chunk bodies start with no installed budget, so their width is 1;
  // installing a budget inside the chunk re-enables parallelism.
  ScopedThreadBudget outer{ThreadBudget(2)};
  std::atomic<int> serial_widths{0};
  std::atomic<int> rewidened_widths{0};
  ParallelFor(0, 8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (CurrentParallelWidth() == 1) serial_widths.fetch_add(1);
      ScopedThreadBudget budget(ThreadBudget(3));
      if (CurrentParallelWidth() == 3) rewidened_widths.fetch_add(1);
    }
  });
  EXPECT_EQ(serial_widths.load(), 8);
  EXPECT_EQ(rewidened_widths.load(), 8);
}

// --- nested execution --------------------------------------------------------

TEST(NestedParallelismTest, InnerParallelForCoversEveryIndexExactlyOnce) {
  // Fan-out over 4 tasks; each task installs its own budget and
  // row-parallelizes inside its chunk.
  ScopedThreadBudget outer{ThreadBudget(4)};
  constexpr size_t kTasks = 4;
  constexpr size_t kItems = 10000;
  std::vector<std::vector<std::atomic<int>>> hits(kTasks);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kItems);
  }
  ParallelFor(0, kTasks, 1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      ScopedThreadBudget fit_budget(ThreadBudget(2));
      ParallelFor(0, kItems, 1, [&, t](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[t][i].fetch_add(1);
      });
    }
  });
  for (size_t t = 0; t < kTasks; ++t) {
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[t][i].load(), 1) << "task " << t << " item " << i;
    }
  }
}

TEST(NestedParallelismTest, InnerReduceBitIdenticalToSerialReference) {
  std::vector<double> values(3 * kReduceFlatGrain + 17);
  Rng rng(7);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  auto chunk_sum = [&](size_t begin, size_t end) {
    double total = 0.0;
    for (size_t i = begin; i < end; ++i) total += values[i];
    return total;
  };
  const double reference =
      ParallelReduce(0, values.size(), kReduceFlatGrain, chunk_sum);

  ScopedThreadBudget outer{ThreadBudget(3)};
  std::vector<double> nested(3, 0.0);
  ParallelFor(0, nested.size(), 1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      ScopedThreadBudget fit_budget(ThreadBudget(static_cast<int>(t) + 1));
      nested[t] = ParallelReduce(0, values.size(), kReduceFlatGrain,
                                 chunk_sum);
    }
  });
  for (size_t t = 0; t < nested.size(); ++t) {
    EXPECT_EQ(nested[t], reference) << "budget " << t + 1;
  }
}

TEST(NestedParallelismTest, ConcurrentSubmittersFromDistinctThreads) {
  // Two top-level threads each drive their own parallel jobs against the
  // shared pool — the multi-job schedule a one-job-at-a-time pool would
  // serialize.
  constexpr size_t kItems = 50000;
  auto work = [](int budget, std::vector<double>* out) {
    // Braces, not parens: `ScopedThreadBudget s(ThreadBudget(budget));`
    // declares a function (most vexing parse) and installs nothing.
    ScopedThreadBudget scope{ThreadBudget(budget)};
    out->assign(kItems, 0.0);
    for (int repeat = 0; repeat < 5; ++repeat) {
      ParallelFor(0, kItems, 64, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          (*out)[i] += std::sqrt(static_cast<double>(i + repeat));
        }
      });
    }
  };
  std::vector<double> a, b;
  std::thread ta([&] { work(4, &a); });
  std::thread tb([&] { work(2, &b); });
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "index " << i;
  }
}

TEST(NestedParallelismTest, OversubscribedBudgetsDegradeGracefully) {
  // Budgets summing far past the machine: every task asks for hardware
  // concurrency. Helpers are best-effort, so this must complete and cover
  // every index exactly once.
  ScopedThreadBudget outer{ThreadBudget(4)};
  constexpr size_t kTasks = 4;
  constexpr size_t kItems = 20000;
  std::vector<std::atomic<int>> hits(kItems);
  ParallelFor(0, kTasks, 1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      ScopedThreadBudget fit_budget(ThreadBudget(0));  // whole machine each
      ParallelFor(0, kItems, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), static_cast<int>(kTasks));
  }
}

// --- any-width bit-identity of the reductions --------------------------------

TEST(AnyWidthBitIdentityTest, ParallelReduceIdenticalAtEveryWidth) {
  std::vector<double> values(3 * kReduceFlatGrain + 17);
  Rng rng(9);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  auto chunk_sum = [&](size_t begin, size_t end) {
    double total = 0.0;
    for (size_t i = begin; i < end; ++i) total += values[i];
    return total;
  };
  std::vector<double> results;
  for (int width : {1, 2, 3, 8}) {
    ScopedThreadBudget scoped_budget{ThreadBudget(width)};
    results.push_back(
        ParallelReduce(0, values.size(), kReduceFlatGrain, chunk_sum));
  }
  // Including width 1: the serial path walks the same fixed chunks in the
  // same combine order, which is what lets a fit under any budget
  // reproduce a standalone serial fit bit-for-bit.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
  EXPECT_NEAR(results[0],
              std::accumulate(values.begin(), values.end(), 0.0),
              1e-9 * values.size());
}

TEST(AnyWidthBitIdentityTest, ReductionKernelsIdenticalAtEveryWidth) {
  Rng rng(11);
  const DenseMatrix u = DenseMatrix::Random(kRows, kK, &rng, 0.0, 1.0);
  const DenseMatrix v = DenseMatrix::Random(kCols, kK, &rng, 0.0, 1.0);
  const SparseMatrix x = RandomSparse(kRows, kCols, 0.01, &rng);

  DenseMatrix atb[2];
  double frob[2], loss[2];
  int idx = 0;
  for (int width : {1, 4}) {
    ScopedThreadBudget scoped_budget{ThreadBudget(width)};
    atb[idx] = MatMulAtB(u, u);
    frob[idx] = FrobeniusNormSquared(u);
    loss[idx] = FactorizationLossSquared(x, u, v);
    ++idx;
  }
  EXPECT_EQ(atb[1], atb[0]);
  EXPECT_EQ(frob[1], frob[0]);
  EXPECT_EQ(loss[1], loss[0]);
}

TEST(AnyWidthBitIdentityTest, OfflineFitBitIdenticalAcrossBudgets) {
  // Full solver fit (≈1.5k tweet rows: the row-grain reductions engage
  // multi-chunk): bitwise equal factors at every thread budget, not just
  // within tolerance.
  const SmallProblem p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 10;
  config.num_threads = 1;
  const TriClusterResult serial = OfflineTriClusterer(config).Run(p.data, p.sf0);
  for (int threads : {2, 4}) {
    config.num_threads = threads;
    const TriClusterResult parallel =
        OfflineTriClusterer(config).Run(p.data, p.sf0);
    EXPECT_EQ(parallel.iterations, serial.iterations) << threads;
    EXPECT_EQ(parallel.sp, serial.sp) << threads;
    EXPECT_EQ(parallel.su, serial.su) << threads;
    EXPECT_EQ(parallel.sf, serial.sf) << threads;
    EXPECT_EQ(parallel.hp, serial.hp) << threads;
    EXPECT_EQ(parallel.hu, serial.hu) << threads;
  }
}

// --- CampaignEngine::SplitThreadBudget ---------------------------------------

TEST(SplitThreadBudgetTest, EvenSplit) {
  using serving::CampaignEngine;
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(16, 2),
            (std::vector<int>{8, 8}));
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(8, 4),
            (std::vector<int>{2, 2, 2, 2}));
}

TEST(SplitThreadBudgetTest, RemainderSpillsOntoFirstFits) {
  using serving::CampaignEngine;
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(16, 3),
            (std::vector<int>{6, 5, 5}));
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(5, 2),
            (std::vector<int>{3, 2}));
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(7, 4),
            (std::vector<int>{2, 2, 2, 1}));
}

TEST(SplitThreadBudgetTest, MoreFitsThanThreadsDegeneratesToSerialFits) {
  using serving::CampaignEngine;
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(4, 8),
            std::vector<int>(8, 1));
  EXPECT_EQ(CampaignEngine::SplitThreadBudget(1, 3),
            std::vector<int>(3, 1));
}

TEST(SplitThreadBudgetTest, SlicesSumToPoolOrFloorOfOnePerFit) {
  using serving::CampaignEngine;
  for (int pool : {1, 3, 7, 16}) {
    for (size_t fits : {size_t{1}, size_t{2}, size_t{5}, size_t{9}}) {
      const std::vector<int> budgets =
          CampaignEngine::SplitThreadBudget(pool, fits);
      ASSERT_EQ(budgets.size(), fits);
      int sum = 0;
      for (int b : budgets) {
        EXPECT_GE(b, 1);
        sum += b;
      }
      EXPECT_EQ(sum, std::max(pool, static_cast<int>(fits)))
          << "pool " << pool << " fits " << fits;
    }
  }
  EXPECT_TRUE(CampaignEngine::SplitThreadBudget(4, 0).empty());
}

}  // namespace
}  // namespace triclust
