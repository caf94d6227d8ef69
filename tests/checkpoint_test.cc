/// Tests of matrix I/O and online-state checkpointing: a restarted
/// clusterer must continue the stream exactly as the original would.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/online.h"
#include "src/core/stream_state.h"
#include "src/data/snapshots.h"
#include "src/matrix/io.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

// --- dense matrix I/O ---------------------------------------------------------

TEST(MatrixIoTest, RoundTripsExactly) {
  Rng rng(1);
  const DenseMatrix original = DenseMatrix::Random(7, 3, &rng, -5.0, 5.0);
  std::stringstream buffer;
  WriteDenseMatrix(original, &buffer);
  auto loaded = ReadDenseMatrix(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), original);  // bitwise via %.17g
}

TEST(MatrixIoTest, RoundTripsEmptyAndExtremeValues) {
  {
    std::stringstream buffer;
    WriteDenseMatrix(DenseMatrix(0, 0), &buffer);
    auto loaded = ReadDenseMatrix(&buffer);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().rows(), 0u);
  }
  {
    DenseMatrix m({{1e-300, 1e300}, {0.0, -2.5e-17}});
    std::stringstream buffer;
    WriteDenseMatrix(m, &buffer);
    auto loaded = ReadDenseMatrix(&buffer);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value(), m);
  }
}

TEST(MatrixIoTest, RejectsMalformedInput) {
  {
    std::stringstream buffer("not a header\n");
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer("2 2\n1 2\n");  // truncated
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer("1 2\n1 2 3\n");  // wrong arity
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer("1 1\nxyz\n");  // bad value
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer;
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());  // empty stream
  }
}

TEST(MatrixIoTest, RejectsHeadersThatLieAboutSize) {
  const char* const inputs[] = {
      "-1 3\n",                   // negative: once parsed as SIZE_MAX
      "6148914691236517206 3\n",  // rows·cols wraps to 2 in size_t
      "100000000000 3\n1 2 3\n",  // 3e11 doubles declared, one row present
      "3 -1\n",
      "+2 2\n1 2\n3 4\n",
  };
  for (const char* input : inputs) {
    std::stringstream buffer(input);
    const auto loaded = ReadDenseMatrix(&buffer);
    ASSERT_FALSE(loaded.ok()) << input;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << input;
  }
}

/// Test-local reference for the checkpoint format (docs/FORMATS.md §2),
/// formatting every double with snprintf: the library writer must emit
/// exactly these bytes.
std::string ReferenceStateBytes(const StreamState& state) {
  auto num = [](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::string(buffer);
  };
  auto row = [&num](const double* values, size_t n) {
    std::string line;
    for (size_t j = 0; j < n; ++j) {
      if (j > 0) line += " ";
      line += num(values[j]);
    }
    return line + "\n";
  };
  std::string out = "triclust-online-state 1\n";
  out += std::to_string(state.timestep) + " " +
         std::to_string(state.sf_history.size()) + " " +
         std::to_string(state.user_history.size()) + "\n";
  for (const DenseMatrix& sf : state.sf_history) {
    out += std::to_string(sf.rows()) + " " + std::to_string(sf.cols()) +
           "\n";
    for (size_t i = 0; i < sf.rows(); ++i) out += row(sf.Row(i), sf.cols());
  }
  std::vector<size_t> users;
  for (const auto& entry : state.user_history) users.push_back(entry.first);
  std::sort(users.begin(), users.end());
  for (size_t user : users) {
    const auto& history = state.user_history.at(user);
    out += std::to_string(user) + " " + std::to_string(history.size()) +
           "\n";
    for (const auto& r : history) out += row(r.data(), r.size());
  }
  return out;
}

TEST(StreamStateTest, WriteMatchesSnprintfReferenceByteForByte) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 10;
  config.base.track_loss = false;
  OnlineTriClusterer online(config, p.sf0);
  for (size_t s = 0; s < 5; ++s) {
    online.ProcessSnapshot(p.builder.Build(corpus, snapshots[s].tweet_ids,
                                           snapshots[s].last_day));
  }
  StreamState state = online.state();
  ASSERT_GT(state.sf_history.size(), 0u);
  ASSERT_GT(state.user_history.size(), 0u);
  // Values a fit never produces still have to format identically.
  auto& extreme = state.user_history.begin()->second.front();
  extreme[0] = -0.0;
  extreme[1] = std::numeric_limits<double>::denorm_min();
  std::ostringstream written;
  ASSERT_TRUE(state.Write(&written).ok());
  EXPECT_EQ(written.str(), ReferenceStateBytes(state));
}

TEST(StreamStateTest, ReadRejectsTimestepPastIntMax) {
  const size_t k = 3;
  const size_t features = 4;
  // 4294967297 once narrowed to timestep 1; 2147483648 is INT_MAX + 1.
  for (const char* timestep : {"4294967297", "2147483648"}) {
    std::stringstream in(std::string("triclust-online-state 1\n") +
                         timestep + " 0 0\n");
    const auto state = StreamState::Read(&in, features, k);
    ASSERT_FALSE(state.ok()) << timestep;
    EXPECT_EQ(state.status().code(), StatusCode::kParseError) << timestep;
  }
  {
    std::stringstream in("triclust-online-state 1\n2147483647 0 0\n");
    const auto state = StreamState::Read(&in, features, k);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state.value().timestep, std::numeric_limits<int>::max());
  }
}

// --- online checkpointing -------------------------------------------------------

TEST(CheckpointTest, RestartedStreamMatchesUninterruptedStream) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 20;
  config.base.track_loss = false;

  // Reference: uninterrupted run.
  OnlineTriClusterer reference(config, p.sf0);
  std::vector<TriClusterResult> expected;
  for (const Snapshot& snap : snapshots) {
    expected.push_back(reference.ProcessSnapshot(
        p.builder.Build(corpus, snap.tweet_ids, snap.last_day)));
  }

  // Interrupted run: checkpoint after day 3, restore into a fresh object.
  OnlineTriClusterer first(config, p.sf0);
  for (size_t s = 0; s < 4; ++s) {
    first.ProcessSnapshot(
        p.builder.Build(corpus, snapshots[s].tweet_ids,
                        snapshots[s].last_day));
  }
  const std::string path = ::testing::TempDir() + "/online_state.ckpt";
  ASSERT_TRUE(first.SaveState(path).ok());

  OnlineTriClusterer resumed(config, p.sf0);
  ASSERT_TRUE(resumed.RestoreState(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(resumed.timestep(), 4);

  for (size_t s = 4; s < snapshots.size(); ++s) {
    const DatasetMatrices data = p.builder.Build(
        corpus, snapshots[s].tweet_ids, snapshots[s].last_day);
    const TriClusterResult got = resumed.ProcessSnapshot(data);
    EXPECT_EQ(got.sp, expected[s].sp) << "snapshot " << s;
    EXPECT_EQ(got.su, expected[s].su) << "snapshot " << s;
    EXPECT_EQ(got.sf, expected[s].sf) << "snapshot " << s;
  }
}

TEST(CheckpointTest, PreservesUserHistories) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 10;
  config.base.track_loss = false;
  OnlineTriClusterer online(config, p.sf0);
  const DatasetMatrices day0 =
      p.builder.Build(corpus, snapshots[0].tweet_ids, 0);
  online.ProcessSnapshot(day0);

  const std::string path = ::testing::TempDir() + "/online_users.ckpt";
  ASSERT_TRUE(online.SaveState(path).ok());
  OnlineTriClusterer restored(config, p.sf0);
  ASSERT_TRUE(restored.RestoreState(path).ok());
  std::remove(path.c_str());

  for (size_t user_id : day0.user_ids) {
    EXPECT_EQ(restored.UserSentiment(user_id),
              online.UserSentiment(user_id));
  }
}

TEST(CheckpointTest, RejectsWrongFeatureSpace) {
  const auto p = testing_util::MakeSmallProblem();
  OnlineConfig config;
  config.base.max_iterations = 5;
  config.base.track_loss = false;
  OnlineTriClusterer online(config, p.sf0);
  const auto snapshots = SplitByDay(p.dataset.corpus);
  online.ProcessSnapshot(
      p.builder.Build(p.dataset.corpus, snapshots[0].tweet_ids, 0));
  const std::string path = ::testing::TempDir() + "/online_mismatch.ckpt";
  ASSERT_TRUE(online.SaveState(path).ok());

  // A clusterer over a different (smaller) feature space must refuse it.
  const DenseMatrix small_sf0(10, 3, 1.0 / 3.0);
  OnlineTriClusterer other(config, small_sf0);
  const Status status = other.RestoreState(path);
  std::remove(path.c_str());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, RefusesFileCutAtAnyLineBoundary) {
  // The integrity trailer is mandatory: a checkpoint cut off exactly
  // before its trailer line, or at any earlier line boundary, is refused
  // with a diagnostic naming the path, and the current state is kept.
  const auto p = testing_util::MakeSmallProblem();
  OnlineConfig config;
  config.base.max_iterations = 5;
  config.base.track_loss = false;
  OnlineTriClusterer online(config, p.sf0);
  const auto snapshots = SplitByDay(p.dataset.corpus);
  online.ProcessSnapshot(
      p.builder.Build(p.dataset.corpus, snapshots[0].tweet_ids, 0));
  const std::string path = ::testing::TempDir() + "/online_cut.ckpt";
  ASSERT_TRUE(online.SaveState(path).ok());
  std::string saved;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    saved = bytes.str();
  }
  const size_t trailer_start = saved.rfind("triclust-crc32 ");
  ASSERT_NE(trailer_start, std::string::npos);
  ASSERT_EQ(saved[trailer_start - 1], '\n');

  OnlineTriClusterer target(config, p.sf0);
  std::ostringstream before;
  ASSERT_TRUE(target.state().Write(&before).ok());
  size_t cuts = 0;
  for (size_t cut = 0; cut <= trailer_start; ++cut) {
    if (cut > 0 && saved[cut - 1] != '\n') continue;  // line boundaries only
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << saved.substr(0, cut);
    }
    const Status status = target.RestoreState(path);
    ASSERT_FALSE(status.ok()) << "cut at byte " << cut;
    EXPECT_EQ(status.code(), StatusCode::kParseError) << "cut at byte " << cut;
    EXPECT_NE(status.message().find(path + ": no integrity trailer"),
              std::string::npos)
        << status.ToString();
    ++cuts;
  }
  std::remove(path.c_str());
  EXPECT_GT(cuts, 2u);
  std::ostringstream after;
  ASSERT_TRUE(target.state().Write(&after).ok());
  EXPECT_EQ(after.str(), before.str());
  EXPECT_EQ(target.timestep(), 0);
}

TEST(CheckpointTest, MissingFileFailsCleanly) {
  const auto p = testing_util::MakeSmallProblem();
  OnlineConfig config;
  OnlineTriClusterer online(config, p.sf0);
  EXPECT_EQ(online.RestoreState("/nonexistent/state.ckpt").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace triclust
