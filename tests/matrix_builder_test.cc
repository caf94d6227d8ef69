#include "src/data/matrix_builder.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/text/tokenizer.h"
#include "src/text/vectorizer.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

Corpus MiniCorpus() {
  Corpus c;
  const size_t alice = c.AddUser("alice", Sentiment::kPositive);
  const size_t bob = c.AddUser("bob", Sentiment::kNegative);
  const size_t carol = c.AddUser("carol", Sentiment::kPositive);
  c.AddTweet(alice, 0, "love gmo labeling", Sentiment::kPositive);   // 0
  c.AddTweet(bob, 0, "hate gmo labeling", Sentiment::kNegative);     // 1
  c.AddTweet(alice, 1, "labeling safe food", Sentiment::kPositive);  // 2
  // carol retweets alice's tweet 0 on day 1:
  c.AddTweet(carol, 1, "love gmo labeling", Sentiment::kPositive, 0);  // 3
  return c;
}

TEST(MatrixBuilderTest, DimensionsConsistent) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  EXPECT_EQ(d.num_tweets(), 4u);
  EXPECT_EQ(d.num_users(), 3u);
  EXPECT_EQ(d.xp.rows(), 4u);
  EXPECT_EQ(d.xu.rows(), 3u);
  EXPECT_EQ(d.xu.cols(), d.xp.cols());
  EXPECT_EQ(d.xr.rows(), 3u);
  EXPECT_EQ(d.xr.cols(), 4u);
  EXPECT_EQ(d.gu.num_nodes(), 3u);
  EXPECT_EQ(d.tweet_labels.size(), 4u);
  EXPECT_EQ(d.user_labels.size(), 3u);
}

TEST(MatrixBuilderTest, XuIsSumOfUserTweetRows) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  // alice (user row 0) authored tweet rows 0 and 2.
  for (size_t f = 0; f < d.xu.cols(); ++f) {
    EXPECT_NEAR(d.xu.At(0, f), d.xp.At(0, f) + d.xp.At(2, f), 1e-12);
  }
}

TEST(MatrixBuilderTest, XrHasPostingAndRetweetIncidence) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  // Row order follows first appearance: alice=0, bob=1, carol=2.
  EXPECT_DOUBLE_EQ(d.xr.At(0, 0), 1.0);  // alice posts tweet 0
  EXPECT_DOUBLE_EQ(d.xr.At(1, 1), 1.0);  // bob posts tweet 1
  EXPECT_DOUBLE_EQ(d.xr.At(2, 3), 1.0);  // carol posts the retweet
  EXPECT_DOUBLE_EQ(d.xr.At(2, 0), 1.0);  // …and is linked to the original
  EXPECT_DOUBLE_EQ(d.xr.At(1, 0), 0.0);
}

TEST(MatrixBuilderTest, GuLinksRetweeterToOriginalAuthor) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  EXPECT_EQ(d.gu.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(d.gu.adjacency().At(2, 0), 1.0);  // carol—alice
  EXPECT_DOUBLE_EQ(d.gu.adjacency().At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(d.gu.adjacency().At(1, 0), 0.0);
}

TEST(MatrixBuilderTest, LabelsAlignWithRows) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  EXPECT_EQ(d.tweet_labels[1], Sentiment::kNegative);
  EXPECT_EQ(d.user_labels[0], Sentiment::kPositive);  // alice
  EXPECT_EQ(d.user_labels[1], Sentiment::kNegative);  // bob
}

TEST(MatrixBuilderTest, SnapshotSubsetKeepsVocabulary) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices full = builder.BuildAll(c);
  const DatasetMatrices day1 = builder.Build(c, c.TweetIdsInDayRange(1, 1));
  EXPECT_EQ(day1.num_tweets(), 2u);
  EXPECT_EQ(day1.num_users(), 2u);  // alice and carol
  EXPECT_EQ(day1.xp.cols(), full.xp.cols());  // shared feature space
}

TEST(MatrixBuilderTest, SnapshotRetweetOfOutOfWindowOriginal) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  // Day-1 window contains the retweet (id 3) but not its original (id 0):
  const DatasetMatrices d = builder.Build(c, c.TweetIdsInDayRange(1, 1));
  // Posting incidence only; no crash, no edge to a missing tweet row.
  size_t carol_row = 2;  // appearance order within day 1: alice(2)=0, carol=1
  carol_row = 1;
  EXPECT_DOUBLE_EQ(d.xr.At(carol_row, 1), 1.0);
  // Gu edge still exists because both users are active on day 1.
  EXPECT_EQ(d.gu.num_edges(), 1u);
}

TEST(MatrixBuilderTest, TemporalUserLabels) {
  Corpus c = MiniCorpus();
  c.SetUserSentimentAt(0, 1, Sentiment::kNegative);  // alice flips on day 1
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d0 =
      builder.Build(c, c.TweetIdsInDayRange(0, 0), /*user_label_day=*/0);
  const DatasetMatrices d1 =
      builder.Build(c, c.TweetIdsInDayRange(1, 1), /*user_label_day=*/1);
  EXPECT_EQ(d0.user_labels[0], Sentiment::kPositive);
  EXPECT_EQ(d1.user_labels[0], Sentiment::kNegative);
}

TEST(MatrixBuilderTest, WorksOnSyntheticCampaign) {
  const auto p = testing_util::MakeSmallProblem();
  EXPECT_GT(p.data.xp.nnz(), 1000u);
  EXPECT_GT(p.data.num_features(), 100u);
  EXPECT_GT(p.data.gu.num_edges(), 10u);
  // Every tweet row must connect to exactly its author (+ possibly an
  // original): column sums of Xr ≥ 1.
  const std::vector<double> colsum = p.data.xr.ColumnSums();
  for (double v : colsum) EXPECT_GE(v, 1.0);
}

// --- incremental ingestion ----------------------------------------------------

void ExpectSameSparse(const SparseMatrix& a, const SparseMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

void ExpectSameDataset(const DatasetMatrices& got,
                       const DatasetMatrices& expected) {
  ExpectSameSparse(got.xp, expected.xp);
  ExpectSameSparse(got.xu, expected.xu);
  ExpectSameSparse(got.xr, expected.xr);
  ExpectSameSparse(got.gu.adjacency(), expected.gu.adjacency());
  EXPECT_EQ(got.tweet_ids, expected.tweet_ids);
  EXPECT_EQ(got.user_ids, expected.user_ids);
  EXPECT_EQ(got.tweet_labels, expected.tweet_labels);
  EXPECT_EQ(got.user_labels, expected.user_labels);
}

TEST(MatrixBuilderTest, EmitSnapshotMatchesBuildBitwise) {
  const auto d = testing_util::SmallCampaign();
  MatrixBuilder builder;
  builder.Fit(d.corpus);
  for (const Snapshot& day : SplitByDay(d.corpus)) {
    const DatasetMatrices expected =
        builder.Build(d.corpus, day.tweet_ids, day.last_day);
    builder.Append(d.corpus, day.tweet_ids);
    EXPECT_EQ(builder.num_pending(), day.tweet_ids.size());
    const DatasetMatrices got =
        builder.EmitSnapshot(d.corpus, day.last_day);
    EXPECT_EQ(builder.num_pending(), 0u);
    ExpectSameDataset(got, expected);
  }
}

TEST(MatrixBuilderTest, AppendAccumulatesAcrossBatches) {
  // Several small Ingest-style batches must emit the same snapshot as one
  // Build over the concatenated ids.
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  builder.Append(c, {0, 1});
  builder.Append(c, 2);
  builder.Append(c, {3});
  EXPECT_EQ(builder.num_pending(), 4u);
  const DatasetMatrices got = builder.EmitSnapshot(c);
  const DatasetMatrices expected = builder.Build(c, {0, 1, 2, 3});
  ExpectSameDataset(got, expected);
}

TEST(MatrixBuilderTest, AppendTokenizesTweetsArrivedAfterFit) {
  Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const size_t vocab = builder.vocabulary().size();
  // A tweet that arrives after Fit: in-vocabulary tokens land in the fixed
  // feature space, unseen ones drop out.
  const size_t dave = c.AddUser("dave");
  const size_t late = c.AddTweet(dave, 2, "love labeling brandnewword");
  builder.Append(c, late);
  const DatasetMatrices got = builder.EmitSnapshot(c, -1);
  EXPECT_EQ(got.num_tweets(), 1u);
  EXPECT_EQ(got.xp.cols(), vocab);
  EXPECT_GT(got.xp.RowNnz(0), 0u);   // known tokens mapped
  EXPECT_LE(got.xp.RowNnz(0), 2u);   // "brandnewword" dropped
  EXPECT_EQ(got.user_ids, (std::vector<size_t>{dave}));
}

TEST(MatrixBuilderTest, EmitEmptyPendingYieldsEmptySnapshot) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices got = builder.EmitSnapshot(c);
  EXPECT_EQ(got.num_tweets(), 0u);
  EXPECT_EQ(got.num_users(), 0u);
  EXPECT_EQ(got.xp.cols(), builder.vocabulary().size());
}

TEST(MatrixBuilderTest, RefitStartsAnEmptyPendingSnapshot) {
  // Rows appended under one fit index that fit's feature space; a re-fit
  // must not carry them into the next snapshot.
  const auto campaign = testing_util::SmallCampaign();
  const Corpus small = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(campaign.corpus);
  std::vector<size_t> first_50(50);
  for (size_t i = 0; i < first_50.size(); ++i) first_50[i] = i;
  builder.Append(campaign.corpus, first_50);
  ASSERT_EQ(builder.num_pending(), 50u);
  builder.Fit(small);
  ASSERT_LT(builder.vocabulary().size(), 50u);
  EXPECT_EQ(builder.num_pending(), 0u);
  builder.Append(small, {2, 3});
  const DatasetMatrices got = builder.EmitSnapshot(small);
  ExpectSameDataset(got, builder.Build(small, {2, 3}));

  builder.Append(small, {0, 1});
  builder.FitStreamBegin();
  EXPECT_EQ(builder.num_pending(), 0u);
}

/// Feeds every tweet of `corpus` through the one streaming-fit pass.
void StreamFit(const Corpus& corpus, MatrixBuilder* builder) {
  builder->FitStreamBegin();
  for (const Tweet& t : corpus.tweets()) builder->FitStreamCount(t.text);
  builder->FitStreamFinish();
}

TEST(MatrixBuilderTest, StreamedFitMatchesInMemoryFit) {
  std::vector<SyntheticDataset> campaigns;
  campaigns.push_back(testing_util::SmallCampaign());
  campaigns.push_back(GenerateSynthetic(Prop30LikeConfig(1)));
  for (const SyntheticDataset& d : campaigns) {
    MatrixBuilder whole;
    whole.Fit(d.corpus);
    MatrixBuilder streamed;
    StreamFit(d.corpus, &streamed);
    ASSERT_EQ(streamed.vocabulary().tokens(), whole.vocabulary().tokens());

    // Document frequencies, at the vectorizer the builders wrap, with and
    // without a document-frequency floor.
    const Tokenizer tokenizer;
    std::vector<std::vector<std::string>> docs;
    for (const Tweet& t : d.corpus.tweets()) {
      docs.push_back(tokenizer.Tokenize(t.text));
    }
    for (const size_t min_df : {1, 2}) {
      VectorizerOptions options;
      options.min_document_frequency = min_df;
      DocumentVectorizer fit(options);
      fit.Fit(docs);
      DocumentVectorizer stream_fit(options);
      stream_fit.FitStreamBegin();
      for (const auto& doc : docs) {
        stream_fit.FitStreamCount({doc.begin(), doc.end()});
      }
      stream_fit.FitStreamFinish();
      ASSERT_EQ(stream_fit.vocabulary().tokens(), fit.vocabulary().tokens());
      EXPECT_EQ(stream_fit.num_fit_documents(), fit.num_fit_documents());
      for (size_t f = 0; f < fit.vocabulary().size(); ++f) {
        ASSERT_EQ(stream_fit.DocumentFrequency(f), fit.DocumentFrequency(f));
      }
    }

    // Every day's snapshot, byte for byte.
    for (const Snapshot& day : SplitByDay(d.corpus)) {
      whole.Append(d.corpus, day.tweet_ids);
      streamed.Append(d.corpus, day.tweet_ids);
      const DatasetMatrices want = whole.EmitSnapshot(d.corpus, day.last_day);
      const DatasetMatrices got =
          streamed.EmitSnapshot(d.corpus, day.last_day);
      ExpectSameDataset(got, want);
      ASSERT_EQ(got.xp.values().size(), want.xp.values().size());
      ASSERT_EQ(got.xu.values().size(), want.xu.values().size());
      EXPECT_EQ(std::memcmp(got.xp.values().data(), want.xp.values().data(),
                            got.xp.values().size() * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(got.xu.values().data(), want.xu.values().data(),
                            got.xu.values().size() * sizeof(double)),
                0);
    }
  }
}

// --- snapshots ---------------------------------------------------------------

TEST(SnapshotsTest, SplitByDayCoversEveryTweetOnce) {
  const Corpus c = MiniCorpus();
  const std::vector<Snapshot> snaps = SplitByDay(c);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].tweet_ids, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(snaps[1].tweet_ids, (std::vector<size_t>{2, 3}));
  EXPECT_EQ(snaps[0].first_day, 0);
  EXPECT_EQ(snaps[1].last_day, 1);
}

TEST(SnapshotsTest, SplitByWindowGroupsDays) {
  const auto d = testing_util::SmallCampaign();
  const std::vector<Snapshot> snaps = SplitByWindow(d.corpus, 3);
  ASSERT_EQ(snaps.size(), 4u);  // 10 days → 4 windows (3+3+3+1)
  size_t total = 0;
  for (const auto& s : snaps) total += s.size();
  EXPECT_EQ(total, d.corpus.num_tweets());
  EXPECT_EQ(snaps[3].first_day, 9);
  EXPECT_EQ(snaps[3].last_day, 9);
}

TEST(SnapshotsTest, EmptyDaysYieldEmptySnapshots) {
  Corpus c;
  const size_t u = c.AddUser("u");
  c.AddTweet(u, 0, "first");
  c.AddTweet(u, 3, "last");
  const std::vector<Snapshot> snaps = SplitByDay(c);
  ASSERT_EQ(snaps.size(), 4u);
  EXPECT_EQ(snaps[1].size(), 0u);
  EXPECT_EQ(snaps[2].size(), 0u);
}

}  // namespace
}  // namespace triclust
