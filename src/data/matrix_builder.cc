#include "src/data/matrix_builder.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/logging.h"

namespace triclust {

MatrixBuilder::MatrixBuilder(TokenizerOptions tokenizer_options,
                             VectorizerOptions vectorizer_options)
    : tokenizer_(tokenizer_options), vectorizer_(vectorizer_options) {}

void MatrixBuilder::Fit(const Corpus& corpus) {
  std::string buffer;
  std::vector<std::string_view> tokens;
  feature_ids_by_tweet_ = vectorizer_.FitFeatureIds(
      corpus.num_tweets(),
      [&](size_t id) -> const std::vector<std::string_view>& {
        tokenizer_.Tokenize(corpus.tweet(id).text, &buffer, &tokens);
        return tokens;
      });
  fitted_ = true;
  ClearPending();
}

void MatrixBuilder::ClearPending() {
  pending_ids_.clear();
  pending_rows_.clear();
}

void MatrixBuilder::FitStreamBegin() {
  feature_ids_by_tweet_.clear();
  fitted_ = false;
  ClearPending();
  vectorizer_.FitStreamBegin();
}

void MatrixBuilder::FitStreamCount(const std::string& text) {
  std::string buffer;
  std::vector<std::string_view> tokens;
  tokenizer_.Tokenize(text, &buffer, &tokens);
  vectorizer_.FitStreamCount(tokens);
}

void MatrixBuilder::FitStreamFinish() {
  vectorizer_.FitStreamFinish();
  fitted_ = true;
}

DatasetMatrices MatrixBuilder::Assemble(const Corpus& corpus,
                                        std::vector<size_t> tweet_ids,
                                        SparseMatrix xp,
                                        int user_label_day) const {
  DatasetMatrices out;
  out.tweet_ids = std::move(tweet_ids);
  out.xp = std::move(xp);

  // Row maps, indexed by corpus id; kAbsent marks ids outside the subset.
  constexpr size_t kAbsent = SIZE_MAX;
  std::vector<size_t> tweet_row(corpus.num_tweets(), kAbsent);
  for (size_t i = 0; i < out.tweet_ids.size(); ++i) {
    TRICLUST_CHECK_LT(out.tweet_ids[i], corpus.num_tweets());
    tweet_row[out.tweet_ids[i]] = i;
  }

  std::vector<size_t> user_row(corpus.num_users(), kAbsent);
  for (size_t tweet_id : out.tweet_ids) {
    const size_t author = corpus.tweet(tweet_id).user;
    if (user_row[author] == kAbsent) {
      user_row[author] = out.user_ids.size();
      out.user_ids.push_back(author);
    }
  }

  // Xu: user–feature = sum of the user's tweet rows.
  {
    SparseMatrix::Builder builder(out.user_ids.size(), out.xp.cols());
    const auto& row_ptr = out.xp.row_ptr();
    const auto& col_idx = out.xp.col_idx();
    const auto& values = out.xp.values();
    for (size_t i = 0; i < out.tweet_ids.size(); ++i) {
      const size_t urow = user_row[corpus.tweet(out.tweet_ids[i]).user];
      for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        builder.Add(urow, col_idx[p], values[p]);
      }
    }
    out.xu = builder.Build();
  }

  // Xr: posting incidence, plus retweet incidence onto in-subset originals.
  // Gu: one unit of weight per retweet event whose two endpoints are both
  // active in the subset.
  {
    SparseMatrix::Builder builder(out.user_ids.size(), out.tweet_ids.size());
    std::vector<UserGraph::Edge> edges;
    for (size_t i = 0; i < out.tweet_ids.size(); ++i) {
      const Tweet& t = corpus.tweet(out.tweet_ids[i]);
      const size_t urow = user_row[t.user];
      builder.Add(urow, i, 1.0);
      if (t.IsRetweet()) {
        const Tweet& original =
            corpus.tweet(static_cast<size_t>(t.retweet_of));
        const size_t orig_row = tweet_row[original.id];
        if (orig_row != kAbsent) builder.Add(urow, orig_row, 1.0);
        const size_t author_row = user_row[original.user];
        if (author_row != kAbsent && author_row != urow) {
          edges.push_back({urow, author_row, 1.0});
        }
      }
    }
    out.xr = builder.Build();
    out.gu = UserGraph::FromEdges(out.user_ids.size(), edges);
  }

  // Ground truth.
  out.tweet_labels.reserve(out.tweet_ids.size());
  for (size_t tweet_id : out.tweet_ids) {
    out.tweet_labels.push_back(corpus.tweet(tweet_id).label);
  }
  out.user_labels.reserve(out.user_ids.size());
  for (size_t user_id : out.user_ids) {
    out.user_labels.push_back(
        user_label_day >= 0
            ? corpus.UserSentimentAt(user_id, user_label_day)
            : corpus.user(user_id).label);
  }
  return out;
}

DatasetMatrices MatrixBuilder::Build(const Corpus& corpus,
                                     const std::vector<size_t>& tweet_ids,
                                     int user_label_day) const {
  TRICLUST_CHECK(fitted_);
  // Xp: tweet–feature.
  std::vector<const DocumentVectorizer::FeatureIds*> docs;
  docs.reserve(tweet_ids.size());
  for (size_t tweet_id : tweet_ids) {
    TRICLUST_CHECK_LT(tweet_id, feature_ids_by_tweet_.size());
    docs.push_back(&feature_ids_by_tweet_[tweet_id]);
  }
  return Assemble(corpus, tweet_ids, vectorizer_.Transform(docs),
                  user_label_day);
}

DatasetMatrices MatrixBuilder::BuildAll(const Corpus& corpus) const {
  std::vector<size_t> all(corpus.num_tweets());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return Build(corpus, all);
}

void MatrixBuilder::Append(const Corpus& corpus, size_t tweet_id) {
  Append(corpus, std::vector<size_t>{tweet_id});
}

void MatrixBuilder::Append(const Corpus& corpus,
                           const std::vector<size_t>& tweet_ids) {
  TRICLUST_CHECK(fitted_);
  if (tweet_ids.empty()) return;
  // Vectorize the whole batch in one Transform. Per-document tf-idf
  // weighting and L2 normalization are independent of the rest of the
  // batch, so each row is identical to the one Build() — or a
  // one-tweet Append — would produce.
  // Tweets that arrived after Fit() are tokenized on the fly (OOV tokens
  // drop out); `late` holds their ids for the batch, reserved up front so
  // the pointers in `docs` stay valid.
  std::vector<DocumentVectorizer::FeatureIds> late;
  late.reserve(tweet_ids.size());
  std::string buffer;
  std::vector<std::string_view> tokens;
  std::vector<const DocumentVectorizer::FeatureIds*> docs;
  docs.reserve(tweet_ids.size());
  for (size_t tweet_id : tweet_ids) {
    TRICLUST_CHECK_LT(tweet_id, corpus.num_tweets());
    if (tweet_id < feature_ids_by_tweet_.size()) {
      docs.push_back(&feature_ids_by_tweet_[tweet_id]);
    } else {
      tokenizer_.Tokenize(corpus.tweet(tweet_id).text, &buffer, &tokens);
      late.push_back(vectorizer_.FeatureIdsOf(tokens));
      docs.push_back(&late.back());
    }
  }
  const SparseMatrix rows = vectorizer_.Transform(docs);
  const auto& row_ptr = rows.row_ptr();
  for (size_t i = 0; i < tweet_ids.size(); ++i) {
    const auto begin = static_cast<ptrdiff_t>(row_ptr[i]);
    const auto end = static_cast<ptrdiff_t>(row_ptr[i + 1]);
    PendingRow pending;
    pending.cols.assign(rows.col_idx().begin() + begin,
                        rows.col_idx().begin() + end);
    pending.values.assign(rows.values().begin() + begin,
                          rows.values().begin() + end);
    pending_ids_.push_back(tweet_ids[i]);
    pending_rows_.push_back(std::move(pending));
  }
}

DatasetMatrices MatrixBuilder::EmitSnapshot(const Corpus& corpus,
                                            int user_label_day) {
  TRICLUST_CHECK(fitted_);
  SparseMatrix::Builder builder(pending_rows_.size(),
                                vectorizer_.vocabulary().size());
  for (size_t i = 0; i < pending_rows_.size(); ++i) {
    const PendingRow& row = pending_rows_[i];
    for (size_t p = 0; p < row.cols.size(); ++p) {
      builder.Add(i, row.cols[p], row.values[p]);
    }
  }
  DatasetMatrices out = Assemble(corpus, std::move(pending_ids_),
                                 builder.Build(), user_label_day);
  ClearPending();
  return out;
}

}  // namespace triclust
