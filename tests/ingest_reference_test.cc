// Bitwise references for the ingest path. The reference functions below
// are the string-based tokenizer, fit and transform that the id-based path
// replaced, kept verbatim in behaviour: the tokenizer splits on whitespace
// and lowercases every token into its own std::string, the fit counts
// document frequency through a per-document string set, and the transform
// looks up every token by string. The production path (Tokenizer's
// view loop, the interned fit, per-tweet feature ids, Transform over ids)
// must reproduce their tokens, vocabulary, document frequencies and CSR
// arrays bit for bit.

#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/matrix_builder.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/text/stopwords.h"
#include "src/text/tokenizer.h"
#include "src/text/vectorizer.h"
#include "src/text/vocabulary.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

// --- reference tokenizer -----------------------------------------------------

constexpr std::array<std::string_view, 12> kRefPositive = {
    ":)", ":-)", ":d", ":-d", "=)", ";)", ";-)",
    ":]", "=d", "<3", "(:", "^_^"};
constexpr std::array<std::string_view, 10> kRefNegative = {
    ":(", ":-(", ":'(", "=(", ":[", "d:", ":/", ":-/", "):", ">:("};

bool RefIsPositiveEmoticon(std::string_view token) {
  const std::string lower = ToLowerAscii(token);
  for (std::string_view e : kRefPositive) {
    if (lower == e) return true;
  }
  return false;
}

bool RefIsNegativeEmoticon(std::string_view token) {
  const std::string lower = ToLowerAscii(token);
  for (std::string_view e : kRefNegative) {
    if (lower == e) return true;
  }
  return false;
}

bool RefIsUrlToken(std::string_view token) {
  return StartsWith(token, "http://") || StartsWith(token, "https://") ||
         StartsWith(token, "www.");
}

bool RefIsAllDigits(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string_view RefStripOuterPunct(std::string_view token) {
  size_t begin = 0;
  size_t end = token.size();
  auto is_word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (begin < end && !is_word_char(token[begin])) ++begin;
  while (end > begin && !is_word_char(token[end - 1])) --end;
  return token.substr(begin, end - begin);
}

std::vector<std::string> RefTokenize(std::string_view text,
                                     const TokenizerOptions& options) {
  std::vector<std::string> out;
  for (const std::string& raw : SplitWhitespace(text)) {
    std::string token = options.lowercase ? ToLowerAscii(raw) : raw;
    if (options.strip_retweet_marker && (token == "rt" || raw == "RT")) {
      continue;
    }
    if (options.strip_urls && RefIsUrlToken(token)) continue;
    if (options.map_emoticons) {
      if (RefIsPositiveEmoticon(token)) {
        out.emplace_back(kPositiveEmoticonToken);
        continue;
      }
      if (RefIsNegativeEmoticon(token)) {
        out.emplace_back(kNegativeEmoticonToken);
        continue;
      }
    }
    if (!token.empty() && token[0] == '#') {
      if (!options.keep_hashtags) continue;
      const std::string_view body =
          RefStripOuterPunct(std::string_view(token).substr(1));
      if (body.empty()) continue;
      out.push_back("#" + std::string(body));
      continue;
    }
    if (!token.empty() && token[0] == '@') {
      if (!options.keep_mentions) continue;
      const std::string_view body =
          RefStripOuterPunct(std::string_view(token).substr(1));
      if (body.empty()) continue;
      out.push_back("@" + std::string(body));
      continue;
    }
    const std::string_view word = RefStripOuterPunct(token);
    if (word.size() < options.min_token_length) continue;
    if (options.strip_numbers && RefIsAllDigits(word)) continue;
    out.emplace_back(word);
  }
  return out;
}

// --- reference fit / transform / assemble -----------------------------------

struct RefFit {
  Vocabulary vocabulary;
  std::vector<size_t> document_frequency;
  size_t num_documents = 0;
};

RefFit RefFitDocuments(const std::vector<std::vector<std::string>>& documents,
                       const VectorizerOptions& options) {
  std::unordered_map<std::string, size_t> df;
  for (const auto& doc : documents) {
    std::unordered_map<std::string, bool> seen;
    for (const std::string& token : doc) {
      if (options.remove_stopwords && IsStopWord(token)) continue;
      if (!seen.emplace(token, true).second) continue;
      ++df[token];
    }
  }
  RefFit fit;
  for (const auto& doc : documents) {
    for (const std::string& token : doc) {
      if (options.remove_stopwords && IsStopWord(token)) continue;
      const auto it = df.find(token);
      if (it == df.end() || it->second < options.min_document_frequency) {
        continue;
      }
      if (!fit.vocabulary.Contains(token)) {
        fit.vocabulary.GetOrAdd(token);
        fit.document_frequency.push_back(it->second);
      }
    }
  }
  fit.num_documents = documents.size();
  return fit;
}

SparseMatrix RefTransform(const RefFit& fit,
                          const std::vector<std::vector<std::string>>& docs,
                          const VectorizerOptions& options) {
  SparseMatrix::Builder builder(docs.size(), fit.vocabulary.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    std::unordered_map<size_t, double> counts;
    for (const std::string& token : docs[d]) {
      const ptrdiff_t id = fit.vocabulary.IdOf(token);
      if (id < 0) continue;
      counts[static_cast<size_t>(id)] += 1.0;
    }
    double norm_sq = 0.0;
    for (auto& [id, count] : counts) {
      double w = count;
      if (options.weighting == TermWeighting::kTfIdf) {
        const double n = static_cast<double>(fit.num_documents);
        const double df = static_cast<double>(fit.document_frequency[id]);
        w *= std::log((1.0 + n) / (1.0 + df)) + 1.0;
      }
      counts[id] = w;
      norm_sq += w * w;
    }
    const double inv_norm =
        (options.l2_normalize && norm_sq > 0.0) ? 1.0 / std::sqrt(norm_sq)
                                                : 1.0;
    for (const auto& [id, w] : counts) builder.Add(d, id, w * inv_norm);
  }
  return builder.Build();
}

/// Xu and Xr of the subset, through the hash-map row maps.
void RefAssemble(const Corpus& corpus, const std::vector<size_t>& tweet_ids,
                 const SparseMatrix& xp, SparseMatrix* xu, SparseMatrix* xr) {
  std::unordered_map<size_t, size_t> tweet_row;
  for (size_t i = 0; i < tweet_ids.size(); ++i) tweet_row[tweet_ids[i]] = i;
  std::unordered_map<size_t, size_t> user_row;
  size_t num_users = 0;
  for (size_t id : tweet_ids) {
    if (user_row.emplace(corpus.tweet(id).user, num_users).second) {
      ++num_users;
    }
  }
  SparseMatrix::Builder xu_builder(num_users, xp.cols());
  for (size_t i = 0; i < tweet_ids.size(); ++i) {
    const size_t urow = user_row.at(corpus.tweet(tweet_ids[i]).user);
    for (size_t p = xp.row_ptr()[i]; p < xp.row_ptr()[i + 1]; ++p) {
      xu_builder.Add(urow, xp.col_idx()[p], xp.values()[p]);
    }
  }
  *xu = xu_builder.Build();
  SparseMatrix::Builder xr_builder(num_users, tweet_ids.size());
  for (size_t i = 0; i < tweet_ids.size(); ++i) {
    const Tweet& t = corpus.tweet(tweet_ids[i]);
    const size_t urow = user_row.at(t.user);
    xr_builder.Add(urow, i, 1.0);
    if (t.IsRetweet()) {
      const auto orig = tweet_row.find(static_cast<size_t>(t.retweet_of));
      if (orig != tweet_row.end()) xr_builder.Add(urow, orig->second, 1.0);
    }
  }
  *xr = xr_builder.Build();
}

// --- comparison helpers ------------------------------------------------------

void ExpectBitEqualSparse(const SparseMatrix& got, const SparseMatrix& want,
                          const char* what) {
  EXPECT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(got.row_ptr(), want.row_ptr()) << what;
  EXPECT_EQ(got.col_idx(), want.col_idx()) << what;
  ASSERT_EQ(got.values().size(), want.values().size()) << what;
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        got.values().size() * sizeof(double)),
            0)
      << what;
}

/// Tweets with the constructs the tokenizer special-cases, glued from a
/// fixed piece list (and random bytes) by a seeded generator.
std::vector<std::string> AdversarialTexts(size_t count, uint64_t seed) {
  static const std::vector<std::string> kPieces = {
      ":D", ":d", ":-D", ":)", ":(", "D:", "<3", "^_^", ">:(", ":'(", "RT",
      "Rt", "rt", "rT", "http://t.co/x", "HTTPS://A.b", "www.X.org", "wwwx",
      "#", "#!", "#Yes!!", "#!!no", "#a#b", "@", "@Bob,", "@@x", "@_", "42",
      "007x", "3.14", "-12-", "don't", "Agri-Tech", "''quoted''", "a", "ab",
      "ABC", "the", "The", "AND", "x_y", "_", "__init__", "caf\xc3\xa9",
      "\xff\xfe", "\x80word", "na\xefve!", "!!!", "...", "(:", "=)",
      "SHOUT!", "mIxEd", "\xc3\x89T\xc3\x89"};
  static const std::vector<std::string> kSeparators = {" ", "  ", "\t", "\n",
                                                       "\r\n", "\v", "\f"};
  Rng rng(seed);
  std::vector<std::string> texts;
  for (size_t i = 0; i < count; ++i) {
    std::string text;
    const size_t n = rng.NextUint64Below(12);
    if (rng.Bernoulli(0.3)) text += kSeparators[rng.NextUint64Below(7)];
    for (size_t p = 0; p < n; ++p) {
      if (rng.Bernoulli(0.1)) {
        // A short run of arbitrary bytes (whitespace and NUL included).
        const size_t len = 1 + rng.NextUint64Below(4);
        for (size_t b = 0; b < len; ++b) {
          text += static_cast<char>(rng.NextUint64Below(256));
        }
      } else {
        text += kPieces[rng.NextUint64Below(kPieces.size())];
      }
      text += kSeparators[rng.NextUint64Below(kSeparators.size())];
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

std::vector<TokenizerOptions> TokenizerVariants() {
  std::vector<TokenizerOptions> variants(1);
  TokenizerOptions o;
  o.lowercase = false;
  variants.push_back(o);
  o = {};
  o.keep_mentions = true;
  o.keep_hashtags = false;
  variants.push_back(o);
  o = {};
  o.strip_urls = false;
  o.map_emoticons = false;
  o.strip_retweet_marker = false;
  variants.push_back(o);
  o = {};
  o.min_token_length = 0;
  o.strip_numbers = false;
  o.keep_mentions = true;
  o.lowercase = false;
  variants.push_back(o);
  o = {};
  o.min_token_length = 4;
  variants.push_back(o);
  return variants;
}

std::vector<SyntheticDataset> Campaigns() {
  std::vector<SyntheticDataset> out;
  out.push_back(testing_util::SmallCampaign());
  out.push_back(GenerateSynthetic(Prop30LikeConfig(1)));
  return out;
}

// --- tests ------------------------------------------------------------------

TEST(IngestReferenceTest, TokenizerMatchesReferenceOnEdgeStrings) {
  const std::vector<std::string> edges = {
      ":D", ":-D", "RT", "Rt", "rt", "RT RT rt", "RT:", "http://t.co/abc",
      "HTTP://T.CO/ABC", "https://x", "www.example.com", "#", "#!",
      "#Prop37!", "#!!yes", "#?!", "@", "@Bob,", "@bob's", "@!!x", "12345",
      "12ab", "a\tb\tc", "tab\there", "caf\xc3\xa9 CAF\xc3\x89",
      "\xff\xfe\xfd", "\x80", "x\x80y", "  leading and trailing  ", "",
      "   ", "don't Agri-Tech ...", ":'( :( d: D: ):", "<3 ^_^ (: =D",
      std::string("nul\0byte", 8)};
  for (const TokenizerOptions& options : TokenizerVariants()) {
    const Tokenizer tokenizer(options);
    for (const std::string& text : edges) {
      EXPECT_EQ(tokenizer.Tokenize(text), RefTokenize(text, options))
          << "text: " << text;
    }
    for (const std::string& text : AdversarialTexts(3000, 17)) {
      ASSERT_EQ(tokenizer.Tokenize(text), RefTokenize(text, options))
          << "text: " << text;
    }
  }
}

TEST(IngestReferenceTest, TokenizerMatchesReferenceOnEveryTweet) {
  for (const SyntheticDataset& d : Campaigns()) {
    for (const TokenizerOptions& options : TokenizerVariants()) {
      const Tokenizer tokenizer(options);
      std::string buffer;
      std::vector<std::string_view> views;
      for (const Tweet& t : d.corpus.tweets()) {
        const std::vector<std::string> want = RefTokenize(t.text, options);
        ASSERT_EQ(tokenizer.Tokenize(t.text), want) << t.text;
        // The reused-buffer overload yields the same tokens.
        tokenizer.Tokenize(t.text, &buffer, &views);
        ASSERT_EQ(std::vector<std::string>(views.begin(), views.end()), want);
      }
    }
  }
}

std::vector<VectorizerOptions> VectorizerVariants() {
  std::vector<VectorizerOptions> variants(1);
  VectorizerOptions o;
  o.min_document_frequency = 3;
  variants.push_back(o);
  o = {};
  o.remove_stopwords = false;
  o.weighting = TermWeighting::kTermFrequency;
  o.l2_normalize = false;
  variants.push_back(o);
  return variants;
}

TEST(IngestReferenceTest, FitAndBuildMatchReferenceBitwise) {
  for (const SyntheticDataset& d : Campaigns()) {
    const Corpus& corpus = d.corpus;
    for (const VectorizerOptions& options : VectorizerVariants()) {
      std::vector<std::vector<std::string>> docs;
      for (const Tweet& t : corpus.tweets()) {
        docs.push_back(RefTokenize(t.text, TokenizerOptions{}));
      }
      const RefFit ref = RefFitDocuments(docs, options);

      DocumentVectorizer vectorizer(options);
      vectorizer.Fit(docs);
      ASSERT_EQ(vectorizer.vocabulary().tokens(), ref.vocabulary.tokens());
      for (size_t f = 0; f < ref.document_frequency.size(); ++f) {
        ASSERT_EQ(vectorizer.DocumentFrequency(f), ref.document_frequency[f]);
      }
      EXPECT_EQ(vectorizer.num_fit_documents(), corpus.num_tweets());
      ExpectBitEqualSparse(vectorizer.Transform(docs),
                           RefTransform(ref, docs, options), "Transform");

      MatrixBuilder builder(TokenizerOptions{}, options);
      builder.Fit(corpus);
      ASSERT_EQ(builder.vocabulary().tokens(), ref.vocabulary.tokens());
      // The whole corpus and every day, as Build and as Append + Emit.
      std::vector<std::vector<size_t>> subsets;
      std::vector<size_t> all(corpus.num_tweets());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      subsets.push_back(all);
      for (const Snapshot& day : SplitByDay(corpus)) {
        subsets.push_back(day.tweet_ids);
      }
      for (const std::vector<size_t>& ids : subsets) {
        std::vector<std::vector<std::string>> subset_docs;
        for (size_t id : ids) subset_docs.push_back(docs[id]);
        const SparseMatrix xp = RefTransform(ref, subset_docs, options);
        SparseMatrix xu;
        SparseMatrix xr;
        RefAssemble(corpus, ids, xp, &xu, &xr);

        const DatasetMatrices built = builder.Build(corpus, ids);
        ExpectBitEqualSparse(built.xp, xp, "Build Xp");
        ExpectBitEqualSparse(built.xu, xu, "Build Xu");
        ExpectBitEqualSparse(built.xr, xr, "Build Xr");

        builder.Append(corpus, ids);
        const DatasetMatrices emitted = builder.EmitSnapshot(corpus);
        ExpectBitEqualSparse(emitted.xp, xp, "Emit Xp");
        ExpectBitEqualSparse(emitted.xu, xu, "Emit Xu");
        ExpectBitEqualSparse(emitted.xr, xr, "Emit Xr");
      }
    }
  }
}

}  // namespace
}  // namespace triclust
