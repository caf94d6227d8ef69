#ifndef TRICLUST_SRC_TEXT_VECTORIZER_H_
#define TRICLUST_SRC_TEXT_VECTORIZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/matrix/sparse_matrix.h"
#include "src/text/vocabulary.h"

namespace triclust {

/// Term-weighting scheme for document–feature matrices.
enum class TermWeighting {
  /// Raw term counts.
  kTermFrequency,
  /// tf · idf with smooth idf = ln((1 + N)/(1 + df)) + 1 (the latent
  /// "tf-idf term vector representation" the paper refers to in §5.1).
  kTfIdf,
};

/// Options for DocumentVectorizer.
struct VectorizerOptions {
  TermWeighting weighting = TermWeighting::kTfIdf;
  /// Tokens appearing in fewer than `min_document_frequency` documents are
  /// dropped at Fit time.
  size_t min_document_frequency = 1;
  /// Drop stop-words at Fit time.
  bool remove_stopwords = true;
  /// L2-normalize each document row. On by default: unit rows put
  /// ||Xp − ·||², ||Xu − ·||² and ||Xr − ·||² on comparable scales, the
  /// balance the paper's objective assumes when it calls the three
  /// bipartite terms "equally important" (§3). With raw tf-idf magnitudes
  /// the Xp term dwarfs the coupling and regularization terms and the
  /// framework degenerates to plain document clustering.
  bool l2_normalize = true;
};

/// Builds the tweet–feature matrix Xp from tokenized documents.
///
/// Fit() scans token lists, applies frequency/stop-word filtering and fixes
/// the vocabulary; Transform() maps any token lists (including future
/// snapshots with out-of-vocabulary words, which are skipped) onto that
/// vocabulary as a CSR matrix. FitTransform combines both.
///
/// Every fit interns each distinct token once to a dense term id, tests it
/// against the stop-word list once, and counts its document frequency with
/// a last-seen-document stamp. Term ids are assigned in first-appearance
/// order and features are admitted in term-id order once every document
/// has been counted, so feature ids depend only on the token sequence.
class DocumentVectorizer {
 public:
  /// Feature ids of one document's in-vocabulary tokens, in token order
  /// (a repeated token repeats): exactly what Transform counts.
  using FeatureIds = std::vector<uint32_t>;

  explicit DocumentVectorizer(VectorizerOptions options = {});

  /// Learns the vocabulary and document frequencies.
  void Fit(const std::vector<std::vector<std::string>>& documents);

  /// Fit over `num_documents` documents read in order, where
  /// `document(d)` returns document d's tokens; the returned views need
  /// only stay valid until the next call. Returns every document's
  /// FeatureIds under the learned vocabulary. Fit() is this over token
  /// lists.
  std::vector<FeatureIds> FitFeatureIds(
      size_t num_documents,
      const std::function<const std::vector<std::string_view>&(size_t)>&
          document);

  /// Maps documents onto the learned vocabulary. Requires Fit().
  SparseMatrix Transform(
      const std::vector<std::vector<std::string>>& documents) const;

  /// Transform over FeatureIds lists, one pointer per row; bitwise
  /// identical to Transform over the documents the lists came from.
  SparseMatrix Transform(const std::vector<const FeatureIds*>& documents) const;

  /// Fit() followed by Transform() on the same documents.
  SparseMatrix FitTransform(
      const std::vector<std::vector<std::string>>& documents);

  /// FeatureIds of `tokens` under the learned vocabulary (OOV tokens drop).
  FeatureIds FeatureIdsOf(const std::vector<std::string_view>& tokens) const;

  // --- streaming Fit (bounded memory) ---------------------------------------
  // One-pass Fit for document sets that do not fit in RAM: feed every
  // document once to FitStreamCount, then call FitStreamFinish. The
  // per-token steps are Fit()'s, so the learned vocabulary, document
  // frequencies, document count — and therefore every later Transform —
  // are identical to Fit() over the same documents; only the term table
  // (one entry per distinct token, not per corpus token) is held.

  /// Starts a streaming fit; discards any previous fit.
  void FitStreamBegin();
  /// Folds one document into the streaming fit.
  void FitStreamCount(const std::vector<std::string_view>& document);
  /// Admits the vocabulary and completes the streaming fit.
  void FitStreamFinish();

  /// Learned vocabulary (valid after Fit()).
  const Vocabulary& vocabulary() const { return vocabulary_; }

  /// Documents seen at Fit time (for idf).
  size_t num_fit_documents() const { return num_fit_documents_; }

  /// Document frequency of feature `id`.
  size_t DocumentFrequency(size_t id) const;

 private:
  static constexpr uint32_t kNoFeature = UINT32_MAX;

  /// One distinct token seen by the fit in progress.
  struct Term {
    std::string text;
    bool stop_word = false;
    size_t document_frequency = 0;
    /// Last document counted, for per-document dedup; SIZE_MAX = none.
    size_t last_document = SIZE_MAX;
    uint32_t feature = kNoFeature;
  };

  /// Forgets any fit and starts an empty term table.
  void BeginFit();
  /// Interns `token` and counts it for document `document`; returns its
  /// term id.
  uint32_t CountToken(std::string_view token, size_t document);
  /// Admits every term, in term-id (= first-appearance) order, as the next
  /// feature unless it is a stop word or below the document-frequency
  /// floor.
  void AdmitTerms();
  /// Fixes the fit over `num_documents` documents and drops the term table.
  void FinishFit(size_t num_documents);

  VectorizerOptions options_;
  Vocabulary vocabulary_;
  std::vector<size_t> document_frequency_;
  /// Smooth idf of each feature, fixed at the end of the fit.
  std::vector<double> idf_;
  size_t num_fit_documents_ = 0;
  bool fitted_ = false;

  // Term table of the fit in progress, live from BeginFit to FinishFit.
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<Term> terms_;
  std::string term_key_;  // reused lookup key: no allocation per token

  // Streaming-fit state, live only between FitStreamBegin and
  // FitStreamFinish.
  bool streaming_ = false;
  size_t stream_documents_ = 0;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_TEXT_VECTORIZER_H_
