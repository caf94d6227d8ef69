#include "src/text/vectorizer.h"

#include <cmath>
#include <unordered_map>

#include "src/text/stopwords.h"
#include "src/util/logging.h"

namespace triclust {

DocumentVectorizer::DocumentVectorizer(VectorizerOptions options)
    : options_(options) {}

void DocumentVectorizer::BeginFit() {
  vocabulary_ = Vocabulary();
  document_frequency_.clear();
  num_fit_documents_ = 0;
  fitted_ = false;
  term_ids_.clear();
  terms_.clear();
}

uint32_t DocumentVectorizer::CountToken(std::string_view token,
                                        size_t document) {
  term_key_.assign(token);
  auto it = term_ids_.find(term_key_);
  if (it == term_ids_.end()) {
    it = term_ids_.emplace(term_key_, static_cast<uint32_t>(terms_.size()))
             .first;
    Term term;
    term.text = term_key_;
    term.stop_word = options_.remove_stopwords && IsStopWord(token);
    terms_.push_back(std::move(term));
  }
  Term& term = terms_[it->second];
  // Stop words never count; every other token counts once per document.
  if (!term.stop_word && term.last_document != document) {
    term.last_document = document;
    ++term.document_frequency;
  }
  return it->second;
}

void DocumentVectorizer::AdmitTerms() {
  for (Term& term : terms_) {
    if (term.stop_word ||
        term.document_frequency < options_.min_document_frequency) {
      continue;
    }
    term.feature = static_cast<uint32_t>(vocabulary_.GetOrAdd(term.text));
    document_frequency_.push_back(term.document_frequency);
  }
}

void DocumentVectorizer::FinishFit(size_t num_documents) {
  num_fit_documents_ = num_documents;
  const double n = static_cast<double>(num_documents);
  idf_.clear();
  for (size_t df : document_frequency_) {
    idf_.push_back(std::log((1.0 + n) / (1.0 + static_cast<double>(df))) +
                   1.0);
  }
  fitted_ = true;
  term_ids_ = {};
  terms_ = {};
}

void DocumentVectorizer::Fit(
    const std::vector<std::vector<std::string>>& documents) {
  std::vector<std::string_view> views;
  FitFeatureIds(documents.size(),
                [&](size_t d) -> const std::vector<std::string_view>& {
                  views.assign(documents[d].begin(), documents[d].end());
                  return views;
                });
}

std::vector<DocumentVectorizer::FeatureIds> DocumentVectorizer::FitFeatureIds(
    size_t num_documents,
    const std::function<const std::vector<std::string_view>&(size_t)>&
        document) {
  BeginFit();
  // Each document is read once; its term ids are kept and then rewritten
  // into feature ids.
  std::vector<FeatureIds> ids(num_documents);
  for (size_t d = 0; d < num_documents; ++d) {
    const std::vector<std::string_view>& tokens = document(d);
    ids[d].reserve(tokens.size());
    for (std::string_view token : tokens) {
      ids[d].push_back(CountToken(token, d));
    }
  }
  AdmitTerms();
  for (FeatureIds& list : ids) {
    size_t kept = 0;
    for (uint32_t term_id : list) {
      const uint32_t feature = terms_[term_id].feature;
      if (feature != kNoFeature) list[kept++] = feature;
    }
    list.resize(kept);
  }
  FinishFit(num_documents);
  return ids;
}

void DocumentVectorizer::FitStreamBegin() {
  BeginFit();
  streaming_ = true;
  stream_documents_ = 0;
}

void DocumentVectorizer::FitStreamCount(
    const std::vector<std::string_view>& document) {
  TRICLUST_CHECK(streaming_);
  for (std::string_view token : document) {
    CountToken(token, stream_documents_);
  }
  ++stream_documents_;
}

void DocumentVectorizer::FitStreamFinish() {
  TRICLUST_CHECK(streaming_);
  AdmitTerms();
  FinishFit(stream_documents_);
  streaming_ = false;
}

size_t DocumentVectorizer::DocumentFrequency(size_t id) const {
  TRICLUST_CHECK_LT(id, document_frequency_.size());
  return document_frequency_[id];
}

DocumentVectorizer::FeatureIds DocumentVectorizer::FeatureIdsOf(
    const std::vector<std::string_view>& tokens) const {
  FeatureIds ids;
  for (std::string_view token : tokens) {
    const ptrdiff_t id = vocabulary_.IdOf(token);
    if (id >= 0) ids.push_back(static_cast<uint32_t>(id));
  }
  return ids;
}

SparseMatrix DocumentVectorizer::Transform(
    const std::vector<std::vector<std::string>>& documents) const {
  std::vector<FeatureIds> ids;
  ids.reserve(documents.size());
  std::vector<std::string_view> views;
  for (const std::vector<std::string>& document : documents) {
    views.assign(document.begin(), document.end());
    ids.push_back(FeatureIdsOf(views));
  }
  std::vector<const FeatureIds*> rows;
  rows.reserve(ids.size());
  for (const FeatureIds& list : ids) rows.push_back(&list);
  return Transform(rows);
}

SparseMatrix DocumentVectorizer::Transform(
    const std::vector<const FeatureIds*>& documents) const {
  TRICLUST_CHECK(fitted_);
  SparseMatrix::Builder builder(documents.size(), vocabulary_.size());
  for (size_t d = 0; d < documents.size(); ++d) {
    // Filled in token order. The map's iteration order then fixes the
    // norm's summation order and the Builder's insertion order, and with
    // them the last bits of Xp (and of Xu, which sums Xp rows).
    std::unordered_map<size_t, double> counts;
    for (uint32_t id : *documents[d]) counts[id] += 1.0;
    double norm_sq = 0.0;
    for (auto& [id, count] : counts) {
      if (options_.weighting == TermWeighting::kTfIdf) {
        count *= idf_[id];
      }
      norm_sq += count * count;
    }
    const double inv_norm =
        (options_.l2_normalize && norm_sq > 0.0) ? 1.0 / std::sqrt(norm_sq)
                                                 : 1.0;
    for (const auto& [id, w] : counts) {
      builder.Add(d, id, w * inv_norm);
    }
  }
  return builder.Build();
}

SparseMatrix DocumentVectorizer::FitTransform(
    const std::vector<std::vector<std::string>>& documents) {
  Fit(documents);
  return Transform(documents);
}

}  // namespace triclust
