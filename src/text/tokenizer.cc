#include "src/text/tokenizer.h"

#include <algorithm>
#include <array>

#include "src/util/string_util.h"

namespace triclust {

namespace {

constexpr std::array<std::string_view, 12> kPositiveEmoticons = {
    ":)", ":-)", ":d", ":-d", "=)", ";)", ";-)",
    ":]", "=d", "<3", "(:", "^_^"};

constexpr std::array<std::string_view, 10> kNegativeEmoticons = {
    ":(", ":-(", ":'(", "=(", ":[", "d:", ":/", ":-/", "):", ">:("};

// Byte classes as the "C" locale defines them (the library never calls
// setlocale): ASCII only, so bytes >= 0x80 are neither space, word nor
// letter. Inline tests instead of the <cctype> calls, which cost a
// function call per byte.
char LowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsWordChar(char c) {
  const char lower = LowerChar(c);
  return IsDigit(c) || (lower >= 'a' && lower <= 'z') || c == '_';
}

template <size_t N>
constexpr size_t MaxLength(const std::array<std::string_view, N>& list) {
  size_t longest = 0;
  for (std::string_view e : list) longest = std::max(longest, e.size());
  return longest;
}

/// Longest entry of either emoticon list; longer tokens skip the scan.
constexpr size_t kMaxEmoticonLength =
    std::max(MaxLength(kPositiveEmoticons), MaxLength(kNegativeEmoticons));

/// True when `token`, lowercased, equals one of `lowered` (already
/// lowercase) — without materializing the lowercase copy.
template <size_t N>
bool MatchesLowered(std::string_view token,
                    const std::array<std::string_view, N>& lowered) {
  if (token.size() > kMaxEmoticonLength) return false;
  for (std::string_view e : lowered) {
    if (e.size() != token.size()) continue;
    size_t i = 0;
    while (i < e.size() && LowerChar(token[i]) == e[i]) ++i;
    if (i == e.size()) return true;
  }
  return false;
}

bool IsUrlToken(std::string_view token) {
  if (token.empty() || (token[0] != 'h' && token[0] != 'w')) return false;
  return StartsWith(token, "http://") || StartsWith(token, "https://") ||
         StartsWith(token, "www.");
}

bool IsAllDigits(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!IsDigit(c)) return false;
  }
  return true;
}

/// Strips leading/trailing punctuation from a plain word, keeping inner
/// apostrophes/hyphens ("don't", "agri-tech").
std::string_view StripOuterPunct(std::string_view token) {
  size_t begin = 0;
  size_t end = token.size();
  while (begin < end && !IsWordChar(token[begin])) ++begin;
  while (end > begin && !IsWordChar(token[end - 1])) --end;
  return token.substr(begin, end - begin);
}

}  // namespace

bool IsPositiveEmoticon(std::string_view token) {
  return MatchesLowered(token, kPositiveEmoticons);
}

bool IsNegativeEmoticon(std::string_view token) {
  return MatchesLowered(token, kNegativeEmoticons);
}

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

void Tokenizer::Tokenize(std::string_view text, std::string* buffer,
                         std::vector<std::string_view>* tokens) const {
  tokens->clear();
  buffer->assign(text);
  if (options_.lowercase) {
    for (char& c : *buffer) c = LowerChar(c);
  }
  char* const chars = buffer->data();
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsSpace(text[i])) ++i;
    const size_t start = i;
    while (i < text.size() && !IsSpace(text[i])) ++i;
    if (i == start) break;
    const std::string_view raw = text.substr(start, i - start);
    const std::string_view token(chars + start, i - start);

    if (options_.strip_retweet_marker && (token == "rt" || raw == "RT")) {
      continue;
    }
    if (options_.strip_urls && IsUrlToken(token)) continue;

    if (options_.map_emoticons) {
      if (IsPositiveEmoticon(token)) {
        tokens->push_back(kPositiveEmoticonToken);
        continue;
      }
      if (IsNegativeEmoticon(token)) {
        tokens->push_back(kNegativeEmoticonToken);
        continue;
      }
    }

    if (token[0] == '#' || token[0] == '@') {
      const char marker = token[0];
      if (!(marker == '#' ? options_.keep_hashtags : options_.keep_mentions)) {
        continue;
      }
      const std::string_view body = StripOuterPunct(token.substr(1));
      if (body.empty()) continue;
      // The byte before `body` belongs to this token (the marker itself or
      // stripped punctuation), so writing the marker there makes
      // marker + body one contiguous view of the buffer.
      char* const marked = chars + (body.data() - chars) - 1;
      *marked = marker;
      tokens->emplace_back(marked, body.size() + 1);
      continue;
    }

    const std::string_view word = StripOuterPunct(token);
    if (word.size() < options_.min_token_length) continue;
    if (options_.strip_numbers && IsAllDigits(word)) continue;
    tokens->push_back(word);
  }
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::string buffer;
  std::vector<std::string_view> views;
  Tokenize(text, &buffer, &views);
  return std::vector<std::string>(views.begin(), views.end());
}

}  // namespace triclust
