#ifndef TRICLUST_SRC_UTIL_STRING_UTIL_H_
#define TRICLUST_SRC_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace triclust {

/// Splits `text` on `delim`, keeping empty fields (so TSV round-trips).
std::vector<std::string> Split(std::string_view text, char delim);

/// Splits `text` on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view text);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses a double; returns false on malformed or trailing garbage.
bool ParseDouble(std::string_view text, double* out);

/// Parses an unsigned decimal integer (surrounding whitespace allowed);
/// returns false on malformed input, a sign (`-1`, `+5`), trailing
/// garbage, or a value that does not fit in size_t.
bool ParseSizeT(std::string_view text, size_t* out);

/// Parses a signed integer; returns false on malformed or trailing
/// garbage (no whitespace trimming — fields are expected pre-trimmed).
bool ParseInt64(std::string_view text, long long* out);

/// Appends `value` to `out` exactly as printf("%.17g") formats it, byte for
/// byte — including ±0, subnormals, "inf"/"-inf" and "nan"/"-nan" — via
/// std::to_chars(general, 17): no vsnprintf, no allocation beyond `out`'s
/// growth. 17 significant digits round-trip every IEEE double through
/// strtod, which is what makes the text checkpoints bit-exact; this is the
/// only place in src/ that spells the format.
void AppendDouble17g(double value, std::string* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_STRING_UTIL_H_
