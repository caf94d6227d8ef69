#include "src/util/string_util.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace triclust {
namespace {

TEST(SplitTest, BasicDelimiter) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a\t\tb", '\t'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, RoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ToLowerAsciiTest, LowersOnlyAscii) {
  EXPECT_EQ(ToLowerAscii("AbC#123"), "abc#123");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("hashtag", "hash"));
  EXPECT_FALSE(StartsWith("hash", "hashtag"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "file.csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ParseDoubleTest, AcceptsValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_TRUE(ParseDouble("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(ParseSizeTTest, AcceptsAndRejects) {
  size_t v = 0;
  EXPECT_TRUE(ParseSizeT("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseSizeT(" 7 ", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ParseSizeT("", &v));
  EXPECT_FALSE(ParseSizeT("4.2", &v));
  EXPECT_FALSE(ParseSizeT("x", &v));
}

TEST(ParseSizeTTest, RejectsSignsAndOutOfRange) {
  size_t v = 99;
  EXPECT_FALSE(ParseSizeT("-1", &v));
  EXPECT_FALSE(ParseSizeT("-0", &v));
  EXPECT_FALSE(ParseSizeT("+5", &v));
  EXPECT_FALSE(ParseSizeT(" -7 ", &v));
  EXPECT_FALSE(ParseSizeT("18446744073709551616", &v));  // 2^64
  EXPECT_FALSE(ParseSizeT("99999999999999999999999", &v));
  EXPECT_FALSE(ParseSizeT("0x10", &v));
  EXPECT_FALSE(ParseSizeT("1 2", &v));
  EXPECT_EQ(v, 99u);  // untouched on failure
  const size_t max = std::numeric_limits<size_t>::max();
  EXPECT_TRUE(ParseSizeT(std::to_string(max), &v));
  EXPECT_EQ(v, max);
  EXPECT_TRUE(ParseSizeT("007", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(ParseSizeT("\t0\n", &v));
  EXPECT_EQ(v, 0u);
}

/// What AppendDouble17g promises to reproduce.
std::string Printf17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Append17g(double value) {
  std::string out;
  AppendDouble17g(value, &out);
  return out;
}

TEST(AppendDouble17gTest, MatchesPrintfOnEdgeValues) {
  const double values[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      0.1,
      1.0 / 3.0,
      1e16,
      1e17,
      123456789012345678.0,
      1.0,
      -2.5e-17,
      1e-5,
      1e-4,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double value : values) {
    EXPECT_EQ(Append17g(value), Printf17g(value)) << Printf17g(value);
  }
}

TEST(AppendDouble17gTest, MatchesPrintfOnRandomBitPatterns) {
  // Uniform 64-bit patterns cover every exponent, so subnormals, NaN
  // payloads and infinities all occur alongside ordinary values.
  Rng rng(20261017);
  size_t mismatches = 0;
  for (int i = 0; i < 1100000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    const std::string want = Printf17g(value);
    if (Append17g(value) != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << bits << ": got "
                    << Append17g(value) << ", want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(AppendDouble17gTest, AppendsWithoutClearing) {
  std::string out = "x=";
  AppendDouble17g(0.5, &out);
  out += ' ';
  AppendDouble17g(-3.0, &out);
  EXPECT_EQ(out, "x=0.5 -3");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "ok"), "5-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace triclust
