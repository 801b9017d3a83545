#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace condensa {
namespace {

TEST(SplitTest, BasicCommaSplit) {
  std::vector<std::string> parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  std::vector<std::string> parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitTest, EmptyStringYieldsOneEmptyField) {
  std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t x \r\n"), "x");
  EXPECT_EQ(StripWhitespace("nochange"), "nochange");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble("  7 ", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ParseDoubleTest, RejectsMalformedInput) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("1.5 2.5", &v));
}

TEST(ParseIntTest, ParsesValidIntegers) {
  int v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-9", &v));
  EXPECT_EQ(v, -9);
  EXPECT_TRUE(ParseInt(" 0 ", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseIntTest, RejectsMalformedInput) {
  int v = 0;
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("3.5", &v));
  EXPECT_FALSE(ParseInt("seven", &v));
  EXPECT_FALSE(ParseInt("99999999999999999999", &v));
}

TEST(ParseSizeTest, ParsesTheFullSizeRange) {
  std::size_t v = 0;
  EXPECT_TRUE(ParseSize("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseSize(" 0 ", &v));
  EXPECT_EQ(v, 0u);
  // Past INT_MAX, where ParseInt gives up.
  EXPECT_TRUE(ParseSize("3000000000", &v));
  EXPECT_EQ(v, 3000000000u);
  EXPECT_TRUE(ParseSize("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<std::size_t>::max());
}

TEST(ParseSizeTest, RejectsSignsGarbageAndOverflow) {
  std::size_t v = 7;
  EXPECT_FALSE(ParseSize("", &v));
  EXPECT_FALSE(ParseSize("-1", &v));
  EXPECT_FALSE(ParseSize("+1", &v));
  EXPECT_FALSE(ParseSize("3.5", &v));
  EXPECT_FALSE(ParseSize("12x", &v));
  EXPECT_FALSE(ParseSize("18446744073709551616", &v));
  EXPECT_EQ(v, 7u);
}

// The reference AppendExactDouble must match byte for byte.
std::string Printf17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Exact(double value) {
  std::string out;
  AppendExactDouble(out, value);
  return out;
}

TEST(AppendExactDoubleTest, MatchesPrintfOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           -0.1,
                           1.0 / 3.0,
                           DBL_MIN,
                           -DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN / 3.0,
                           4.9406564584124654e-310,
                           DBL_EPSILON,
                           1e-5,
                           1e-4,
                           1e16,
                           1e17,
                           1e21,
                           123456789012345678.0,
                           9007199254740992.0,
                           9007199254740993.0,
                           inf,
                           -inf,
                           nan,
                           -nan};
  for (double value : values) {
    EXPECT_EQ(Exact(value), Printf17g(value)) << "value " << Printf17g(value);
  }
}

TEST(AppendExactDoubleTest, MatchesPrintfOnIntegersUpTo2To53) {
  std::mt19937_64 gen(53);
  for (std::uint64_t i = 0; i <= 4096; ++i) {
    ASSERT_EQ(Exact(static_cast<double>(i)), Printf17g(static_cast<double>(i)));
  }
  for (int bits = 12; bits <= 53; ++bits) {
    const std::uint64_t top = std::uint64_t{1} << bits;
    for (std::uint64_t offset : {top - 1, top, top + 1}) {
      if (offset > (std::uint64_t{1} << 53)) continue;
      const double value = static_cast<double>(offset);
      ASSERT_EQ(Exact(value), Printf17g(value));
      ASSERT_EQ(Exact(-value), Printf17g(-value));
    }
    for (int trial = 0; trial < 256; ++trial) {
      const double value = static_cast<double>(gen() % top);
      ASSERT_EQ(Exact(value), Printf17g(value));
    }
  }
}

TEST(AppendExactDoubleTest, MatchesPrintfOnAMillionRandomDoubles) {
  // Half uniform bit patterns (every exponent, subnormals, inf and NaN
  // payloads included), half values at the scales the condensed
  // statistics take.
  std::mt19937_64 gen(17);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::string out;
  for (int i = 0; i < 1'000'000; ++i) {
    double value;
    if (i % 2 == 0) {
      const std::uint64_t bits = gen();
      std::memcpy(&value, &bits, sizeof(value));
    } else {
      value = std::ldexp(normal(gen), exponent(gen));
    }
    out.clear();
    AppendExactDouble(out, value);
    ASSERT_EQ(out, Printf17g(value)) << "bit pattern differs";
    ASSERT_LE(out.size(), kMaxExactDoubleChars);
  }
}

TEST(AppendExactDoubleTest, AppendsToExistingText) {
  std::string out = "fs";
  out += ' ';
  AppendExactDouble(out, 0.5);
  out += ' ';
  AppendExactDouble(out, -2.0);
  EXPECT_EQ(out, "fs 0.5 -2");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StartsWithTest, MatchesPrefixes) {
  EXPECT_TRUE(StartsWith("condensa", "con"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("abc", "abcd"));
  EXPECT_FALSE(StartsWith("abc", "b"));
}

TEST(FormatDoubleTest, RespectsPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace condensa
