#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strutil.h"

namespace iflex {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  // Exhaustive over the enum: adding a StatusCode without a name (or
  // without bumping kNumStatusCodes) fails here, not in a log message.
  std::set<std::string> names;
  for (int i = 0; i < kNumStatusCodes; ++i) {
    const char* name = StatusCodeToString(static_cast<StatusCode>(i));
    EXPECT_STRNE(name, "Unknown") << "code " << i;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStatusCodes))
      << "two status codes share a name";
  EXPECT_STREQ(StatusCodeToString(static_cast<StatusCode>(kNumStatusCodes)),
               "Unknown");
}

TEST(StatusTest, StopCodes) {
  Status d = Status::DeadlineExceeded("late");
  Status c = Status::Cancelled("stop");
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_TRUE(d.IsStop());
  EXPECT_TRUE(c.IsStop());
  EXPECT_FALSE(Status::OK().IsStop());
  EXPECT_FALSE(Status::ExecutionError("boom").IsStop());
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: late");
  EXPECT_EQ(c.ToString(), "Cancelled: stop");
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status CheckedTwice(int x, int* progress) {
  IFLEX_RETURN_NOT_OK(FailsWhenNegative(x));
  *progress = 1;
  IFLEX_RETURN_NOT_OK(FailsWhenNegative(x - 10));
  *progress = 2;
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagatesAndStopsEarly) {
  int progress = 0;
  Status st = CheckedTwice(-1, &progress);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(progress, 0);  // first check returned, nothing after it ran

  progress = 0;
  st = CheckedTwice(5, &progress);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(progress, 1);  // failed at the second checkpoint

  progress = 0;
  EXPECT_TRUE(CheckedTwice(15, &progress).ok());
  EXPECT_EQ(progress, 2);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  IFLEX_ASSIGN_OR_RETURN(int h, Half(x));
  IFLEX_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
}

Result<int> StoppedComputation() {
  return Status::DeadlineExceeded("ran out of time");
}

Result<int> UsesStoppedComputation() {
  IFLEX_ASSIGN_OR_RETURN(int v, StoppedComputation());
  return v + 1;
}

TEST(ResultTest, AssignOrReturnPreservesCodeAndMessage) {
  Result<int> r = UsesStoppedComputation();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.status().message(), "ran out of time");
  EXPECT_TRUE(r.status().IsStop());
}

TEST(StrUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StrUtilTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("The PANEL session", "panel"));
  EXPECT_FALSE(ContainsIgnoreCase("nothing here", "panel"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StrUtilTest, ParseLooseNumberPlain) {
  EXPECT_DOUBLE_EQ(*ParseLooseNumber("42"), 42);
  EXPECT_DOUBLE_EQ(*ParseLooseNumber("4.5"), 4.5);
  EXPECT_DOUBLE_EQ(*ParseLooseNumber("-3"), -3);
}

TEST(StrUtilTest, ParseLooseNumberCurrencyAndCommas) {
  // The paper's canonical price form.
  EXPECT_DOUBLE_EQ(*ParseLooseNumber("$351,000"), 351000);
  EXPECT_DOUBLE_EQ(*ParseLooseNumber("$39.99"), 39.99);
  EXPECT_DOUBLE_EQ(*ParseLooseNumber("1,234,567"), 1234567);
}

TEST(StrUtilTest, ParseLooseNumberRejectsText) {
  EXPECT_FALSE(ParseLooseNumber("Lincoln").has_value());
  EXPECT_FALSE(ParseLooseNumber("12a").has_value());
  EXPECT_FALSE(ParseLooseNumber("").has_value());
  EXPECT_FALSE(ParseLooseNumber("$").has_value());
  EXPECT_FALSE(ParseLooseNumber("1,,2").has_value());
  EXPECT_FALSE(ParseLooseNumber("1.2.3").has_value());
}

// The validation runs in place and the kept characters are copied to a
// stack buffer, or to the heap past 64 of them; strtod reads the same
// string as before, so every result is bit-identical.
TEST(StrUtilTest, ParseLooseNumberEdgeCases) {
  EXPECT_FALSE(ParseLooseNumber(std::string(70, 'x')).has_value());
  EXPECT_FALSE(ParseLooseNumber("1" + std::string(69, 'x')).has_value());
  const std::string digits100 = "1" + std::string(99, '7');
  ASSERT_TRUE(ParseLooseNumber(digits100).has_value());
  EXPECT_EQ(*ParseLooseNumber(digits100),
            std::strtod(digits100.c_str(), nullptr));
  const std::string digits64(64, '9');
  EXPECT_EQ(*ParseLooseNumber(digits64),
            std::strtod(digits64.c_str(), nullptr));
  EXPECT_FALSE(ParseLooseNumber("-").has_value());
  EXPECT_EQ(*ParseLooseNumber("$-5"), -5);
  EXPECT_EQ(*ParseLooseNumber(" 1,234 "), 1234);
  EXPECT_FALSE(ParseLooseNumber(",5").has_value());
  EXPECT_FALSE(ParseLooseNumber("5,").has_value());
  // Groups of three are not checked: a comma only has to sit between
  // digits.
  EXPECT_EQ(*ParseLooseNumber("1,2345"), 12345);
}

TEST(StrUtilTest, FormatNumber) {
  EXPECT_EQ(FormatNumber(42), "42");
  EXPECT_EQ(FormatNumber(-0.0), "0");
  EXPECT_EQ(FormatNumber(3.5), "3.5");
  EXPECT_EQ(FormatNumber(-9223372036854775808.0), "-9223372036854775808");
  // Outside int64 the integer cast would be undefined: %g instead.
  EXPECT_EQ(FormatNumber(9223372036854775808.0), "9.22337e+18");
  EXPECT_EQ(FormatNumber(1e30), "1e+30");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatNumber(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(StrUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(StrUtilTest, FingerprintStable) {
  EXPECT_EQ(Fingerprint64("abc"), Fingerprint64("abc"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abd"));
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, SampleIndicesDistinctSorted) {
  Rng rng(99);
  auto s = rng.SampleIndices(100, 10);
  ASSERT_EQ(s.size(), 10u);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
}

TEST(RngTest, SampleAllWhenKTooLarge) {
  Rng rng(5);
  auto s = rng.SampleIndices(4, 10);
  EXPECT_EQ(s.size(), 4u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

}  // namespace
}  // namespace iflex
