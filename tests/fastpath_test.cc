// Interned fast paths (docs/PERFORMANCE.md): the string interner and
// token cache behind similar(), and the Verify memo behind constraint
// application. Each must return exactly what the direct computation
// would, just with fewer repeated computations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alog/catalog.h"
#include "common/intern.h"
#include "exec/verify_memo.h"
#include "resilience/failpoint.h"

namespace iflex {
namespace {

// ---------------------------------------------------------- StringInterner

TEST(StringInternerTest, InternIsIdempotentAndRoundTrips) {
  StringInterner interner;
  ValueId a = interner.Intern("hello");
  ValueId b = interner.Intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("hello"), a);
  EXPECT_EQ(interner.TextOf(a), "hello");
  EXPECT_EQ(interner.TextOf(b), "world");
  EXPECT_EQ(interner.size(), 2u);
  // One miss per distinct string, one hit for the repeat.
  EXPECT_EQ(interner.misses(), 2u);
  EXPECT_EQ(interner.hits(), 1u);
}

TEST(StringInternerTest, FindNeverInserts) {
  StringInterner interner;
  EXPECT_EQ(interner.Find("absent"), kInvalidValueId);
  EXPECT_EQ(interner.size(), 0u);
  ValueId id = interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), id);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInternerTest, FreezeStopsGrowthButKeepsLookups) {
  StringInterner interner;
  ValueId known = interner.Intern("known");
  interner.Freeze();
  EXPECT_TRUE(interner.frozen());
  // Known strings still resolve; unseen ones report invalid instead of
  // growing the arena (callers fall back to their slow path).
  EXPECT_EQ(interner.Intern("known"), known);
  EXPECT_EQ(interner.Intern("unseen"), kInvalidValueId);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.TextOf(known), "known");
}

// --------------------------------------------------------------TokenCache

TEST(TokenCacheTest, TokensAreSortedUniqueAndCached) {
  StringInterner interner;
  TokenCache cache(&interner);
  const std::vector<ValueId>& t1 = cache.TokensOf("The quick the QUICK fox");
  // Lowercased, deduplicated: {the, quick, fox}.
  EXPECT_EQ(t1.size(), 3u);
  for (size_t i = 1; i < t1.size(); ++i) EXPECT_LT(t1[i - 1], t1[i]);
  const std::vector<ValueId>& t2 = cache.TokensOf("The quick the QUICK fox");
  EXPECT_EQ(&t1, &t2);  // stable reference, served from cache
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(TokenCacheTest, TokenIdJaccardMatchesReferenceImplementation) {
  StringInterner interner;
  TokenCache cache(&interner);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"The Godfather", "the godfather"},
      {"Basktall HS", "Basktall"},
      {"abc", "xyz"},
      {"", ""},
      {"one two three", "two three four"},
      {"Price: $351,000", "price 351 000"},
  };
  for (const auto& [a, b] : cases) {
    EXPECT_DOUBLE_EQ(TokenIdJaccard(cache.TokensOf(a), cache.TokensOf(b)),
                     TokenJaccard(a, b))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
}

// -------------------------------------------------------------- VerifyMemo

VerifyMemo::Key TestKey(ValueId feature, uint8_t value) {
  VerifyMemo::Key k{};
  k.feature = feature;
  k.value = value;
  k.target_kind = 1;
  k.text = 7;
  return k;
}

TEST(VerifyMemoTest, LookupAfterInsertHitsAndCounts) {
  VerifyMemo memo;
  EXPECT_FALSE(memo.Lookup(TestKey(1, 1)).has_value());
  memo.Insert(TestKey(1, 1), 1);
  memo.Insert(TestKey(2, 0), 0);
  memo.Insert(TestKey(3, 1), -1);  // VerifyText "don't know"
  EXPECT_EQ(memo.Lookup(TestKey(1, 1)), 1);
  EXPECT_EQ(memo.Lookup(TestKey(2, 0)), 0);
  EXPECT_EQ(memo.Lookup(TestKey(3, 1)), -1);
  EXPECT_FALSE(memo.Lookup(TestKey(4, 0)).has_value());
  EXPECT_EQ(memo.size(), 3u);
  EXPECT_EQ(memo.hits(), 3u);
  EXPECT_EQ(memo.misses(), 2u);
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.Lookup(TestKey(1, 1)).has_value());
}

TEST(VerifyMemoTest, InsertSuppressedWhileFailPointsArmed) {
  // Mirrors the ReuseCache degraded-exclusion rule: runs that may have
  // been perturbed by injected faults must never populate shared caches.
  VerifyMemo memo;
  ASSERT_TRUE(
      resilience::FailPoints::Instance().Configure("some.site=error").ok());
  memo.Insert(TestKey(1, 1), 1);
  resilience::FailPoints::Instance().Clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.Lookup(TestKey(1, 1)).has_value());
  // Disarmed again: inserts flow normally.
  memo.Insert(TestKey(1, 1), 1);
  EXPECT_EQ(memo.Lookup(TestKey(1, 1)), 1);
}

}  // namespace
}  // namespace iflex
