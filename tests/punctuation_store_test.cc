#include "exec/punctuation_store.h"

#include <gtest/gtest.h>

namespace punctsafe {
namespace {

TEST(PunctuationStoreTest, AddAndDeduplicate) {
  PunctuationStore store;
  Punctuation p = Punctuation::OfConstants(2, {{0, Value(1)}});
  EXPECT_TRUE(store.Add(p, 0));
  EXPECT_FALSE(store.Add(p, 1));  // duplicate refreshes, not stores
  EXPECT_EQ(store.size(), 1u);
}

TEST(PunctuationStoreTest, CoversSubspaceBasics) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(2, {{0, Value(7)}}), 0);
  EXPECT_TRUE(store.CoversSubspace({0}, {Value(7)}, 0));
  EXPECT_FALSE(store.CoversSubspace({0}, {Value(8)}, 0));
  EXPECT_FALSE(store.CoversSubspace({1}, {Value(7)}, 0));
  // Wider subspace covered by the weaker punctuation.
  EXPECT_TRUE(store.CoversSubspace({0, 1}, {Value(7), Value(3)}, 0));
}

TEST(PunctuationStoreTest, MultiAttrPunctuationCoversOnlyExactCombos) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(2, {{0, Value(1)}, {1, Value(2)}}), 0);
  EXPECT_TRUE(store.CoversSubspace({0, 1}, {Value(1), Value(2)}, 0));
  EXPECT_FALSE(store.CoversSubspace({0, 1}, {Value(1), Value(3)}, 0));
  EXPECT_FALSE(store.CoversSubspace({0}, {Value(1)}, 0));
}

TEST(PunctuationStoreTest, MixedSignaturesSearchedTogether) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(3, {{0, Value(1)}}), 0);
  store.Add(Punctuation::OfConstants(3, {{1, Value(2)}, {2, Value(3)}}), 0);
  EXPECT_TRUE(store.CoversSubspace({0, 2}, {Value(1), Value(9)}, 0));
  EXPECT_TRUE(
      store.CoversSubspace({1, 2}, {Value(2), Value(3)}, 0));
  EXPECT_FALSE(store.CoversSubspace({2}, {Value(3)}, 0));
  EXPECT_EQ(store.size(), 2u);
}

// Pins the signature-subset lookup semantics the heterogeneous
// (Tuple-free) probe path must preserve: a stored signature applies to
// a queried subspace iff its constrained attrs are a subset of the
// queried attrs, matching on the projected values in signature order —
// with type-strict value equality throughout.
TEST(PunctuationStoreTest, SignatureSubsetLookup) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(4, {{1, Value("x")}, {3, Value(9)}}), 0);

  // Queried attrs are a strict superset, in an order different from
  // the signature's: the projection must pull the right positions.
  EXPECT_TRUE(store.CoversSubspace({3, 0, 1},
                                   {Value(9), Value(42), Value("x")}, 0));
  // Same attrs, wrong value on one: no cover.
  EXPECT_FALSE(store.CoversSubspace({3, 0, 1},
                                    {Value(8), Value(42), Value("x")}, 0));
  // Missing one signature attr (subset fails): no cover, even though
  // the present value matches.
  EXPECT_FALSE(store.CoversSubspace({3, 0}, {Value(9), Value(42)}, 0));
  // Type-strict: int64 9 stored, double 9.0 queried must not match.
  EXPECT_FALSE(store.CoversSubspace({3, 1}, {Value(9.0), Value("x")}, 0));
  // A string equal by content matches however it was constructed.
  EXPECT_TRUE(store.CoversSubspace(
      {1, 3}, {Value(std::string("x")), Value(9)}, 0));

  // ExcludesTuple uses the same heterogeneous path (projection of the
  // tuple's own values).
  EXPECT_TRUE(store.ExcludesTuple(
      Tuple({Value(0), Value("x"), Value(0), Value(9)}), 0));
  EXPECT_FALSE(store.ExcludesTuple(
      Tuple({Value(0), Value("x"), Value(0), Value(9.0)}), 0));
}

TEST(PunctuationStoreTest, ExcludesTuple) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(2, {{0, Value(5)}}), 0);
  EXPECT_TRUE(store.ExcludesTuple(Tuple({Value(5), Value(1)}), 0));
  EXPECT_FALSE(store.ExcludesTuple(Tuple({Value(6), Value(1)}), 0));
}

TEST(PunctuationStoreTest, LifespanExpiry) {
  PunctuationStore store(/*lifespan=*/10);
  store.Add(Punctuation::OfConstants(1, {{0, Value(1)}}), 0);
  EXPECT_TRUE(store.CoversSubspace({0}, {Value(1)}, 5));
  // Expired at now >= arrival + lifespan.
  EXPECT_FALSE(store.CoversSubspace({0}, {Value(1)}, 10));
  EXPECT_FALSE(store.ExcludesTuple(Tuple({Value(1)}), 12));
  EXPECT_EQ(store.ExpireBefore(12), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PunctuationStoreTest, DuplicateRefreshesLifespan) {
  PunctuationStore store(/*lifespan=*/10);
  Punctuation p = Punctuation::OfConstants(1, {{0, Value(1)}});
  store.Add(p, 0);
  store.Add(p, 8);  // refresh
  EXPECT_TRUE(store.CoversSubspace({0}, {Value(1)}, 15));
  EXPECT_FALSE(store.CoversSubspace({0}, {Value(1)}, 18));
}

TEST(PunctuationStoreTest, NoLifespanNeverExpires) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(1, {{0, Value(1)}}), 0);
  EXPECT_EQ(store.ExpireBefore(1'000'000), 0u);
  EXPECT_TRUE(store.CoversSubspace({0}, {Value(1)}, 1'000'000));
}

TEST(PunctuationStoreTest, RetireValue) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(1, {{0, Value(1)}}), 0);
  store.Add(Punctuation::OfConstants(1, {{0, Value(2)}}), 0);
  EXPECT_EQ(store.Retire(0, Value(1)), 1u);
  EXPECT_EQ(store.Retire(0, Value(1)), 0u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.CoversSubspace({0}, {Value(1)}, 0));
  EXPECT_TRUE(store.CoversSubspace({0}, {Value(2)}, 0));
  EXPECT_EQ(store.Retire(0, Value(2)), 1u);
  EXPECT_EQ(store.size(), 0u);
}

// Multi-attribute punctuations constraining the attribute to the value
// retire with it; others, and those on other attributes, stay.
TEST(PunctuationStoreTest, RetireFiltersMultiAttributeGroups) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(3, {{0, Value(1)}, {1, Value(5)}}), 0);
  store.Add(Punctuation::OfConstants(3, {{0, Value(1)}, {1, Value(6)}}), 0);
  store.Add(Punctuation::OfConstants(3, {{0, Value(2)}, {1, Value(5)}}), 0);
  store.Add(Punctuation::OfConstants(3, {{2, Value(1)}}), 0);
  EXPECT_EQ(store.Retire(0, Value(1)), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.CoversSubspace({0, 1}, {Value(1), Value(5)}, 0));
  EXPECT_TRUE(store.CoversSubspace({0, 1}, {Value(2), Value(5)}, 0));
  EXPECT_TRUE(store.CoversSubspace({2}, {Value(1)}, 0));
}

TEST(PunctuationStoreTest, ForEachVisitsAll) {
  PunctuationStore store;
  store.Add(Punctuation::OfConstants(1, {{0, Value(1)}}), 0);
  store.Add(Punctuation::OfConstants(1, {{0, Value(2)}}), 0);
  size_t count = 0;
  store.ForEachEntry([&](Punctuation, int64_t) { ++count; });
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace punctsafe
