#include "stream/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>

namespace punctsafe {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, Int64RoundTrip) {
  Value v(int64_t{42});
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 42);
  Value w(7);  // int literal promotes to int64
  EXPECT_EQ(w.AsInt64(), 7);
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v(2.5);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST(ValueTest, StringRoundTrip) {
  Value v("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
}

TEST(ValueTest, EqualityIsTypeStrict) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value(1.0));  // int64 != double
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_NE(Value::Null(), Value(0));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, TotalOrderIsConsistent) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
  // Cross-type order is by type index: null < int64 < double < string.
  EXPECT_LT(Value::Null(), Value(0));
  EXPECT_LT(Value(int64_t{99}), Value(0.0));
  EXPECT_LT(Value(1e18), Value(""));
}

TEST(ValueTest, HashAgreesWithEquality) {
  EXPECT_EQ(Value(5).Hash(), Value(5).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  // Different types with "same" content should not collide trivially.
  EXPECT_NE(Value(1).Hash(), Value(1.0).Hash());
}

TEST(ValueTest, UsableInHashContainers) {
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value(1));
  set.insert(Value(1));
  set.insert(Value("1"));
  set.insert(Value::Null());
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.count(Value(1)));
  EXPECT_FALSE(set.count(Value(2)));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(7).ToString(), "7");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

// The literals are what the earlier std::ostringstream rendering
// produced (default stream flags: %g, six significant digits); the
// server's RESULT bytes must not change.
TEST(ValueTest, AppendToMatchesStreamRendering) {
  using Limits = std::numeric_limits<double>;
  const std::pair<Value, const char*> cases[] = {
      {Value(std::numeric_limits<int64_t>::min()), "-9223372036854775808"},
      {Value(std::numeric_limits<int64_t>::max()), "9223372036854775807"},
      {Value(0.0), "0"},
      {Value(-0.0), "-0"},
      {Value(0.1), "0.1"},
      {Value(1e-5), "1e-05"},
      {Value(1e16), "1e+16"},
      {Value(1e20), "1e+20"},
      {Value(123456789.0), "1.23457e+08"},
      {Value(Limits::infinity()), "inf"},
      {Value(-Limits::infinity()), "-inf"},
      {Value(Limits::quiet_NaN()), "nan"},
      {Value(Limits::denorm_min()), "4.94066e-324"},
      {Value(Limits::max()), "1.79769e+308"},
      {Value(""), "\"\""},
      {Value("sixteen-byte-str"), "\"sixteen-byte-str\""},  // inline
      {Value("seventeen-byte-st"), "\"seventeen-byte-st\""},  // owned
      {Value::Null(), "null"},
  };
  for (const auto& [value, want] : cases) {
    EXPECT_EQ(value.ToString(), want);
    std::string appended = "x ";
    value.AppendTo(&appended);
    EXPECT_EQ(appended, std::string("x ") + want);
  }
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeToString(ValueType::kInt64), "int64");
  EXPECT_STREQ(ValueTypeToString(ValueType::kString), "string");
  EXPECT_STREQ(ValueTypeToString(ValueType::kNull), "null");
  EXPECT_STREQ(ValueTypeToString(ValueType::kDouble), "double");
}

}  // namespace
}  // namespace punctsafe
