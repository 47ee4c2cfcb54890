// Shared fixtures: the paper's worked examples as reusable builders.
//
// PaperExample encodes the 3-way query of Figures 3/5/7/8/9/10:
//   S1(A, B), S2(B, C), S3(C, A)
//   S1.B = S2.B,  S2.C = S3.C,  S3.A = S1.A
// with the two scheme sets the paper analyzes:
//  * Figure 5 (simple schemes): S1 on B, S2 on C, S3 on A — the
//    punctuation graph is the cycle S2->S1->S3->S2, so the MJoin plan
//    is safe while every binary tree is not (Figure 7);
//  * Figure 8 (arbitrary schemes): {S1 on B, S2 on B, S2 on C,
//    S3 on (A, C)} — the simple graph is not strongly connected but
//    the generalized one is.

#ifndef PUNCTSAFE_TESTS_TEST_UTIL_H_
#define PUNCTSAFE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/tuple_store.h"
#include "query/cjq.h"
#include "stream/catalog.h"
#include "stream/scheme.h"
#include "util/logging.h"

namespace punctsafe {
namespace testing_util {

/// \brief Base seed for randomized test suites. Reads the
/// PUNCTSAFE_TEST_SEED environment variable (any strtoull literal:
/// decimal, 0x-hex, 0-octal) so a failing trial can be replayed by
/// exporting the seed the failure message printed; unset or empty
/// falls back to `default_seed`, keeping CI deterministic.
inline uint64_t TestBaseSeed(uint64_t default_seed = 0) {
  const char* env = std::getenv("PUNCTSAFE_TEST_SEED");
  if (env == nullptr || *env == '\0') return default_seed;
  char* end = nullptr;
  uint64_t value = std::strtoull(env, &end, 0);
  PUNCTSAFE_CHECK(end != env && *end == '\0')
      << "PUNCTSAFE_TEST_SEED is not a number: '" << env << "'";
  return value;
}

inline StreamCatalog PaperCatalog() {
  StreamCatalog catalog;
  PUNCTSAFE_CHECK_OK(catalog.Register("S1", Schema::OfInts({"A", "B"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("S2", Schema::OfInts({"B", "C"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("S3", Schema::OfInts({"C", "A"})));
  return catalog;
}

/// The Figure 3 chain query (two predicates).
inline ContinuousJoinQuery Fig3Query(const StreamCatalog& catalog) {
  auto q = ContinuousJoinQuery::Create(
      catalog, {"S1", "S2", "S3"},
      {Eq({"S1", "B"}, {"S2", "B"}), Eq({"S2", "C"}, {"S3", "C"})});
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  return std::move(q).ValueOrDie();
}

/// The Figure 5 / Figure 8 triangle query (three predicates).
inline ContinuousJoinQuery TriangleQuery(const StreamCatalog& catalog) {
  auto q = ContinuousJoinQuery::Create(
      catalog, {"S1", "S2", "S3"},
      {Eq({"S1", "B"}, {"S2", "B"}), Eq({"S2", "C"}, {"S3", "C"}),
       Eq({"S3", "A"}, {"S1", "A"})});
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  return std::move(q).ValueOrDie();
}

inline PunctuationScheme SchemeOn(const StreamCatalog& catalog,
                                  const std::string& stream,
                                  const std::vector<std::string>& attrs) {
  auto schema = catalog.Get(stream);
  PUNCTSAFE_CHECK(schema.ok());
  auto s = PunctuationScheme::OnAttributes(stream, *schema.ValueOrDie(),
                                           attrs);
  PUNCTSAFE_CHECK(s.ok()) << s.status().ToString();
  return std::move(s).ValueOrDie();
}

/// Figure 5 scheme set: one simple scheme per stream, forming the
/// directed cycle S2 -> S1 -> S3 -> S2 in the punctuation graph.
inline SchemeSet Fig5Schemes(const StreamCatalog& catalog) {
  SchemeSet set;
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S1", {"B"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S2", {"C"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S3", {"A"})));
  return set;
}

/// Figure 8 scheme set: ℜ = {S1(_,+), S2(+,_), S2(_,+), S3(+,+)}.
inline SchemeSet Fig8Schemes(const StreamCatalog& catalog) {
  SchemeSet set;
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S1", {"B"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S2", {"B"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S2", {"C"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S3", {"C", "A"})));
  return set;
}

/// \brief Live slots of `store` whose `offset` attribute equals
/// `value`, in bucket order: the FindBucket + ForBucketLive walk that
/// MJoinOperator::Expand runs, collected into a vector for assertions.
inline std::vector<size_t> LiveSlots(const TupleStore& store, size_t offset,
                                     const Value& value) {
  std::vector<size_t> slots;
  store.ForBucketLive(store.FindBucket(offset, value),
                      [&](size_t slot, const Tuple&) {
                        slots.push_back(slot);
                      });
  return slots;
}

}  // namespace testing_util
}  // namespace punctsafe

#endif  // PUNCTSAFE_TESTS_TEST_UTIL_H_
