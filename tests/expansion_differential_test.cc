// Differential oracle for the batched expansion pipeline (frontier
// probing, SIMD verify prefilter, staged batch emission): a serial
// executor at batch_size > 1 must be result-identical — same result
// multiset AND same emission order — to the batch_size = 1 run. Every
// tuple enters an MJoin as a batch, so that run shares the code under
// test; the independent anchor is ReferenceJoinResults, the
// never-purging nested-loop join, which every run's sorted results
// must equal over the trace's contract-honouring tuples (a tuple that
// its own stream's earlier punctuation excludes is dropped on arrival
// by design, so the reference does not see it either).
// Shapes covered:
//  * join chains of m = 2, 3, 4 inputs (multi-hop frontiers);
//  * the paper's triangle query (a verification predicate on the
//    closing hop, exercising the equal-hash prefilter);
//  * a bushy tree whose inner join has no local predicate (the
//    cross-product fallback of Expand);
//  * sparse and fully-empty selection vectors, produced the way they
//    occur in production: stored punctuations excluding arrivals.
// The sweep also pins the steady-state "no allocation per result"
// property: once the expansion scratch has warmed up, expand_allocs
// stops moving even though results keep flowing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/plan_safety.h"
#include "exec/mjoin.h"
#include "exec/plan_executor.h"
#include "exec/reference_join.h"
#include "exec/tuple_batch.h"
#include "test_util.h"
#include "util/logging.h"

namespace punctsafe {
namespace {

using testing_util::Fig3Query;
using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::TriangleQuery;

// Batch capacities swept against the batch_size = 1 run. 7 keeps
// run boundaries misaligned with key runs, 64 is the throughput
// default, 1024 swallows whole streams into one batch.
const size_t kBatchSweep[] = {7, 64, 1024};

struct RunOutput {
  uint64_t num_results = 0;
  std::vector<Tuple> results;  // exact emission sequence
  size_t live_tuples = 0;
  size_t live_punctuations = 0;
  uint64_t inserted = 0;
  uint64_t purged = 0;
  uint64_t dropped = 0;
};

// The trace without the tuples a punctuation earlier on their own
// stream excludes (no lifespans here, so a punctuation excludes
// forever).
Trace HonoredTrace(const Trace& trace) {
  Trace out;
  std::map<std::string, std::vector<Punctuation>> closed;
  for (const TraceEvent& e : trace) {
    std::vector<Punctuation>& puncts = closed[e.stream];
    if (!e.element.is_tuple()) {
      puncts.push_back(e.element.punctuation);
    } else if (std::any_of(puncts.begin(), puncts.end(),
                           [&](const Punctuation& p) {
                             return p.Matches(e.element.tuple);
                           })) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

RunOutput RunTrace(const ContinuousJoinQuery& query,
                   const SchemeSet& schemes, const PlanShape& shape,
                   const Trace& trace, size_t batch_size,
                   PurgePolicy policy) {
  ExecutorConfig config;
  config.keep_results = true;
  config.batch_size = batch_size;
  config.mjoin.purge_policy = policy;
  config.mjoin.lazy_batch = 3;
  auto exec = PlanExecutor::Create(query, schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  for (const TraceEvent& e : trace) {
    PUNCTSAFE_CHECK_OK((*exec)->Push(e));
  }
  (*exec)->FlushIngest();

  RunOutput out;
  out.num_results = (*exec)->num_results();
  out.results = (*exec)->kept_results();
  std::vector<Tuple> sorted = out.results;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted,
            ReferenceJoinResults(query, HonoredTrace(trace)).ValueOrDie())
      << "batch_size=" << batch_size << " diverged from the reference join";
  out.live_tuples = (*exec)->TotalLiveTuples();
  out.live_punctuations = (*exec)->TotalLivePunctuations();
  for (const auto& op : (*exec)->operators()) {
    StateMetricsSnapshot s = op->AggregateStateSnapshot();
    out.inserted += s.inserted;
    out.purged += s.purged;
    out.dropped += s.dropped_on_arrival;
  }
  return out;
}

// Exact-sequence equality: batching must be invisible, including the
// order results leave the executor (the emission-order invariant of
// the row-major frontier). Probe/allocation counters are execution-
// strategy artifacts and deliberately not compared.
void ExpectSameRun(const RunOutput& ref, const RunOutput& got) {
  EXPECT_EQ(got.num_results, ref.num_results);
  EXPECT_EQ(got.results, ref.results);
  EXPECT_EQ(got.live_tuples, ref.live_tuples);
  EXPECT_EQ(got.live_punctuations, ref.live_punctuations);
  EXPECT_EQ(got.inserted, ref.inserted);
  EXPECT_EQ(got.purged, ref.purged);
  EXPECT_EQ(got.dropped, ref.dropped);
}

// ---------------------------------------------------------------------------
// Chain fixtures: T1(L,R) -- T2(L,R) -- ... with Tk.R = Tk+1.L.

StreamCatalog ChainCatalog(size_t m) {
  StreamCatalog catalog;
  for (size_t k = 1; k <= m; ++k) {
    PUNCTSAFE_CHECK_OK(catalog.Register("T" + std::to_string(k),
                                        Schema::OfInts({"L", "R"})));
  }
  return catalog;
}

ContinuousJoinQuery ChainQuery(const StreamCatalog& catalog, size_t m) {
  std::vector<std::string> streams;
  std::vector<JoinPredicateSpec> predicates;
  for (size_t k = 1; k <= m; ++k) {
    streams.push_back("T" + std::to_string(k));
    if (k < m) {
      predicates.push_back(Eq({"T" + std::to_string(k), "R"},
                              {"T" + std::to_string(k + 1), "L"}));
    }
  }
  auto q = ContinuousJoinQuery::Create(catalog, streams, predicates);
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  return std::move(q).ValueOrDie();
}

SchemeSet ChainSchemes(const StreamCatalog& catalog, size_t m) {
  SchemeSet set;
  for (size_t k = 1; k <= m; ++k) {
    const std::string name = "T" + std::to_string(k);
    PUNCTSAFE_CHECK_OK(set.Add(testing_util::SchemeOn(catalog, name, {"L"})));
    PUNCTSAFE_CHECK_OK(set.Add(testing_util::SchemeOn(catalog, name, {"R"})));
  }
  return set;
}

// Generations of key-clustered runs: generation g links the chain via
// the shared keys g*10 + k, with duplicated rows so batches contain
// equal-key runs, plus never-matching noise rows and punctuations
// closing odd generations (so purge interleaves with expansion and
// later same-key arrivals are excluded — sparse selections).
Trace ChainTrace(size_t m, int64_t generations) {
  Trace trace;
  int64_t ts = 0;
  auto key = [](int64_t g, size_t k) { return g * 10 + static_cast<int64_t>(k); };
  for (int64_t g = 0; g < generations; ++g) {
    for (size_t k = 1; k <= m; ++k) {
      const std::string name = "T" + std::to_string(k);
      const int64_t left = (k == 1) ? 7000 + g : key(g, k - 1);
      const int64_t right = (k == m) ? 8000 + g : key(g, k);
      // A run of equal-key rows (the batch path resolves one bucket
      // per run), one singleton, and a noise row matching nothing.
      trace.push_back({name, StreamElement::OfTuple(
                                 Tuple({Value(left), Value(right)}), ts++)});
      trace.push_back({name, StreamElement::OfTuple(
                                 Tuple({Value(left), Value(right)}), ts++)});
      trace.push_back({name, StreamElement::OfTuple(
                                 Tuple({Value(left), Value(right)}), ts++)});
      trace.push_back(
          {name, StreamElement::OfTuple(
                     Tuple({Value(900000 + g), Value(910000 + g)}), ts++)});
    }
    if (g % 2 == 1) {
      for (size_t k = 1; k + 1 <= m; ++k) {
        // Close Tk.R = key(g, k): purges joined state and turns any
        // later arrival with that key into an excluded (dropped) row.
        trace.push_back(
            {"T" + std::to_string(k),
             StreamElement::OfPunctuation(
                 Punctuation({Pattern(), Pattern(Value(key(g, k)))}), ts++)});
      }
      // Late arrivals into the closed generation: excluded on the
      // batch path via selection-vector compaction.
      trace.push_back(
          {"T1", StreamElement::OfTuple(
                     Tuple({Value(7777), Value(key(g, 1))}), ts++)});
      trace.push_back(
          {"T1", StreamElement::OfTuple(
                     Tuple({Value(7778), Value(key(g, 1))}), ts++)});
    }
  }
  return trace;
}

TEST(ExpansionDifferentialTest, ChainBatchSizesMatchTupleAtATime) {
  for (size_t m : {2u, 3u, 4u}) {
    StreamCatalog catalog = ChainCatalog(m);
    ContinuousJoinQuery query = ChainQuery(catalog, m);
    SchemeSet schemes = ChainSchemes(catalog, m);
    PlanShape shape = PlanShape::SingleMJoin(m);
    Trace trace = ChainTrace(m, 8);
    for (PurgePolicy policy : {PurgePolicy::kEager, PurgePolicy::kLazy}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " policy=" << static_cast<int>(policy));
      RunOutput ref = RunTrace(query, schemes, shape, trace, 1, policy);
      EXPECT_GT(ref.num_results, 0u);
      EXPECT_GT(ref.dropped, 0u) << "trace never exercised exclusion";
      for (size_t batch_size : kBatchSweep) {
        SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
        ExpectSameRun(ref, RunTrace(query, schemes, shape, trace,
                                    batch_size, policy));
      }
    }
  }
}

// The triangle's closing predicate (S3.A = S1.A) is a verification
// predicate on the last hop: the trace floods it with rows that agree
// on the probe key but mostly disagree on A, so the equal-hash
// prefilter and the exact-equality compaction both do real work.
Trace TriangleVerifyHeavyTrace(int64_t generations) {
  Trace trace;
  int64_t ts = 0;
  for (int64_t g = 0; g < generations; ++g) {
    for (int64_t a = 0; a < 4; ++a) {
      trace.push_back(
          {"S1", StreamElement::OfTuple(Tuple({Value(a), Value(g)}), ts++)});
    }
    trace.push_back({"S2", StreamElement::OfTuple(
                               Tuple({Value(g), Value(g * 100)}), ts++)});
    trace.push_back({"S2", StreamElement::OfTuple(
                               Tuple({Value(g), Value(g * 100)}), ts++)});
    // Same probe key C = g*100, A spread over hits and misses.
    for (int64_t a = 0; a < 6; ++a) {
      trace.push_back({"S3", StreamElement::OfTuple(
                                 Tuple({Value(g * 100), Value(a)}), ts++)});
    }
    if (g % 3 == 2) {
      trace.push_back(
          {"S1", StreamElement::OfPunctuation(
                     Punctuation({Pattern(), Pattern(Value(g))}), ts++)});
      trace.push_back(
          {"S2", StreamElement::OfPunctuation(
                     Punctuation({Pattern(), Pattern(Value(g * 100))}), ts++)});
    }
  }
  return trace;
}

TEST(ExpansionDifferentialTest, TriangleVerifyHeavyMatchesTupleAtATime) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  PlanShape shape = PlanShape::SingleMJoin(3);
  Trace trace = TriangleVerifyHeavyTrace(9);
  for (PurgePolicy policy : {PurgePolicy::kEager, PurgePolicy::kLazy}) {
    SCOPED_TRACE(::testing::Message() << "policy=" << static_cast<int>(policy));
    RunOutput ref = RunTrace(query, schemes, shape, trace, 1, policy);
    EXPECT_GT(ref.num_results, 0u);
    for (size_t batch_size : kBatchSweep) {
      SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
      ExpectSameRun(ref, RunTrace(query, schemes, shape, trace,
                                  batch_size, policy));
    }
  }
}

// Bushy shape over the Figure 3 chain whose inner join pairs S1 with
// S3 — streams with no predicate between them. The inner operator's
// expansion takes the cross-product fallback every push; the outer
// join then filters via both chain predicates. (The shape is not
// purge-safe, so it runs without purging — the differential contract
// is about results, not state bounds.)
TEST(ExpansionDifferentialTest, CrossProductFallbackMatchesTupleAtATime) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query = Fig3Query(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  PlanShape shape = PlanShape::Join(
      {PlanShape::Join({PlanShape::Leaf(0), PlanShape::Leaf(2)}),
       PlanShape::Leaf(1)});

  Trace trace;
  int64_t ts = 0;
  for (int64_t g = 0; g < 6; ++g) {
    for (int64_t a = 0; a < 3; ++a) {
      trace.push_back(
          {"S1", StreamElement::OfTuple(Tuple({Value(a), Value(g)}), ts++)});
      trace.push_back({"S3", StreamElement::OfTuple(
                                 Tuple({Value(g * 100), Value(a)}), ts++)});
    }
    trace.push_back({"S2", StreamElement::OfTuple(
                               Tuple({Value(g), Value(g * 100)}), ts++)});
  }

  RunOutput ref =
      RunTrace(query, schemes, shape, trace, 1, PurgePolicy::kNone);
  EXPECT_GT(ref.num_results, 0u);
  for (size_t batch_size : kBatchSweep) {
    SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
    ExpectSameRun(ref, RunTrace(query, schemes, shape, trace, batch_size,
                                PurgePolicy::kNone));
  }
}

// Selection-vector shapes the exclusion filter produces: a batch
// whose every row is excluded (empty selection — the expansion must
// not run at all) and batches with holes (sparse selection seeding
// the frontier). Driven through stored punctuations, as in prod.
TEST(ExpansionDifferentialTest, SparseAndEmptySelectionsMatch) {
  StreamCatalog catalog = ChainCatalog(2);
  ContinuousJoinQuery query = ChainQuery(catalog, 2);
  SchemeSet schemes = ChainSchemes(catalog, 2);
  PlanShape shape = PlanShape::SingleMJoin(2);

  Trace trace;
  int64_t ts = 0;
  trace.push_back({"T2", StreamElement::OfTuple(
                             Tuple({Value(5), Value(50)}), ts++)});
  trace.push_back({"T2", StreamElement::OfTuple(
                             Tuple({Value(6), Value(60)}), ts++)});
  // Close T1.R = 5 before any T1 arrival carries it.
  trace.push_back({"T1", StreamElement::OfPunctuation(
                             Punctuation({Pattern(), Pattern(Value(5))}),
                             ts++)});
  // A full run of excluded rows: at batch_size <= 8 some delivered
  // batch consists only of excluded rows (empty selection).
  for (int64_t i = 0; i < 8; ++i) {
    trace.push_back({"T1", StreamElement::OfTuple(
                               Tuple({Value(100 + i), Value(5)}), ts++)});
  }
  // Interleaved excluded / live rows: sparse selection.
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t r = (i % 2 == 0) ? 5 : 6;
    trace.push_back({"T1", StreamElement::OfTuple(
                               Tuple({Value(200 + i), Value(r)}), ts++)});
  }

  RunOutput ref =
      RunTrace(query, schemes, shape, trace, 1, PurgePolicy::kEager);
  EXPECT_EQ(ref.num_results, 4u);  // the four R=6 rows join once each
  EXPECT_EQ(ref.dropped, 12u);     // 8 + 4 excluded arrivals
  for (size_t batch_size : kBatchSweep) {
    SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
    ExpectSameRun(ref, RunTrace(query, schemes, shape, trace, batch_size,
                                PurgePolicy::kEager));
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation pin.

std::vector<LocalInput> RawInputs(const ContinuousJoinQuery& q,
                                  const SchemeSet& schemes) {
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < q.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(q, schemes, s)});
  }
  return inputs;
}

// Once the expansion scratch (frontier columns, hash/pair columns,
// staged output batch) has grown to the workload's working set,
// further batches reuse it: expand_allocs must stay exactly flat
// while results keep being produced. Inline-width int values keep
// result copying allocation-free as well.
TEST(ExpansionDifferentialTest, ExpandAllocsPinnedAtZeroInSteadyState) {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery q = TriangleQuery(catalog);
  SchemeSet schemes = Fig5Schemes(catalog);
  MJoinConfig config;
  config.purge_policy = PurgePolicy::kNone;
  auto op = MJoinOperator::Create(q, RawInputs(q, schemes), config);
  ASSERT_TRUE(op.ok()) << op.status().ToString();

  uint64_t results = 0;
  (*op)->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) ++results;
  });
  (*op)->SetBatchEmitter([&](TupleBatch& b) { results += b.size(); });

  // One round = the same batch shapes over a round-private key range,
  // so every round triangulates only within itself and each round's
  // frontier working set is identical.
  auto round = [&](int64_t base, int64_t ts) {
    TupleBatch s2(8), s3(8), s1(8);
    for (int64_t i = 0; i < 2; ++i) {
      s2.Append(Tuple({Value(base + 1), Value(base + 2)}), ts++);
    }
    for (int64_t a = 0; a < 3; ++a) {
      s3.Append(Tuple({Value(base + 2), Value(base + 3 + a)}), ts++);
    }
    for (int64_t a = 0; a < 3; ++a) {
      // Runs of the probe key B = base+1; A spans S3 hits and misses.
      s1.Append(Tuple({Value(base + 3 + a), Value(base + 1)}), ts++);
      s1.Append(Tuple({Value(base + 90 + a), Value(base + 1)}), ts++);
    }
    (*op)->PushBatch(1, s2);
    (*op)->PushBatch(2, s3);
    (*op)->PushBatch(0, s1);
  };

  auto expand_allocs = [&] {
    return (*op)->AggregateStateSnapshot().expand_allocs;
  };

  round(0, 0);  // warm-up: the scratch grows here...
  EXPECT_GT(expand_allocs(), 0u);
  EXPECT_GT(results, 0u);

  const uint64_t warmed = expand_allocs();
  const uint64_t results_warmed = results;
  for (int64_t r = 1; r <= 5; ++r) {
    round(r * 1000, r * 100);  // ...and never again.
  }
  EXPECT_GT(results, results_warmed) << "steady-state rounds were inert";
  EXPECT_EQ(expand_allocs(), warmed)
      << "expansion allocated after warm-up (expand_allocs moved)";
}

}  // namespace
}  // namespace punctsafe
