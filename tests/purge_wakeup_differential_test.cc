// Differential oracle for the chained-purge wait index: an executor
// whose operators purge through blocking-key wakes must behave like
// the same executor with every operator switched to the full-sweep
// reference (every purge pass re-checks every live tuple;
// tests/mjoin_test_peer.h). On contract-respecting traces:
//  * results are identical, emission order included;
//  * after every event each operator input's live multiset is a
//    subset of the reference's (wakes run to a fixpoint, the reference
//    is one pass), so state high water is <= the reference's;
//  * on traces that close every generation, total removals (purged +
//    dropped on arrival) are equal once SweepAll reaches its fixpoint;
//  * without a lifespan, the stored punctuations are then equal too:
//    the event-driven retirement (a punctuation's arrival, a tuple's
//    purge) finishes the same join values as the reference's scan of
//    every store on every pass.
// Trace families: covering traces (uniform and zipf) over random
// queries with m = 2..5 streams, the auction, network and sensor
// workloads (sensor has two-attribute schemes, so generalized edges
// with more than one source). Configurations: eager, lazy, eager and
// lazy with a punctuation lifespan, and an ingest batch size > 1 (the
// PushBatch eager loop). Every configuration retires punctuations. Explicit cases: a
// tuple whose blocking combination leaves with a purged partner (only
// the partner-purge wake re-keys it), a pass at an earlier timestamp
// than a parked check under a lifespan, a stream end retiring through
// the scan, and a checkpoint restore in the middle of a trace.
//
// The file also pins the purge path allocation-free: a test-local
// counting operator new shows that, once a chain trace has been
// replayed to warm the scratch up, the removability checks of a second
// replay — on-arrival and in wake passes — allocate nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "mjoin_test_peer.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/auction.h"
#include "workload/network.h"
#include "workload/random_query.h"
#include "workload/sensor.h"

// Counting global allocator: counts only while `g_count_allocs` is set.
// Every non-aligned form is replaced, so each allocation and its
// release go through the same malloc/free pair (sanitizer runtimes
// check that new and delete match).
namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* CountedAllocOrThrow(size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](size_t size) { return CountedAllocOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
// The pairs are matched malloc/free replacements; GCC cannot see that
// through the replaceable-function declarations.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace punctsafe {
namespace {

struct Variant {
  std::string name;
  PurgePolicy policy = PurgePolicy::kEager;
  std::optional<int64_t> lifespan;
  size_t batch_size = 1;
};

Variant Eager() {
  Variant v;
  v.name = "eager";
  return v;
}
Variant Lazy() {
  Variant v;
  v.name = "lazy";
  v.policy = PurgePolicy::kLazy;
  return v;
}

std::vector<Variant> Variants(std::optional<int64_t> lifespan) {
  std::vector<Variant> v{Eager(), Lazy()};
  v.push_back(Eager());
  v.back().name = "eager+batch16";
  v.back().batch_size = 16;
  if (lifespan.has_value()) {
    v.push_back(Eager());
    v.back().name = "eager+lifespan";
    v.back().lifespan = lifespan;
    v.push_back(Lazy());
    v.back().name = "lazy+lifespan";
    v.back().lifespan = lifespan;
  }
  return v;
}

ExecutorConfig ConfigOf(const Variant& v) {
  ExecutorConfig config;
  config.keep_results = true;
  config.batch_size = v.batch_size;
  config.mjoin.purge_policy = v.policy;
  config.mjoin.lazy_batch = 3;
  config.mjoin.punctuation_lifespan = v.lifespan;
  return config;
}

std::unique_ptr<PlanExecutor> MakeExecutor(const ContinuousJoinQuery& query,
                                           const SchemeSet& schemes,
                                           const PlanShape& shape,
                                           const ExecutorConfig& config,
                                           bool reference) {
  auto exec = PlanExecutor::Create(query, schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  if (reference) {
    for (const auto& op : (*exec)->operators()) {
      MJoinTestPeer::UseFullSweepReference(op.get());
    }
  }
  return std::move(exec).ValueOrDie();
}

// Sorted live tuples per (operator, input).
std::vector<std::vector<Tuple>> LiveSets(const PlanExecutor& exec) {
  std::vector<std::vector<Tuple>> sets;
  for (const auto& op : exec.operators()) {
    OperatorStateSnapshot snap = op->CaptureState();
    for (InputStateSnapshot& in : snap.inputs) {
      std::sort(in.tuples.begin(), in.tuples.end());
      sets.push_back(std::move(in.tuples));
    }
  }
  return sets;
}

void ExpectLiveSubset(const PlanExecutor& got, const PlanExecutor& ref,
                      const std::string& where) {
  std::vector<std::vector<Tuple>> g = LiveSets(got);
  std::vector<std::vector<Tuple>> r = LiveSets(ref);
  ASSERT_EQ(g.size(), r.size());
  for (size_t i = 0; i < g.size(); ++i) {
    ASSERT_TRUE(std::includes(r[i].begin(), r[i].end(), g[i].begin(),
                              g[i].end()))
        << where << ": operator input #" << i << " holds " << g[i].size()
        << " live tuples that are not a subset of the reference's "
        << r[i].size();
  }
}

// Stored punctuations per (operator, input), rendered and sorted.
std::vector<std::vector<std::string>> StoredPunctuations(
    const PlanExecutor& exec) {
  std::vector<std::vector<std::string>> sets;
  for (const auto& op : exec.operators()) {
    for (const InputStateSnapshot& in : op->CaptureState().inputs) {
      std::vector<std::string>& set = sets.emplace_back();
      for (const PunctuationEntry& e : in.punctuations) {
        set.push_back(e.punctuation.ToString());
      }
      std::sort(set.begin(), set.end());
    }
  }
  return sets;
}

uint64_t Removed(const PlanExecutor& exec) {
  uint64_t removed = 0;
  for (const auto& op : exec.operators()) {
    StateMetricsSnapshot s = op->AggregateStateSnapshot();
    removed += s.purged + s.dropped_on_arrival;
  }
  return removed;
}

size_t HighWater(const PlanExecutor& exec, size_t op, size_t input) {
  return exec.operators()[op]->state_metrics(input).high_water.load();
}

void SweepToFixpoint(PlanExecutor* exec, int64_t now) {
  size_t prev;
  do {
    prev = exec->TotalLiveTuples();
    exec->SweepAll(now);
  } while (exec->TotalLiveTuples() != prev);
}

int64_t MaxTimestamp(const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& e : trace) {
    max_ts = std::max(max_ts, e.element.timestamp);
  }
  return max_ts;
}

// Feeds `trace` to the wait-index executor and the full-sweep
// reference side by side and checks the contract above. With
// `restore_at`, the wait-index executor is checkpointed after that
// many events and replaced by a fresh executor restored from the
// snapshot, which then runs the rest of the trace. Live sets are
// compared after every event, or only after punctuations when
// `every_event` is false (for traces with thousands of live tuples).
void RunDifferential(const ContinuousJoinQuery& query,
                     const SchemeSet& schemes, const PlanShape& shape,
                     const Trace& trace, const Variant& variant,
                     bool closes_every_generation, const std::string& label,
                     std::optional<size_t> restore_at = std::nullopt,
                     bool every_event = true) {
  SCOPED_TRACE(label + " [" + variant.name + "]");
  const ExecutorConfig config = ConfigOf(variant);
  std::unique_ptr<PlanExecutor> got =
      MakeExecutor(query, schemes, shape, config, false);
  std::unique_ptr<PlanExecutor> ref =
      MakeExecutor(query, schemes, shape, config, true);

  // Results emitted before a restore come back from the snapshot in
  // canonical (sorted) order; the ones after it must match exactly.
  size_t restored_results = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (restore_at.has_value() && i == *restore_at) {
      got->FlushIngest();
      ref->FlushIngest();
      restored_results = got->kept_results().size();
      StateSnapshot snap = got->Checkpoint();
      got = MakeExecutor(query, schemes, shape, config, false);
      ASSERT_TRUE(got->RestoreState(snap).ok());
    }
    ASSERT_TRUE(got->Push(trace[i]).ok());
    ASSERT_TRUE(ref->Push(trace[i]).ok());
    ASSERT_EQ(got->num_results(), ref->num_results()) << "event " << i;
    // Buffered ingest batches deliver at the same points in both, so
    // the comparison holds at every event boundary.
    if (every_event || trace[i].element.is_punctuation()) {
      ExpectLiveSubset(*got, *ref, "event " + std::to_string(i));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::vector<Tuple> got_results = got->kept_results();
  std::vector<Tuple> ref_results = ref->kept_results();
  ASSERT_EQ(got_results.size(), ref_results.size());
  std::sort(got_results.begin(), got_results.begin() + restored_results);
  std::sort(ref_results.begin(), ref_results.begin() + restored_results);
  EXPECT_TRUE(got_results == ref_results) << "result sequence diverged";

  const int64_t end = MaxTimestamp(trace) + 1;
  SweepToFixpoint(got.get(), end);
  SweepToFixpoint(ref.get(), end);
  ExpectLiveSubset(*got, *ref, "after SweepAll");
  for (size_t op = 0; op < got->operators().size(); ++op) {
    for (size_t in = 0; in < got->operators()[op]->num_inputs(); ++in) {
      EXPECT_LE(HighWater(*got, op, in), HighWater(*ref, op, in))
          << "operator " << op << " input " << in;
    }
  }
  if (closes_every_generation && !variant.lifespan.has_value()) {
    EXPECT_EQ(Removed(*got), Removed(*ref)) << "purge totals diverged";
    EXPECT_EQ(got->TotalLiveTuples(), ref->TotalLiveTuples());
  }
  // Under a lifespan the reference's later scan can see a promise
  // expired that the event path retired while it was live.
  if (!variant.lifespan.has_value()) {
    EXPECT_TRUE(StoredPunctuations(*got) == StoredPunctuations(*ref))
        << "stored punctuations diverged";
  }
}

// ---------------------------------------------------------------------------
// Covering traces over random queries.

TEST(PurgeWakeupDifferentialTest, RandomQueriesCoveringTraces) {
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (size_t m = 2; m <= 5; ++m) {
    for (uint64_t trial = 0; trial < 4; ++trial) {
      const uint64_t seed = base_seed + m * 100 + trial;
      RandomQueryConfig qconfig;
      qconfig.num_streams = m;
      qconfig.attrs_per_stream = 2;
      qconfig.extra_predicates = trial % 2;
      qconfig.multi_attr_prob = 0.3;
      qconfig.schemeless_prob = trial == 3 ? 0.3 : 0.0;
      qconfig.seed = seed * 31 + 7;
      auto inst = MakeRandomQuery(qconfig);
      ASSERT_TRUE(inst.ok()) << inst.status().ToString();

      CoveringTraceConfig tconfig;
      tconfig.num_generations = 6;
      tconfig.values_per_generation = 3;
      tconfig.tuples_per_generation = 8 + 3 * m;
      tconfig.zipf_s = trial % 2 == 0 ? 0.0 : 1.0;
      tconfig.seed = seed;
      Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);
      const int64_t lifespan = static_cast<int64_t>(trace.size());

      std::vector<PlanShape> shapes{PlanShape::SingleMJoin(m)};
      if (m >= 3) {
        std::vector<size_t> order(m);
        for (size_t i = 0; i < m; ++i) order[i] = i;
        shapes.push_back(PlanShape::LeftDeepBinary(order));
      }
      for (const PlanShape& shape : shapes) {
        for (const Variant& v : Variants(lifespan)) {
          RunDifferential(inst->query, inst->schemes, shape, trace, v, true,
                          "m=" + std::to_string(m) +
                              " seed=" + std::to_string(seed) + " " +
                              shape.ToString(inst->query));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workload traces.

struct Workload {
  QueryRegister reg;
  ContinuousJoinQuery query;
};

template <typename W>
std::unique_ptr<Workload> SetUpWorkload() {
  auto w = std::make_unique<Workload>();
  PUNCTSAFE_CHECK_OK(W::Setup(&w->reg));
  auto q = ContinuousJoinQuery::Create(w->reg.catalog(), W::QueryStreams(),
                                       W::QueryPredicates());
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  w->query = std::move(q).ValueOrDie();
  return w;
}

TEST(PurgeWakeupDifferentialTest, AuctionTrace) {
  auto w = SetUpWorkload<AuctionWorkload>();
  AuctionConfig config;
  config.num_items = 60;
  config.bids_per_item = 5;
  config.max_open = 6;
  config.seed = testing_util::TestBaseSeed(42);
  Trace trace = AuctionWorkload::Generate(config);
  for (const Variant& v : Variants(std::nullopt)) {
    RunDifferential(w->query, w->reg.schemes(), PlanShape::SingleMJoin(2),
                    trace, v, true, "auction");
  }
}

TEST(PurgeWakeupDifferentialTest, NetworkTraceWithLifespan) {
  auto w = SetUpWorkload<NetworkWorkload>();
  NetworkConfig config;
  config.num_flows = 60;
  config.seed = testing_util::TestBaseSeed(7);
  Trace trace = NetworkWorkload::Generate(config);
  // Flow ids recycle, so the trace honors its punctuations only under
  // the recommended lifespan: every variant runs with it.
  const int64_t lifespan = NetworkWorkload::RecommendedLifespan(config);
  for (Variant v : Variants(lifespan)) {
    v.lifespan = lifespan;
    RunDifferential(w->query, w->reg.schemes(),
                    PlanShape::SingleMJoin(w->query.num_streams()), trace, v,
                    false, "network");
  }
}

TEST(PurgeWakeupDifferentialTest, SensorTraceTwoAttributeSchemes) {
  auto w = SetUpWorkload<SensorWorkload>();
  SensorConfig config;
  config.num_sensors = 5;
  config.num_epochs = 8;
  config.seed = testing_util::TestBaseSeed(11);
  Trace trace = SensorWorkload::Generate(config);
  for (const Variant& v : Variants(static_cast<int64_t>(trace.size()))) {
    RunDifferential(w->query, w->reg.schemes(),
                    PlanShape::SingleMJoin(w->query.num_streams()), trace, v,
                    true, "sensor");
  }
}

// ---------------------------------------------------------------------------
// Explicit cases.

// T0(a) - T1(a, b, c) - T2(b, c): T1 joins T2 on both b and c, and T2
// has a scheme on each, so T2 can close through either column.
struct TwoRoute {
  StreamCatalog catalog;
  SchemeSet schemes;
  ContinuousJoinQuery query;
};

std::unique_ptr<TwoRoute> MakeTwoRoute() {
  auto w = std::make_unique<TwoRoute>();
  PUNCTSAFE_CHECK_OK(w->catalog.Register("T0", Schema::OfInts({"a"})));
  PUNCTSAFE_CHECK_OK(
      w->catalog.Register("T1", Schema::OfInts({"a", "b", "c"})));
  PUNCTSAFE_CHECK_OK(w->catalog.Register("T2", Schema::OfInts({"b", "c"})));
  for (auto [stream, attr] : {std::pair{"T0", "a"}, std::pair{"T1", "a"},
                              std::pair{"T2", "b"}, std::pair{"T2", "c"}}) {
    PUNCTSAFE_CHECK_OK(
        w->schemes.Add(testing_util::SchemeOn(w->catalog, stream, {attr})));
  }
  auto q = ContinuousJoinQuery::Create(
      w->catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "a"}, {"T1", "a"}), Eq({"T1", "b"}, {"T2", "b"}),
       Eq({"T1", "c"}, {"T2", "c"})});
  PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
  w->query = std::move(q).ValueOrDie();
  return w;
}

TraceEvent TupleEvent(const std::string& stream, std::vector<int64_t> values,
                      int64_t ts) {
  std::vector<Value> row;
  for (int64_t v : values) row.push_back(Value(v));
  return {stream, StreamElement::OfTuple(Tuple(std::move(row)), ts)};
}
TraceEvent PunctEvent(const std::string& stream, size_t arity, size_t attr,
                      int64_t value, int64_t ts) {
  return {stream, StreamElement::OfPunctuation(
                      Punctuation::OfConstants(arity, {{attr, Value(value)}}),
                      ts)};
}

// t in T0 joins u1 = (1, b1, c1) and u2 = (1, b2, c2) in T1. Once T1
// closes a = 1, t's check stalls on both routes into T2, keyed on the
// first open combination of each — one from u1's row, one from u2's,
// depending on hash order. T2 closing c = c1 purges u1 (T0 closed too)
// without touching t's keys when t waits on c2; after that, T2 closing
// b = b2 alone frees t. If t waited on b1 — a combination that left
// with u1 — only the wake from u1's purge re-keys t onto b2; without it
// t would outlive the reference, which re-checks everything. The value
// assignments are permuted so some run hits that hash order.
TEST(PurgeWakeupDifferentialTest, PartnerPurgeRekeysStaleWaiter) {
  auto w = MakeTwoRoute();
  for (int64_t flip_b = 0; flip_b < 2; ++flip_b) {
    for (int64_t flip_c = 0; flip_c < 2; ++flip_c) {
      const int64_t b1 = 10 + flip_b, b2 = 11 - flip_b;
      const int64_t c1 = 20 + flip_c, c2 = 21 - flip_c;
      int64_t ts = 0;
      Trace trace;
      trace.push_back(TupleEvent("T0", {1}, ++ts));
      trace.push_back(TupleEvent("T1", {1, b1, c1}, ++ts));
      trace.push_back(TupleEvent("T1", {1, b2, c2}, ++ts));
      trace.push_back(PunctEvent("T0", 1, 0, 1, ++ts));
      trace.push_back(PunctEvent("T1", 3, 0, 1, ++ts));
      trace.push_back(PunctEvent("T2", 2, 1, c1, ++ts));  // purges u1
      trace.push_back(PunctEvent("T2", 2, 0, b2, ++ts));  // frees t, u2
      for (const Variant& v : {Eager(), Lazy()}) {
        RunDifferential(w->query, w->schemes, PlanShape::SingleMJoin(3),
                        trace, v, false,
                        "b1=" + std::to_string(b1) +
                            " c1=" + std::to_string(c1));
      }
      // Eager: t and both partners are gone after the last pass.
      std::unique_ptr<PlanExecutor> got =
          MakeExecutor(w->query, w->schemes, PlanShape::SingleMJoin(3),
                       ConfigOf(Eager()), false);
      for (const TraceEvent& e : trace) ASSERT_TRUE(got->Push(e).ok());
      EXPECT_EQ(got->TotalLiveTuples(), 0u)
          << "b1=" << b1 << " c1=" << c1;
    }
  }
}

// Under a lifespan, a check sees a punctuation expired at its own
// timestamp that a pass at an earlier timestamp sees live. t = (1)
// arrives in T0 at ts 100, after T1 closed a = 1 at ts 1 with lifespan
// 10, and parks on that closure; a punctuation closing nothing t waits
// on then arrives out of order at ts 3, where T1's is live again. The
// reference's pass at ts 3 purges t, so the wait-index pass must
// re-check everything when time runs backwards.
TEST(PurgeWakeupDifferentialTest, PassAtEarlierTimeUnderLifespan) {
  auto w = MakeTwoRoute();
  Trace trace;
  trace.push_back(PunctEvent("T1", 3, 0, 1, 1));
  trace.push_back(TupleEvent("T0", {1}, 100));
  trace.push_back(PunctEvent("T0", 1, 0, 5, 3));
  Variant v = Eager();
  v.name = "eager+lifespan";
  v.lifespan = 10;
  RunDifferential(w->query, w->schemes, PlanShape::SingleMJoin(3), trace, v,
                  false, "out-of-order pass");
  std::unique_ptr<PlanExecutor> got = MakeExecutor(
      w->query, w->schemes, PlanShape::SingleMJoin(3), ConfigOf(v), false);
  for (const TraceEvent& e : trace) ASSERT_TRUE(got->Push(e).ok());
  EXPECT_EQ(got->TotalLiveTuples(), 0u);
}

// An all-wildcard punctuation (a stream's end) covers every value of
// its input at once, so it schedules a scan of the stores rather than
// testing one value: T1's promise on a = 1 retires once T0 ends.
TEST(PurgeWakeupDifferentialTest, StreamEndRetiresThroughTheScan) {
  auto w = MakeTwoRoute();
  Trace trace;
  trace.push_back(PunctEvent("T1", 3, 0, 1, 1));
  trace.push_back(TupleEvent("T1", {2, 10, 20}, 2));
  trace.push_back(
      {"T0", StreamElement::OfPunctuation(
                 Punctuation(std::vector<Pattern>(1)), 3)});
  for (const Variant& v : {Eager(), Lazy()}) {
    RunDifferential(w->query, w->schemes, PlanShape::SingleMJoin(3), trace,
                    v, false, "stream end");
  }
  std::unique_ptr<PlanExecutor> got =
      MakeExecutor(w->query, w->schemes, PlanShape::SingleMJoin(3),
                   ConfigOf(Eager()), false);
  for (const TraceEvent& e : trace) ASSERT_TRUE(got->Push(e).ok());
  EXPECT_EQ(got->operators()[0]->punctuations_purged(), 1u);
  EXPECT_EQ(got->TotalLivePunctuations(), 1u);  // the end itself stays
}

// Restore in the middle of covering traces: the restored operator's
// wait index is rebuilt from scratch, and it must still track the
// uninterrupted reference.
TEST(PurgeWakeupDifferentialTest, RestoreMidTrace) {
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  for (size_t m = 2; m <= 4; ++m) {
    RandomQueryConfig qconfig;
    qconfig.num_streams = m;
    qconfig.attrs_per_stream = 2;
    qconfig.schemeless_prob = 0.0;
    qconfig.seed = base_seed + 900 + m;
    auto inst = MakeRandomQuery(qconfig);
    ASSERT_TRUE(inst.ok());
    CoveringTraceConfig tconfig;
    tconfig.num_generations = 6;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 12;
    tconfig.seed = base_seed + m;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);
    for (const Variant& v : {Eager(), Lazy()}) {
      // Generations are 24..32 events long: restore inside generation
      // 4's tuples, and (m = 4) inside its closing punctuations.
      for (size_t at : {trace.size() / 2 + 5, trace.size() / 2 + 14}) {
        RunDifferential(inst->query, inst->schemes, PlanShape::SingleMJoin(m),
                        trace, v, true,
                        "restore m=" + std::to_string(m) +
                            " at=" + std::to_string(at),
                        at);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation pin.

// The shifted copy of a covering trace: every value + `shift`, every
// timestamp + `ts_shift` (same structure, fresh generations).
Trace Shifted(const Trace& trace, int64_t shift, int64_t ts_shift) {
  Trace out;
  for (const TraceEvent& e : trace) {
    const int64_t ts = e.element.timestamp + ts_shift;
    if (e.element.is_tuple()) {
      std::vector<Value> values;
      for (const Value& v : e.element.tuple.values()) {
        values.push_back(Value(v.AsInt64() + shift));
      }
      out.push_back({e.stream, StreamElement::OfTuple(
                                   Tuple(std::move(values)), ts)});
    } else {
      std::vector<Pattern> patterns;
      for (const Pattern& p : e.element.punctuation.patterns()) {
        if (p.is_wildcard()) {
          patterns.push_back(Pattern());
        } else {
          patterns.push_back(Pattern(Value(p.constant().AsInt64() + shift)));
        }
      }
      out.push_back({e.stream, StreamElement::OfPunctuation(
                                   Punctuation(std::move(patterns)), ts)});
    }
  }
  return out;
}

TEST(PurgeWakeupAllocationTest, RemovabilityChecksAllocateNothingWhenWarm) {
  StreamCatalog catalog;
  SchemeSet schemes;
  std::vector<std::string> streams{"T0", "T1", "T2"};
  for (const std::string& name : streams) {
    PUNCTSAFE_CHECK_OK(catalog.Register(name, Schema::OfInts({"k", "v"})));
    PUNCTSAFE_CHECK_OK(
        schemes.Add(testing_util::SchemeOn(catalog, name, {"k"})));
  }
  auto q = ContinuousJoinQuery::Create(
      catalog, streams,
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
  ASSERT_TRUE(q.ok());
  CoveringTraceConfig tconfig;
  tconfig.num_generations = 30;
  tconfig.values_per_generation = 8;
  tconfig.tuples_per_generation = 60;
  tconfig.seed = 3;
  const Trace trace = MakeCoveringTrace(*q, schemes, tconfig);
  const int64_t span = MaxTimestamp(trace);

  std::unique_ptr<PlanExecutor> exec = MakeExecutor(
      *q, schemes, PlanShape::SingleMJoin(3), ConfigOf(Eager()), false);
  MJoinOperator* op = exec->operators()[0].get();
  for (const TraceEvent& e : trace) ASSERT_TRUE(exec->Push(e).ok());  // warm

  // Second replay. Before each tuple push, its on-arrival check runs
  // once under the counter (the push then repeats it). Around each
  // punctuation, every tuple live before it is checked under the
  // counter once its wake pass is done — a superset of what the pass
  // re-checked, including the tuples it purged (removability only
  // grows as partners go, so those check removable again).
  const Trace replay = Shifted(trace, 100000, span);
  uint64_t checks = 0;
  uint64_t removable = 0;
  auto counted_check = [&](size_t input, const Tuple& tuple, int64_t now) {
    g_count_allocs.store(true);
    const bool r = MJoinTestPeer::Removable(op, input, tuple, now);
    g_count_allocs.store(false);
    ++checks;
    removable += r ? 1 : 0;
  };
  for (const TraceEvent& e : replay) {
    const size_t input = *q->StreamIndex(e.stream);
    if (e.element.is_tuple()) {
      counted_check(input, e.element.tuple, e.element.timestamp);
    }
    OperatorStateSnapshot live;
    if (e.element.is_punctuation()) live = op->CaptureState();  // uncounted
    ASSERT_TRUE(exec->Push(e).ok());
    if (e.element.is_punctuation()) {
      for (size_t k = 0; k < live.inputs.size(); ++k) {
        for (const Tuple& t : live.inputs[k].tuples) {
          counted_check(k, t, e.element.timestamp);
        }
      }
    }
  }
  EXPECT_GT(checks, 1000u);
  EXPECT_GT(removable, 0u) << "no check reached the removable outcome";
  EXPECT_LT(removable, checks) << "no check stalled";
  EXPECT_EQ(g_allocs.load(), 0u)
      << "removability checks allocated after warm-up";
  EXPECT_EQ(exec->TotalLiveTuples(), 0u);
}

}  // namespace
}  // namespace punctsafe
