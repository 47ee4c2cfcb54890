// Shared helpers for the experiment benchmarks. Each bench binary
// regenerates one row of the EXPERIMENTS.md index; counters carry the
// behavioral quantities (state high-water, results, verdicts) next to
// google-benchmark's timing columns.

#ifndef PUNCTSAFE_BENCH_BENCH_UTIL_H_
#define PUNCTSAFE_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "query/cjq.h"
#include "stream/catalog.h"
#include "util/logging.h"

namespace punctsafe {
namespace bench {

/// \brief Hardware thread count, recorded uniformly as
/// "hardware_threads" in every BENCH_*.json so a reader (and the
/// gates below) can tell a 1-core container's numbers from a real
/// multi-core run. hardware_concurrency()'s "unknown" (0) is
/// normalized to 1 — the conservative regime.
inline unsigned HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// \brief Gates a parallel-vs-serial (or sharded-vs-pipelined)
/// speedup. On a single-hardware-thread host the parallel runtime
/// time-slices its workers on one core, so the ratio carries no
/// signal — the check is SKIPPED (returns true, says so on stderr)
/// instead of failing a starved runner. Returns false only when the
/// host has real parallelism and `speedup` still fell below `floor`.
inline bool CheckParallelSpeedup(const char* what, double speedup,
                                 double floor) {
  if (HardwareThreads() <= 1) {
    std::fprintf(stderr,
                 "%s: SKIP parallel-vs-serial ratio gate "
                 "(hardware_threads == 1)\n",
                 what);
    return true;
  }
  if (speedup >= floor) return true;
  std::fprintf(stderr, "%s: speedup %.3f below floor %.3f\n", what, speedup,
               floor);
  return false;
}

/// Paper triangle fixture: S1(A,B) ⋈ S2(B,C) ⋈ S3(C,A).
inline StreamCatalog TriangleCatalog() {
  StreamCatalog catalog;
  PUNCTSAFE_CHECK_OK(catalog.Register("S1", Schema::OfInts({"A", "B"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("S2", Schema::OfInts({"B", "C"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("S3", Schema::OfInts({"C", "A"})));
  return catalog;
}

inline ContinuousJoinQuery TriangleQuery(const StreamCatalog& catalog) {
  auto q = ContinuousJoinQuery::Create(
      catalog, {"S1", "S2", "S3"},
      {Eq({"S1", "B"}, {"S2", "B"}), Eq({"S2", "C"}, {"S3", "C"}),
       Eq({"S3", "A"}, {"S1", "A"})});
  PUNCTSAFE_CHECK_OK(q.status());
  return std::move(q).ValueOrDie();
}

inline PunctuationScheme SchemeOn(const StreamCatalog& catalog,
                                  const std::string& stream,
                                  const std::vector<std::string>& attrs) {
  auto schema = catalog.Get(stream);
  PUNCTSAFE_CHECK_OK(schema.status());
  auto s =
      PunctuationScheme::OnAttributes(stream, **schema, attrs);
  PUNCTSAFE_CHECK_OK(s.status());
  return std::move(s).ValueOrDie();
}

inline SchemeSet Fig5Schemes(const StreamCatalog& catalog) {
  SchemeSet set;
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S1", {"B"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S2", {"C"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S3", {"A"})));
  return set;
}

inline SchemeSet Fig8Schemes(const StreamCatalog& catalog) {
  SchemeSet set;
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S1", {"B"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S2", {"B"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S2", {"C"})));
  PUNCTSAFE_CHECK_OK(set.Add(SchemeOn(catalog, "S3", {"C", "A"})));
  return set;
}

/// Builds an executor, feeds the trace, records the standard counters.
inline void RunTraceAndRecord(const ContinuousJoinQuery& query,
                              const SchemeSet& schemes,
                              const PlanShape& shape, const Trace& trace,
                              ExecutorConfig config,
                              benchmark::State& state) {
  size_t high_water = 0, final_live = 0, punct_high = 0;
  uint64_t results = 0;
  StateMetricsSnapshot mem;
  for (auto _ : state) {
    auto exec = PlanExecutor::Create(query, schemes, shape, config);
    PUNCTSAFE_CHECK_OK(exec.status());
    PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
    high_water = (*exec)->tuple_high_water();
    final_live = (*exec)->TotalLiveTuples();
    punct_high = (*exec)->punctuation_high_water();
    results = (*exec)->num_results();
    mem = {};
    for (const auto& op : (*exec)->operators()) {
      mem += op->AggregateStateSnapshot();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
  state.counters["state_hw"] = static_cast<double>(high_water);
  state.counters["final_live"] = static_cast<double>(final_live);
  state.counters["punct_hw"] = static_cast<double>(punct_high);
  state.counters["results"] = static_cast<double>(results);
  // Memory-side gauges (experiment E17): the arena's reserved/live
  // byte footprint, wholesale block reclaims, and how many system
  // allocations the insert path performed (0-growth in arena steady
  // state).
  state.counters["arena_bytes_reserved"] =
      static_cast<double>(mem.arena_bytes_reserved);
  state.counters["arena_bytes_live"] =
      static_cast<double>(mem.arena_bytes_live);
  state.counters["arena_blocks_reclaimed"] =
      static_cast<double>(mem.arena_blocks_reclaimed);
  state.counters["insert_allocs"] = static_cast<double>(mem.insert_allocs);
}

/// One pipelined-executor pass over the trace; records the parallel
/// runtime's behavioral counters (prefixed) next to the serial ones so
/// a single bench row shows purge-boundedness holds under concurrency.
inline void RecordParallelCounters(const ContinuousJoinQuery& query,
                                   const SchemeSet& schemes,
                                   const PlanShape& shape, const Trace& trace,
                                   ExecutorConfig config,
                                   benchmark::State& state) {
  config.mode = ExecutionMode::kParallel;
  auto exec = ParallelExecutor::Create(query, schemes, shape, config);
  PUNCTSAFE_CHECK_OK(exec.status());
  PUNCTSAFE_CHECK_OK(FeedTraceParallel(exec.ValueOrDie().get(), trace));
  state.counters["parallel_state_hw"] =
      static_cast<double>((*exec)->tuple_high_water());
  state.counters["parallel_final_live"] =
      static_cast<double>((*exec)->TotalLiveTuples());
  state.counters["parallel_results"] =
      static_cast<double>((*exec)->num_results());
  (*exec)->Stop();
}

/// Chain query T0 - T1 - ... - T{n-1} on a shared key attribute, with
/// one simple scheme per stream (fully safe): the scaling fixture.
struct ChainFixture {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;
};

inline ChainFixture MakeChain(size_t n) {
  ChainFixture fx{{}, ContinuousJoinQuery(), {}};
  std::vector<std::string> streams;
  std::vector<JoinPredicateSpec> preds;
  for (size_t i = 0; i < n; ++i) {
    std::string name = "T" + std::to_string(i);
    PUNCTSAFE_CHECK_OK(fx.catalog.Register(name, Schema::OfInts({"k", "v"})));
    if (i > 0) preds.push_back(Eq({streams.back(), "k"}, {name, "k"}));
    streams.push_back(name);
    PUNCTSAFE_CHECK_OK(fx.schemes.Add(SchemeOn(fx.catalog, name, {"k"})));
  }
  auto q = ContinuousJoinQuery::Create(fx.catalog, streams, preds);
  PUNCTSAFE_CHECK_OK(q.status());
  fx.query = std::move(q).ValueOrDie();
  return fx;
}

// ------------------------------------------------ baseline regression

/// One gated throughput: its flat-JSON key and this run's value.
struct TrackedRate {
  const char* key;
  double current;
};

/// Pulls `"key": number` out of the benches' own flat JSON output (no
/// nested objects with colliding key names are tracked).
inline bool FindJsonNumber(const std::string& text, const std::string& key,
                           double* out) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

/// Gate floor resolution: an explicit --min-ratio flag wins, then the
/// PUNCTSAFE_BENCH_MIN_RATIO environment variable, then 0.75. Pass
/// flag_value <= 0 for "flag not given".
inline double ResolveMinRatio(double flag_value) {
  if (flag_value > 0) return flag_value;
  if (const char* env = std::getenv("PUNCTSAFE_BENCH_MIN_RATIO")) {
    double v = std::strtod(env, nullptr);
    if (v > 0) return v;
    std::fprintf(stderr,
                 "ignoring unparsable PUNCTSAFE_BENCH_MIN_RATIO='%s'\n",
                 env);
  }
  return 0.75;
}

/// Checks every tracked rate against min_ratio x its baseline value.
/// Keys absent from the baseline are skipped (new metrics gate only
/// once re-baselined). On any regression, prints the full
/// measured/baseline ratio table to stderr so the failing CI log shows
/// how far off each rate is, not just which one tripped. Returns true
/// iff all tracked rates pass.
inline bool CheckBaselineRates(const std::string& baseline_json,
                               const std::vector<TrackedRate>& tracked,
                               double min_ratio) {
  bool ok = true;
  for (const TrackedRate& t : tracked) {
    double want = 0;
    if (!FindJsonNumber(baseline_json, t.key, &want) || want <= 0) continue;
    if (t.current < want * min_ratio) ok = false;
  }
  if (ok) {
    std::fprintf(stderr, "baseline check passed (min-ratio %.2f)\n",
                 min_ratio);
    return true;
  }
  std::fprintf(stderr,
               "--- bench gate failed (min-ratio %.2f) ---\n"
               "%-32s %14s %14s %7s  %s\n",
               min_ratio, "key", "measured", "baseline", "ratio",
               "status");
  for (const TrackedRate& t : tracked) {
    double want = 0;
    if (!FindJsonNumber(baseline_json, t.key, &want) || want <= 0) {
      std::fprintf(stderr, "%-32s %14.0f %14s %7s  %s\n", t.key,
                   t.current, "-", "-", "SKIP (no baseline)");
      continue;
    }
    double ratio = t.current / want;
    std::fprintf(stderr, "%-32s %14.0f %14.0f %7.2f  %s\n", t.key,
                 t.current, want, ratio,
                 ratio < min_ratio ? "FAIL" : "ok");
  }
  return false;
}

}  // namespace bench
}  // namespace punctsafe

#endif  // PUNCTSAFE_BENCH_BENCH_UTIL_H_
