// Arena-storage microbenchmarks: the epoch-reclaimed arena on the
// insert path and on the interleaved insert+purge cycle that
// punctuation-driven execution actually runs.
//
// Rows carry a string payload past Value's inline capacity, so each
// insert bump-allocates the value array and the string bytes into the
// same block. The interleaved section runs whole insert/purge/epoch
// rounds — the arena's headline case, where a purge sweep retires
// blocks wholesale through the free list instead of freeing tuples one
// by one. The binary CHECKs the steady-state property (insert_allocs
// stops growing once the block working set exists) and that the
// executor's answer on a short trace equals the never-purging
// ReferenceJoinOperator's.
//
// Emits one JSON object (checked-in baseline: BENCH_arena.json,
// experiment E17 in EXPERIMENTS.md). With --baseline FILE it exits
// non-zero if a tracked micro rate fell below the gate floor
// (--min-ratio, else PUNCTSAFE_BENCH_MIN_RATIO, else 0.75; a failing
// gate prints the ratio table) — the CI regression gate (tools/ci.sh,
// bench-smoke config).
//
// Usage: bench_arena [--rows N] [--keys K] [--rounds R]
//                    [--generations G] [--iters I]
//                    [--baseline FILE] [--min-ratio R]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/plan_executor.h"
#include "exec/reference_join.h"
#include "exec/tuple_store.h"
#include "util/logging.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Tuple> MakeRows(size_t n, size_t keys) {
  // An int64 join key, a string payload past the inline cap (external
  // bytes in the arena block), and a row id.
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value(static_cast<int64_t>(i % keys)),
                          Value("payload-string-well-past-inline-cap-" +
                                std::to_string(i % keys)),
                          Value(static_cast<int64_t>(i))}));
  }
  return rows;
}

struct MicroResult {
  double insert_ps = 0;       // inserts/sec (single fill)
  double interleaved_ps = 0;  // insert+purge ops/sec over full rounds
  uint64_t steady_allocs = 0; // insert_allocs growth after warmup round
  uint64_t blocks_reclaimed = 0;
  size_t bytes_reserved = 0;
  uint64_t checksum = 0;
};

MicroResult RunMicro(const std::vector<Tuple>& rows, size_t rounds) {
  MicroResult r;

  // Insert throughput: one cold fill.
  {
    TupleStore store({0});
    auto start = Clock::now();
    for (const Tuple& t : rows) store.Insert(t);
    double secs = SecondsSince(start);
    r.insert_ps = secs > 0 ? rows.size() / secs : 0;
    r.checksum += store.live_count();
  }

  // Interleaved insert+purge+epoch rounds — the punctuated-stream
  // shape: a generation arrives, a punctuation retires it wholesale.
  {
    TupleStore store({0});
    std::vector<size_t> slots;
    slots.reserve(rows.size());
    // Warmup round builds the arena's block working set.
    for (const Tuple& t : rows) slots.push_back(store.Insert(t));
    store.PurgeSlots(slots);
    store.AdvanceEpoch();
    uint64_t allocs_after_warmup = store.metrics().Snapshot().insert_allocs;

    auto start = Clock::now();
    size_t ops = 0;
    for (size_t round = 0; round < rounds; ++round) {
      slots.clear();
      for (const Tuple& t : rows) slots.push_back(store.Insert(t));
      store.PurgeSlots(slots);
      store.AdvanceEpoch();
      ops += 2 * rows.size();
    }
    double secs = SecondsSince(start);
    r.interleaved_ps = secs > 0 ? ops / secs : 0;

    StateMetricsSnapshot snap = store.metrics().Snapshot();
    r.steady_allocs = snap.insert_allocs - allocs_after_warmup;
    r.blocks_reclaimed = snap.arena_blocks_reclaimed;
    r.bytes_reserved = snap.arena_bytes_reserved;
    r.checksum += store.live_count();
  }
  return r;
}

// ----------------------------------------------------------- end-to-end

struct RunStats {
  double seconds = 0;
  uint64_t results = 0;
};

RunStats RunEndToEnd(const bench::ChainFixture& fx, const PlanShape& shape,
                     const Trace& trace) {
  auto exec = PlanExecutor::Create(fx.query, fx.schemes, shape, {});
  PUNCTSAFE_CHECK_OK(exec.status());
  auto start = Clock::now();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  RunStats stats;
  stats.seconds = SecondsSince(start);
  stats.results = (*exec)->num_results();
  return stats;
}

// The executor's sorted result multiset on `trace` must equal the
// never-purging nested-loop reference join's.
void CheckAgainstReference(const bench::ChainFixture& fx,
                           const PlanShape& shape, const Trace& trace) {
  ExecutorConfig config;
  config.keep_results = true;
  auto exec = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  PUNCTSAFE_CHECK_OK(exec.status());
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  std::vector<Tuple> got = (*exec)->kept_results();
  std::sort(got.begin(), got.end());
  Result<std::vector<Tuple>> want = ReferenceJoinResults(fx.query, trace);
  PUNCTSAFE_CHECK_OK(want.status());
  PUNCTSAFE_CHECK(got == *want)
      << "executor diverged from the reference join: " << got.size()
      << " results vs " << want->size();
}

template <typename Fn>
RunStats Best(size_t iters, const Fn& run) {
  RunStats best;
  for (size_t i = 0; i < iters; ++i) {
    RunStats stats = run();
    if (i == 0 || stats.seconds < best.seconds) best = stats;
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  size_t rows_n = 20000;
  size_t keys = 512;
  size_t rounds = 8;
  size_t generations = 150;
  size_t iters = 3;
  std::string baseline_path;
  double min_ratio = -1;  // resolved below: flag > env > 0.75
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--rows") == 0) {
      rows_n = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      keys = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      rounds = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--generations") == 0) {
      generations = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--min-ratio") == 0) {
      min_ratio = std::strtod(argv[i + 1], nullptr);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'; flags: --rows N --keys N --rounds N "
                   "--generations N --iters N --baseline FILE "
                   "--min-ratio R\n",
                   argv[i]);
      return 2;
    }
  }

  std::vector<Tuple> rows = MakeRows(rows_n, keys);
  // One untimed pass first: the first fill in a fresh process runs at
  // a fraction of the warm rate (page faults, allocator growth), which
  // the gated rates must not measure.
  RunMicro(rows, rounds);
  MicroResult arena;
  for (size_t i = 0; i < iters; ++i) {
    MicroResult a = RunMicro(rows, rounds);
    if (i == 0 || a.interleaved_ps > arena.interleaved_ps) arena = a;
  }

  // The headline steady-state property is a hard invariant, not a
  // throughput number: after the warmup round, arena inserts must
  // never hit the system allocator.
  PUNCTSAFE_CHECK(arena.steady_allocs == 0)
      << "arena steady state allocated " << arena.steady_allocs
      << " blocks after warmup";
  PUNCTSAFE_CHECK(arena.blocks_reclaimed > 0)
      << "interleaved purge rounds reclaimed no blocks";

  bench::ChainFixture fx = bench::MakeChain(3);
  PlanShape shape = PlanShape::SingleMJoin(3);
  CoveringTraceConfig tconfig;
  tconfig.num_generations = generations;
  tconfig.values_per_generation = 8;
  tconfig.tuples_per_generation = 60;
  Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);
  RunStats e2e = Best(iters, [&] { return RunEndToEnd(fx, shape, trace); });

  // The reference join is a nested loop, quadratic in stored tuples,
  // so the equality check runs on a short trace of the same shape.
  tconfig.num_generations = std::min<size_t>(generations, 10);
  CheckAgainstReference(fx, shape,
                        MakeCoveringTrace(fx.query, fx.schemes, tconfig));

  std::ostringstream json;
  char buf[256];
  auto emit = [&](const char* key, double v, bool comma = true) {
    std::snprintf(buf, sizeof(buf), "  \"%s\": %.0f%s\n", key, v,
                  comma ? "," : "");
    json << buf;
  };
  json << "{\n";
  json << "  \"bench\": \"arena\",\n";
  json << "  \"rows\": " << rows_n << ",\n";
  json << "  \"keys\": " << keys << ",\n";
  json << "  \"rounds\": " << rounds << ",\n";
  json << "  \"events\": " << trace.size() << ",\n";
  json << "  \"hardware_threads\": " << bench::HardwareThreads()
       << ",\n";
  emit("arena_insert_per_sec", arena.insert_ps);
  emit("arena_interleaved_ops_per_sec", arena.interleaved_ps);
  json << "  \"arena_steady_state_insert_allocs\": "
       << arena.steady_allocs << ",\n";
  json << "  \"arena_blocks_reclaimed\": " << arena.blocks_reclaimed
       << ",\n";
  json << "  \"arena_bytes_reserved\": " << arena.bytes_reserved << ",\n";
  emit("arena_e2e_events_per_sec",
       e2e.seconds > 0 ? trace.size() / e2e.seconds : 0);
  std::snprintf(buf, sizeof(buf), "  \"results\": %llu,\n",
                static_cast<unsigned long long>(e2e.results));
  json << buf;
  std::snprintf(buf, sizeof(buf), "  \"checksum\": %llu\n",
                static_cast<unsigned long long>(arena.checksum));
  json << buf;
  json << "}\n";
  std::fputs(json.str().c_str(), stdout);

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    // Gate on the arena micro rates (stable across runs); end-to-end
    // numbers are informational — they move with scheduler noise.
    if (!bench::CheckBaselineRates(
            ss.str(),
            {{"arena_insert_per_sec", arena.insert_ps},
             {"arena_interleaved_ops_per_sec", arena.interleaved_ps}},
            bench::ResolveMinRatio(min_ratio))) {
      return 1;
    }
  }
  return 0;
}

}  // namespace punctsafe

int main(int argc, char** argv) { return punctsafe::Main(argc, argv); }
