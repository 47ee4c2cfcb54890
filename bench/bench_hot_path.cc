// Hot-path microbenchmarks for the tuple data path, plus an
// end-to-end tuples/sec comparison (serial vs pipelined vs sharded).
//
// The store micros drive TupleStore directly, int64 and string keys
// separately: per-row Insert, the batched InsertBatch over
// key-clustered TupleBatches, and interleaved insert+purge. The insert
// comparison is per-row vs InsertBatch over identical key-clustered
// rows (batch must not lose — in-binary gate). Probing is measured
// where the runtime does it: the *_expand_* micros drive a whole m=3
// MJoinOperator per-row vs batch-at-a-time through the columnar
// expansion frontier (FindBucket + ForBucketLive per same-key run,
// SIMD dispatch recorded as simd_dispatch) and report arrivals/sec
// plus the batch-over-row speedup. serial_batchN_events_per_sec
// sweeps ExecutorConfig::batch_size end-to-end.
//
// Emits one JSON object (checked-in baseline: BENCH_hot_path.json,
// experiment E16 in EXPERIMENTS.md). With --baseline FILE the binary
// re-reads a checked-in baseline and exits non-zero if any tracked
// micro rate (insert batch, expand batch, purge) fell below the gate
// floor of it — the CI regression gate
// (tools/ci.sh, bench-smoke config). The floor is --min-ratio, else
// the PUNCTSAFE_BENCH_MIN_RATIO environment variable, else 0.75; a
// failing gate prints the full measured/baseline ratio table.
//
// Also measures the end-to-end runs with ExecutorConfig::observe on,
// reporting observe_ratio_* (observe-off time / observe-on time) as a
// printed diagnostic: nothing gates it, and on a shared 4-core host it
// read 0.88-0.96 over three default-argument runs (EXPERIMENTS.md E27).
//
// Usage: bench_hot_path [--store-tuples N] [--keys K]
//                       [--probe-iters M] [--generations G] [--iters I]
//                       [--baseline FILE] [--min-ratio R]

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
#include "core/plan_safety.h"
#include "exec/mjoin.h"
#include "exec/parallel_executor.h"
#include "exec/simd.h"
#include "exec/tuple_batch.h"
#include "exec/tuple_store.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- micro

struct MicroResult {
  double insert_mps = 0;      // inserts per second (millions not implied)
  double insert_clustered_mps = 0;  // per-row inserts, clustered keys
  double insert_batch_mps = 0;  // TupleBatch-build + InsertBatch path
  double purge_ps = 0;        // interleaved insert+purge ops/sec
  uint64_t checksum = 0;      // anti-DCE
};

std::vector<Tuple> MakeRows(size_t n, size_t keys, bool string_keys) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value key = string_keys
                    ? Value("key-" + std::to_string(i % keys))
                    : Value(static_cast<int64_t>(i % keys));
    rows.push_back(Tuple({key, Value(static_cast<int64_t>(i))}));
  }
  return rows;
}

MicroResult RunMicro(size_t n, size_t keys, bool string_keys) {
  MicroResult r;
  std::vector<Tuple> rows = MakeRows(n, keys, string_keys);

  // Insert throughput.
  {
    auto start = Clock::now();
    TupleStore store({0});
    for (const Tuple& t : rows) store.Insert(t);
    double secs = SecondsSince(start);
    r.insert_mps = secs > 0 ? n / secs : 0;
    r.checksum += store.live_count();
  }

  // Batched ingestion vs the identical per-row loop, over a
  // key-clustered arrival model (same generation, same source => runs
  // of kRunLen equal keys). Both timed loops consume pre-built rows;
  // the rows are built fresh for each sub-block so neither path
  // inherits the other's cached key hashes. InsertBatch's run-amortized
  // index path (one bucket resolution per same-key run) plus
  // once-per-batch bookkeeping must at least match tuple-at-a-time
  // ingestion on this data — gated hard in Main() for both key types.
  {
    constexpr size_t kRunLen = 8;
    auto clustered = [&] {
      std::vector<Tuple> cr;
      cr.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        size_t k = (i / kRunLen) % keys;
        Value key = string_keys ? Value("key-" + std::to_string(k))
                                : Value(static_cast<int64_t>(k));
        cr.push_back(Tuple({key, Value(static_cast<int64_t>(i))}));
      }
      return cr;
    };
    {
      std::vector<Tuple> row_feed = clustered();
      auto start = Clock::now();
      TupleStore store({0});
      for (const Tuple& t : row_feed) store.Insert(t);
      double secs = SecondsSince(start);
      r.insert_clustered_mps = secs > 0 ? n / secs : 0;
      r.checksum += store.live_count();
    }
    {
      std::vector<Tuple> batch_feed = clustered();
      auto start = Clock::now();
      TupleStore store({0});
      TupleBatch batch(TupleBatch::kDefaultCapacity);
      int64_t ts = 0;
      for (const Tuple& t : batch_feed) {
        batch.Append(t, ts++);
        if (batch.full()) {
          batch.SelectAll();
          store.InsertBatch(batch);
          batch.Clear();
        }
      }
      if (!batch.empty()) {
        batch.SelectAll();
        store.InsertBatch(batch);
      }
      double secs = SecondsSince(start);
      r.insert_batch_mps = secs > 0 ? n / secs : 0;
      r.checksum += store.live_count();
    }
  }

  // Interleaved insert/purge (compaction churn included).
  {
    auto start = Clock::now();
    TupleStore store({0});
    std::vector<size_t> slots;
    slots.reserve(rows.size());
    size_t ops = 0;
    for (size_t round = 0; round < 8; ++round) {
      slots.clear();
      for (const Tuple& t : rows) slots.push_back(store.Insert(t));
      store.PurgeSlots(slots);
      ops += 2 * rows.size();
    }
    double secs = SecondsSince(start);
    r.purge_ps = secs > 0 ? ops / secs : 0;
    r.checksum += store.live_count();
  }
  return r;
}

// ------------------------------------------------------ expansion micro

struct ExpandMicro {
  double row_ps = 0;    // arrivals/sec through per-row PushTuple
  double batch_ps = 0;  // arrivals/sec through the frontier PushBatch
};

// m=3 chain expansion end to end through MJoinOperator: T1 and T2 are
// pre-loaded with kPartners matching tuples per key, then a
// key-clustered T0 arrival sequence (runs of kRunLen equal keys, the
// insert micro's arrival model) is driven per-row through one operator
// instance and batch-at-a-time through an identically loaded twin.
// Each arrival expands through two hops and emits kPartners^2
// results. Both paths consume pre-staged input (flat tuples vs packed
// TupleBatches) so the comparison isolates expansion — staging cost
// is the insert micro's job — and the result counts must match
// exactly (the batched frontier's result-identity contract, covered
// in full by expansion_differential_test).
ExpandMicro RunExpandMicro(size_t keys, size_t arrivals, bool string_keys) {
  constexpr size_t kRunLen = 8;
  constexpr size_t kPartners = 2;
  bench::ChainFixture fx = bench::MakeChain(3);
  auto make_key = [&](size_t k) {
    return string_keys ? Value("key-" + std::to_string(k))
                       : Value(static_cast<int64_t>(k));
  };
  auto make_loaded_op = [&]() {
    std::vector<LocalInput> inputs;
    for (size_t s = 0; s < fx.query.num_streams(); ++s) {
      inputs.push_back({{s}, RawAvailableSchemes(fx.query, fx.schemes, s)});
    }
    MJoinConfig config;
    config.purge_policy = PurgePolicy::kNone;  // pure expansion, no sweeps
    auto op = MJoinOperator::Create(fx.query, inputs, config);
    PUNCTSAFE_CHECK_OK(op.status());
    // Partner state: kPartners tuples per key on each non-arrival
    // input. T2 before T1 so the load-time expansions die on the
    // first (empty) hop and nothing is emitted.
    int64_t ts = 0;
    for (size_t input : {size_t{2}, size_t{1}}) {
      for (size_t k = 0; k < keys; ++k) {
        for (size_t p = 0; p < kPartners; ++p) {
          (*op)->PushTuple(
              input,
              Tuple({make_key(k), Value(static_cast<int64_t>(p))}), ts++);
        }
      }
    }
    return std::move(op).ValueOrDie();
  };

  // Pre-staged arrival sequence, once as flat tuples and once packed
  // into kDefaultCapacity-row batches (identical rows, timestamps).
  std::vector<Tuple> row_feed;
  row_feed.reserve(arrivals);
  for (size_t i = 0; i < arrivals; ++i) {
    row_feed.push_back(Tuple({make_key((i / kRunLen) % keys),
                              Value(static_cast<int64_t>(i))}));
  }
  std::vector<TupleBatch> batch_feed;
  {
    TupleBatch building(TupleBatch::kDefaultCapacity);
    for (size_t i = 0; i < arrivals; ++i) {
      building.Append(row_feed[i], static_cast<int64_t>(1000000 + i));
      if (building.full()) {
        batch_feed.push_back(std::move(building));
        building = TupleBatch(TupleBatch::kDefaultCapacity);
      }
    }
    if (!building.empty()) batch_feed.push_back(std::move(building));
  }

  auto row_op = make_loaded_op();
  auto batch_op = make_loaded_op();
  uint64_t row_results = 0;
  uint64_t batch_results = 0;
  row_op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) ++row_results;
  });
  batch_op->SetEmitter([&](const StreamElement& e) {
    if (e.is_tuple()) ++batch_results;
  });
  batch_op->SetBatchEmitter(
      [&](TupleBatch& b) { batch_results += b.size(); });

  ExpandMicro r;
  auto start = Clock::now();
  for (size_t i = 0; i < arrivals; ++i) {
    row_op->PushTuple(0, row_feed[i], static_cast<int64_t>(1000000 + i));
  }
  double secs = SecondsSince(start);
  r.row_ps = secs > 0 ? arrivals / secs : 0;

  start = Clock::now();
  for (TupleBatch& b : batch_feed) batch_op->PushBatch(0, b);
  secs = SecondsSince(start);
  r.batch_ps = secs > 0 ? arrivals / secs : 0;

  const uint64_t expected = arrivals * kPartners * kPartners;
  PUNCTSAFE_CHECK(row_results == expected && batch_results == expected)
      << "expansion micro result divergence: row=" << row_results
      << " batch=" << batch_results << " expected=" << expected;
  return r;
}

// ----------------------------------------------------------- end-to-end

struct RunStats {
  double seconds = 0;
  uint64_t results = 0;
  size_t final_live = 0;
};

RunStats RunSerialOnce(const bench::ChainFixture& fx, const PlanShape& shape,
                       const Trace& trace, bool observe = false,
                       size_t batch_size = 1) {
  ExecutorConfig config;
  config.observe = observe;
  config.batch_size = batch_size;
  auto exec = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  PUNCTSAFE_CHECK_OK(exec.status());
  auto start = Clock::now();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  RunStats stats;
  stats.seconds = SecondsSince(start);
  stats.results = (*exec)->num_results();
  stats.final_live = (*exec)->TotalLiveTuples();
  return stats;
}

RunStats RunParallelOnce(const bench::ChainFixture& fx, const PlanShape& shape,
                         const Trace& trace, size_t shards,
                         bool observe = false) {
  ExecutorConfig config;
  config.shards = shards;
  config.observe = observe;
  // The emit-staging granularity the pipelined runtime ran with before
  // the knob existed (the former hard-coded kEmitFlushBatch).
  config.batch_size = 128;
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  PUNCTSAFE_CHECK_OK(exec.status());
  auto start = Clock::now();
  PUNCTSAFE_CHECK_OK(FeedTraceParallel(exec.ValueOrDie().get(), trace));
  RunStats stats;
  stats.seconds = SecondsSince(start);
  stats.results = (*exec)->num_results();
  stats.final_live = (*exec)->TotalLiveTuples();
  (*exec)->Stop();
  return stats;
}

}  // namespace

int Main(int argc, char** argv) {
  size_t store_tuples = 20000;
  size_t keys = 512;
  size_t probe_iters = 400000;  // arrivals per expansion micro run
  size_t generations = 150;
  size_t iters = 3;
  std::string baseline_path;
  double min_ratio = -1;  // resolved below: flag > env > 0.75
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--store-tuples") == 0) {
      store_tuples = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      keys = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--probe-iters") == 0) {
      probe_iters = std::strtoull(argv[i + 1], nullptr, 10);
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
                   "unknown flag '%s'; flags: --store-tuples N --keys N "
                   "--probe-iters N --generations N --iters N "
                   "--baseline FILE --min-ratio R\n",
                   argv[i]);
      return 2;
    }
  }

  MicroResult int_micro = RunMicro(store_tuples, keys, false);
  MicroResult str_micro = RunMicro(store_tuples, keys, true);

  // Batched ingestion must not lose to the per-row loop over the same
  // clustered rows (this pins the string-key regression the
  // run-amortized InsertBatch fixed); 0.9 floor = run-to-run jitter
  // headroom, not license to regress.
  auto check_insert_gate = [](const char* kind, const MicroResult& m) {
    PUNCTSAFE_CHECK(m.insert_batch_mps >= 0.9 * m.insert_clustered_mps)
        << kind << "-key InsertBatch slower than per-row Insert on "
        << "identical clustered rows: " << m.insert_batch_mps << "/s vs "
        << m.insert_clustered_mps << "/s";
  };
  check_insert_gate("int", int_micro);
  check_insert_gate("str", str_micro);

  // Best-of-iters per side, the same convention as the end-to-end
  // runs (rates are max-estimators; the interesting signal is what
  // the path can do, not what the scheduler did to one run).
  ExpandMicro int_expand, str_expand;
  auto keep_best_expand = [](ExpandMicro& best, const ExpandMicro& e) {
    best.row_ps = std::max(best.row_ps, e.row_ps);
    best.batch_ps = std::max(best.batch_ps, e.batch_ps);
  };
  for (size_t i = 0; i < iters; ++i) {
    keep_best_expand(int_expand, RunExpandMicro(keys, probe_iters, false));
    keep_best_expand(str_expand, RunExpandMicro(keys, probe_iters, true));
  }

  bench::ChainFixture fx = bench::MakeChain(3);
  PlanShape shape = PlanShape::SingleMJoin(3);
  CoveringTraceConfig tconfig;
  tconfig.num_generations = generations;
  tconfig.values_per_generation = 8;
  tconfig.tuples_per_generation = 60;
  Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);

  // Observe-on runs ride in the same loop as observe-off ones
  // (interleaved best-of, the bench_arena pattern) so thermal/clock
  // drift hits both sides of the overhead ratio equally; the ratios
  // are printed, not gated.
  RunStats serial, shard1, shard2, serial_obs, shard2_obs;
  // The ExecutorConfig::batch_size sweep: how far batched ingestion
  // moves serial end-to-end throughput (batch 1 = the tuple-at-a-time
  // baseline; results must be identical at every size).
  const size_t kBatchSweep[] = {1, 32, 128, 512};
  RunStats serial_batched[4];
  auto keep_best = [](RunStats& best, const RunStats& s, size_t i) {
    if (i == 0 || s.seconds < best.seconds) best = s;
  };
  RunStats serial_obs_b128;
  for (size_t i = 0; i < iters; ++i) {
    keep_best(serial, RunSerialOnce(fx, shape, trace), i);
    keep_best(serial_obs, RunSerialOnce(fx, shape, trace, true), i);
    for (size_t b = 0; b < 4; ++b) {
      keep_best(serial_batched[b],
                RunSerialOnce(fx, shape, trace, false, kBatchSweep[b]), i);
    }
    // Observe-on at batch 128: per-batch sampling (two clock reads per
    // batch + sampled per-tuple latency) instead of two reads/tuple.
    keep_best(serial_obs_b128,
              RunSerialOnce(fx, shape, trace, true, 128), i);
    keep_best(shard1, RunParallelOnce(fx, shape, trace, 1), i);
    keep_best(shard2, RunParallelOnce(fx, shape, trace, 2), i);
    keep_best(shard2_obs, RunParallelOnce(fx, shape, trace, 2, true), i);
  }

  PUNCTSAFE_CHECK(shard1.results == serial.results &&
                  shard2.results == serial.results)
      << "executors disagree: serial=" << serial.results
      << " shard1=" << shard1.results << " shard2=" << shard2.results;
  PUNCTSAFE_CHECK(serial_obs.results == serial.results &&
                  serial_obs_b128.results == serial.results &&
                  shard2_obs.results == serial.results)
      << "observability changed results: serial=" << serial.results
      << " serial_obs=" << serial_obs.results
      << " serial_obs_b128=" << serial_obs_b128.results
      << " shard2_obs=" << shard2_obs.results;
  for (size_t b = 0; b < 4; ++b) {
    PUNCTSAFE_CHECK(serial_batched[b].results == serial.results)
        << "batched ingestion changed results at batch_size="
        << kBatchSweep[b] << ": " << serial_batched[b].results << " vs "
        << serial.results;
  }

  std::ostringstream json;
  char buf[256];
  auto emit = [&](const char* key, double v, bool comma = true) {
    std::snprintf(buf, sizeof(buf), "  \"%s\": %.0f%s\n", key, v,
                  comma ? "," : "");
    json << buf;
  };
  json << "{\n";
  json << "  \"bench\": \"hot_path\",\n";
  json << "  \"store_tuples\": " << store_tuples << ",\n";
  json << "  \"keys\": " << keys << ",\n";
  json << "  \"probe_iters\": " << probe_iters << ",\n";
  json << "  \"events\": " << trace.size() << ",\n";
  json << "  \"hardware_threads\": " << bench::HardwareThreads()
       << ",\n";
  json << "  \"simd_dispatch\": \"" << simd::kDispatchName << "\",\n";
  emit("int_insert_per_sec", int_micro.insert_mps);
  emit("int_insert_clustered_per_sec", int_micro.insert_clustered_mps);
  emit("int_insert_batch_per_sec", int_micro.insert_batch_mps);
  emit("int_purge_ops_per_sec", int_micro.purge_ps);
  emit("str_insert_per_sec", str_micro.insert_mps);
  emit("str_insert_clustered_per_sec", str_micro.insert_clustered_mps);
  emit("str_insert_batch_per_sec", str_micro.insert_batch_mps);
  emit("str_purge_ops_per_sec", str_micro.purge_ps);
  emit("int_expand_row_per_sec", int_expand.row_ps);
  emit("int_expand_batch_per_sec", int_expand.batch_ps);
  emit("str_expand_row_per_sec", str_expand.row_ps);
  emit("str_expand_batch_per_sec", str_expand.batch_ps);
  // Batch-over-row expansion speedups on the m=3 chain (the batched
  // frontier's headline numbers; >= 2x on key-clustered arrivals).
  std::snprintf(buf, sizeof(buf),
                "  \"int_expand_batch_speedup\": %.3f,\n",
                int_expand.row_ps > 0 ? int_expand.batch_ps / int_expand.row_ps
                                      : 0.0);
  json << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"str_expand_batch_speedup\": %.3f,\n",
                str_expand.row_ps > 0 ? str_expand.batch_ps / str_expand.row_ps
                                      : 0.0);
  json << buf;
  emit("serial_events_per_sec",
       serial.seconds > 0 ? trace.size() / serial.seconds : 0);
  for (size_t b = 0; b < 4; ++b) {
    std::snprintf(buf, sizeof(buf),
                  "  \"serial_batch%zu_events_per_sec\": %.0f,\n",
                  kBatchSweep[b],
                  serial_batched[b].seconds > 0
                      ? trace.size() / serial_batched[b].seconds
                      : 0.0);
    json << buf;
  }
  emit("pipelined_events_per_sec",
       shard1.seconds > 0 ? trace.size() / shard1.seconds : 0);
  emit("sharded2_events_per_sec",
       shard2.seconds > 0 ? trace.size() / shard2.seconds : 0);
  emit("serial_observed_events_per_sec",
       serial_obs.seconds > 0 ? trace.size() / serial_obs.seconds : 0);
  emit("sharded2_observed_events_per_sec",
       shard2_obs.seconds > 0 ? trace.size() / shard2_obs.seconds : 0);
  // observe-on / observe-off throughput ratios (1.0 = free; a
  // diagnostic, E27 measured 0.88-0.96).
  std::snprintf(buf, sizeof(buf),
                "  \"observe_ratio_serial\": %.3f,\n",
                serial_obs.seconds > 0 && serial.seconds > 0
                    ? serial.seconds / serial_obs.seconds
                    : 0.0);
  json << buf;
  // Observe-on vs observe-off at batch 128 on both sides: what the
  // per-batch sampling hooks cost when batching is actually on.
  std::snprintf(
      buf, sizeof(buf), "  \"observe_ratio_serial_batched\": %.3f,\n",
      serial_obs_b128.seconds > 0 && serial_batched[2].seconds > 0
          ? serial_batched[2].seconds / serial_obs_b128.seconds
          : 0.0);
  json << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"observe_ratio_sharded2\": %.3f,\n",
                shard2_obs.seconds > 0 && shard2.seconds > 0
                    ? shard2.seconds / shard2_obs.seconds
                    : 0.0);
  json << buf;
  std::snprintf(buf, sizeof(buf), "  \"results\": %llu,\n",
                static_cast<unsigned long long>(serial.results));
  json << buf;
  std::snprintf(buf, sizeof(buf), "  \"checksum\": %llu\n",
                static_cast<unsigned long long>(int_micro.checksum +
                                                str_micro.checksum));
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
    // Gate on the micro rates (stable across runs); the runtime probe
    // path is gated through *_expand_batch_per_sec. End-to-end numbers
    // are informational — they depend on scheduler noise and core
    // count too much for a hard fail.
    if (!bench::CheckBaselineRates(
            ss.str(),
            {{"int_insert_batch_per_sec", int_micro.insert_batch_mps},
             {"str_insert_batch_per_sec", str_micro.insert_batch_mps},
             {"int_expand_batch_per_sec", int_expand.batch_ps},
             {"str_expand_batch_per_sec", str_expand.batch_ps},
             {"int_purge_ops_per_sec", int_micro.purge_ps}},
            bench::ResolveMinRatio(min_ratio))) {
      return 1;
    }
    // Parallel-vs-serial throughput only means something with real
    // cores behind it; on hardware_threads == 1 the gate self-skips.
    if (!bench::CheckParallelSpeedup(
            "hot_path pipelined-vs-serial",
            shard1.seconds > 0 ? serial.seconds / shard1.seconds : 0.0,
            0.5)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace punctsafe

int main(int argc, char** argv) { return punctsafe::Main(argc, argv); }
