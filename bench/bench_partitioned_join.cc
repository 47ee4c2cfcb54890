// Hash-partitioned intra-operator parallelism on a hot 3-way MJoin:
// one operator, all streams joined on a shared key, so the whole
// workload lands on a single logical operator and pipeline parallelism
// alone cannot help — the shard router is the only source of
// parallelism. Compares serial, pipelined shards=1, and partitioned
// shards in {2, 4}, and reports per-shard state high-water marks (from
// GroupSnapshots) so the bounded-state claim stays checkable per
// shard. Emits a single JSON object (checked-in baseline:
// BENCH_partitioned.json, experiment E15 in EXPERIMENTS.md).
//
// A second, zipf-skewed trace (--zipf, default 1.2) runs serial and
// shards=4: a few hot keys dominate each generation, so the static
// hash routing sees uneven per-shard load (experiment E15).
//
// Usage: bench_partitioned_join [--streams N] [--generations G]
//                               [--iters I] [--queue-capacity C]
//                               [--zipf S]
//
// Note: sharding needs one hardware thread per shard to pay off; the
// JSON records hardware_threads so a 1-core container's numbers are
// interpretable. On >= 4 cores the target is shards=4 >= 2x over the
// pipelined shards=1 run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/parallel_executor.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

struct RunStats {
  double seconds = 0;
  uint64_t results = 0;
  size_t state_hw = 0;
  size_t final_live = 0;
  size_t num_shards = 1;
  std::vector<size_t> shard_state_hw;
};

using Clock = std::chrono::steady_clock;

RunStats RunSerialOnce(const bench::ChainFixture& fx, const PlanShape& shape,
                       const Trace& trace) {
  auto exec = PlanExecutor::Create(fx.query, fx.schemes, shape, {});
  PUNCTSAFE_CHECK_OK(exec.status());
  auto start = Clock::now();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  auto elapsed = std::chrono::duration<double>(Clock::now() - start);
  RunStats stats;
  stats.seconds = elapsed.count();
  stats.results = (*exec)->num_results();
  stats.state_hw = (*exec)->tuple_high_water();
  stats.final_live = (*exec)->TotalLiveTuples();
  return stats;
}

RunStats RunPartitionedOnce(const bench::ChainFixture& fx,
                            const PlanShape& shape, const Trace& trace,
                            ExecutorConfig config) {
  auto exec = ParallelExecutor::Create(fx.query, fx.schemes, shape, config);
  PUNCTSAFE_CHECK_OK(exec.status());
  auto start = Clock::now();
  PUNCTSAFE_CHECK_OK(FeedTraceParallel(exec.ValueOrDie().get(), trace));
  auto elapsed = std::chrono::duration<double>(Clock::now() - start);
  RunStats stats;
  stats.seconds = elapsed.count();
  stats.results = (*exec)->num_results();
  stats.state_hw = (*exec)->tuple_high_water();
  stats.final_live = (*exec)->TotalLiveTuples();
  auto snaps = (*exec)->GroupSnapshots();
  PUNCTSAFE_CHECK(!snaps.empty());
  stats.num_shards = snaps[0].num_shards;
  stats.shard_state_hw = snaps[0].shard_high_water;
  (*exec)->Stop();
  return stats;
}

ExecutorConfig PartitionedConfig(size_t queue_capacity, size_t shards) {
  ExecutorConfig config;
  config.queue_capacity = queue_capacity;
  config.shards = shards;
  // The emit-staging granularity the pipelined runtime ran with before
  // the knob existed (the former hard-coded kEmitFlushBatch).
  config.batch_size = 128;
  return config;
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

void PrintRun(const char* name, const RunStats& s, size_t events,
              bool trailing_comma) {
  std::printf(
      "  \"%s\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
      "\"results\": %llu, \"state_hw\": %zu, \"final_live\": %zu, "
      "\"shards\": %zu, \"shard_state_hw\": [",
      name, s.seconds, s.seconds > 0 ? events / s.seconds : 0.0,
      static_cast<unsigned long long>(s.results), s.state_hw, s.final_live,
      s.num_shards);
  for (size_t i = 0; i < s.shard_state_hw.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", s.shard_state_hw[i]);
  }
  std::printf("]");
  std::printf("}%s\n", trailing_comma ? "," : "");
}

int Main(int argc, char** argv) {
  size_t streams = 3;
  size_t generations = 300;
  size_t iters = 3;
  size_t queue_capacity = 1024;
  double zipf = 1.2;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--streams") == 0) {
      streams = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--generations") == 0) {
      generations = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      queue_capacity = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      zipf = std::strtod(argv[i + 1], nullptr);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'; flags: --streams N --generations N "
                   "--iters N --queue-capacity N --zipf S\n",
                   argv[i]);
      return 2;
    }
  }

  // A single n-way MJoin on the shared key: every predicate sits in
  // one attribute equivalence class, so the operator partitions.
  bench::ChainFixture fx = bench::MakeChain(streams);
  PlanShape shape = PlanShape::SingleMJoin(streams);

  CoveringTraceConfig tconfig;
  tconfig.num_generations = generations;
  tconfig.values_per_generation = 8;
  tconfig.tuples_per_generation = 60;
  Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);

  // The skewed trace: same generation structure, zipf-ranked draws
  // within each generation's value pool, so a handful of hot keys
  // dominate shard routing.
  CoveringTraceConfig zconfig = tconfig;
  zconfig.zipf_s = zipf;
  Trace zipf_trace = MakeCoveringTrace(fx.query, fx.schemes, zconfig);

  RunStats serial =
      Best(iters, [&] { return RunSerialOnce(fx, shape, trace); });
  RunStats shard1 = Best(iters, [&] {
    return RunPartitionedOnce(fx, shape, trace,
                              PartitionedConfig(queue_capacity, 1));
  });
  RunStats shard2 = Best(iters, [&] {
    return RunPartitionedOnce(fx, shape, trace,
                              PartitionedConfig(queue_capacity, 2));
  });
  RunStats shard4 = Best(iters, [&] {
    return RunPartitionedOnce(fx, shape, trace,
                              PartitionedConfig(queue_capacity, 4));
  });

  // Skewed legs: the same static hash routing as shard4 above.
  RunStats serial_zipf =
      Best(iters, [&] { return RunSerialOnce(fx, shape, zipf_trace); });
  RunStats static_zipf = Best(iters, [&] {
    return RunPartitionedOnce(fx, shape, zipf_trace,
                              PartitionedConfig(queue_capacity, 4));
  });

  for (const RunStats* s : {&shard1, &shard2, &shard4}) {
    PUNCTSAFE_CHECK(s->results == serial.results)
        << "executors disagree: serial=" << serial.results
        << " shards=" << s->num_shards << " -> " << s->results;
    PUNCTSAFE_CHECK(s->final_live == serial.final_live)
        << "final state diverged at shards=" << s->num_shards;
  }
  PUNCTSAFE_CHECK(static_zipf.results == serial_zipf.results)
      << "zipf executors disagree: serial=" << serial_zipf.results
      << " shards=4 -> " << static_zipf.results;
  PUNCTSAFE_CHECK(static_zipf.final_live == serial_zipf.final_live)
      << "zipf final state diverged at shards=4";

  std::printf("{\n");
  std::printf("  \"bench\": \"partitioned_join\",\n");
  std::printf("  \"plan\": \"single_mjoin\",\n");
  std::printf("  \"chain_streams\": %zu,\n", streams);
  std::printf("  \"events\": %zu,\n", trace.size());
  std::printf("  \"queue_capacity\": %zu,\n", queue_capacity);
  std::printf("  \"hardware_threads\": %u,\n",
              bench::HardwareThreads());
  PrintRun("serial", serial, trace.size(), /*trailing_comma=*/true);
  PrintRun("pipelined_shards1", shard1, trace.size(), /*trailing_comma=*/true);
  PrintRun("partitioned_shards2", shard2, trace.size(),
           /*trailing_comma=*/true);
  PrintRun("partitioned_shards4", shard4, trace.size(),
           /*trailing_comma=*/true);
  std::printf("  \"zipf_s\": %.2f,\n", zipf);
  std::printf("  \"zipf_events\": %zu,\n", zipf_trace.size());
  PrintRun("serial_zipf", serial_zipf, zipf_trace.size(),
           /*trailing_comma=*/true);
  PrintRun("static_zipf_shards4", static_zipf, zipf_trace.size(),
           /*trailing_comma=*/true);
  std::printf("  \"speedup_shards2_vs_shards1\": %.3f,\n",
              shard2.seconds > 0 ? shard1.seconds / shard2.seconds : 0.0);
  std::printf("  \"speedup_shards4_vs_shards1\": %.3f,\n",
              shard4.seconds > 0 ? shard1.seconds / shard4.seconds : 0.0);
  std::printf("  \"speedup_shards4_vs_serial\": %.3f\n",
              shard4.seconds > 0 ? serial.seconds / shard4.seconds : 0.0);
  std::printf("}\n");

  // Sharding must actually pay on hosts with the cores for it; on
  // hardware_threads == 1 the ratio carries no signal and the gate
  // self-skips (see bench_util.h).
  if (!bench::CheckParallelSpeedup(
          "partitioned_join shards2-vs-shards1",
          shard2.seconds > 0 ? shard1.seconds / shard2.seconds : 0.0,
          1.05)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace punctsafe

int main(int argc, char** argv) { return punctsafe::Main(argc, argv); }
