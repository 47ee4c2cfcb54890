// Serial vs pipelined executor throughput on a k-way chain query
// (T0 ⋈ T1 ⋈ ... on a shared key) under a left-deep binary plan — the
// shape with maximum pipeline depth, one worker thread per join.
// Emits a single JSON object so CI and notebooks can diff runs.
//
// Usage: bench_parallel_pipeline [--streams N] [--generations G]
//                                [--iters I] [--queue-capacity C]
//                                [--shards K] [--observe]
//                                [--metrics-out FILE]
//
// --observe runs both executors with the runtime observability hooks
// enabled (ExecutorConfig::observe); --metrics-out writes one
// exporter JSONL line per run — per-shard-operator latency and
// punctuation-lag quantiles included — which CI uploads as an
// artifact (render with tools/obs_report.py). --metrics-out implies
// --observe.
//
// Note: pipeline parallelism needs one hardware thread per operator to
// pay off; the JSON records hardware_threads so a 1-core container's
// slowdown is interpretable. On >= 4 cores the 4-way chain target is
// >= 1.5x over serial.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/parallel_executor.h"
#include "obs/exporter.h"
#include "workload/random_query.h"

namespace punctsafe {
namespace {

struct RunStats {
  double seconds = 0;
  uint64_t results = 0;
  size_t state_hw = 0;
  size_t final_live = 0;
};

using Clock = std::chrono::steady_clock;

RunStats RunSerialOnce(const bench::ChainFixture& fx, const PlanShape& shape,
                       const Trace& trace, bool observe,
                       obs::MetricsExporter* exporter) {
  ExecutorConfig config;
  config.observe = observe;
  auto exec = PlanExecutor::Create(fx.query, fx.schemes, shape, config);
  PUNCTSAFE_CHECK_OK(exec.status());
  auto start = Clock::now();
  PUNCTSAFE_CHECK_OK(FeedTrace(exec.ValueOrDie().get(), trace));
  auto elapsed = std::chrono::duration<double>(Clock::now() - start);
  RunStats stats;
  stats.seconds = elapsed.count();
  stats.results = (*exec)->num_results();
  stats.state_hw = (*exec)->tuple_high_water();
  stats.final_live = (*exec)->TotalLiveTuples();
  if (exporter != nullptr) {
    obs::MetricsExporter::SnapshotFn source =
        [&] { return (*exec)->ObservabilitySnapshot(); };
    // One line per run at quiescence (no background thread: the run
    // is short and the final state is the interesting one).
    exporter->Rebind(std::move(source));
    exporter->ExportNow();
  }
  return stats;
}

RunStats RunParallelOnce(const bench::ChainFixture& fx,
                         const PlanShape& shape, const Trace& trace,
                         size_t queue_capacity, size_t shards, bool observe,
                         obs::MetricsExporter* exporter) {
  ExecutorConfig config;
  config.queue_capacity = queue_capacity;
  config.shards = shards;
  config.observe = observe;
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
  if (exporter != nullptr) {
    obs::MetricsExporter::SnapshotFn source =
        [&] { return (*exec)->ObservabilitySnapshot(); };
    exporter->Rebind(std::move(source));
    exporter->ExportNow();
  }
  (*exec)->Stop();
  return stats;
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
      "\"results\": %llu, \"state_hw\": %zu, \"final_live\": %zu}%s\n",
      name, s.seconds, s.seconds > 0 ? events / s.seconds : 0.0,
      static_cast<unsigned long long>(s.results), s.state_hw, s.final_live,
      trailing_comma ? "," : "");
}

int Main(int argc, char** argv) {
  size_t streams = 4;
  size_t generations = 200;
  size_t iters = 3;
  size_t queue_capacity = 1024;
  size_t shards = 1;
  bool observe = false;
  std::string metrics_out;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--observe") == 0) {
      observe = true;
      i += 1;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag '%s' needs a value\n", argv[i]);
      return 2;
    }
    if (std::strcmp(argv[i], "--streams") == 0) {
      streams = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--generations") == 0) {
      generations = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      queue_capacity = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_out = argv[i + 1];
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'; flags: --streams N --generations N "
                   "--iters N --queue-capacity N --shards N --observe "
                   "--metrics-out FILE\n",
                   argv[i]);
      return 2;
    }
    i += 2;
  }
  if (!metrics_out.empty()) observe = true;

  bench::ChainFixture fx = bench::MakeChain(streams);
  std::vector<size_t> order(streams);
  for (size_t i = 0; i < streams; ++i) order[i] = i;
  PlanShape shape = PlanShape::LeftDeepBinary(order);

  CoveringTraceConfig tconfig;
  tconfig.num_generations = generations;
  tconfig.values_per_generation = 4;
  tconfig.tuples_per_generation = 40;
  Trace trace = MakeCoveringTrace(fx.query, fx.schemes, tconfig);

  // One JSONL line per executor run (timed runs included: with
  // --observe the measurement IS the instrumented configuration).
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!metrics_out.empty()) {
    obs::ExporterOptions options;
    options.interval_ms = 0;  // ExportNow only
    options.export_on_stop = false;
    exporter = std::make_unique<obs::MetricsExporter>(
        obs::MetricsExporter::SnapshotFn{[] { return obs::ObsSnapshot{}; }},
        metrics_out, options);
    if (!exporter->ok()) {
      std::fprintf(stderr, "cannot open metrics-out '%s'\n",
                   metrics_out.c_str());
      return 2;
    }
  }

  RunStats serial = Best(iters, [&] {
    return RunSerialOnce(fx, shape, trace, observe, exporter.get());
  });
  RunStats parallel = Best(iters, [&] {
    return RunParallelOnce(fx, shape, trace, queue_capacity, shards, observe,
                           exporter.get());
  });

  PUNCTSAFE_CHECK(serial.results == parallel.results)
      << "executors disagree: serial=" << serial.results
      << " parallel=" << parallel.results;

  std::printf("{\n");
  std::printf("  \"bench\": \"parallel_pipeline\",\n");
  std::printf("  \"plan\": \"left_deep_binary\",\n");
  std::printf("  \"chain_streams\": %zu,\n", streams);
  std::printf("  \"operators\": %zu,\n", shape.NumOperators());
  std::printf("  \"events\": %zu,\n", trace.size());
  std::printf("  \"queue_capacity\": %zu,\n", queue_capacity);
  std::printf("  \"shards\": %zu,\n", shards);
  std::printf("  \"observe\": %s,\n", observe ? "true" : "false");
  std::printf("  \"hardware_threads\": %u,\n",
              bench::HardwareThreads());
  PrintRun("serial", serial, trace.size(), /*trailing_comma=*/true);
  PrintRun("parallel", parallel, trace.size(), /*trailing_comma=*/true);
  std::printf("  \"speedup\": %.3f\n",
              parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace punctsafe

int main(int argc, char** argv) { return punctsafe::Main(argc, argv); }
