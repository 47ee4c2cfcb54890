// Exporter round trip: the observability snapshot must agree with the
// operators' own StateMetrics/OperatorMetrics, the JSONL line must
// carry those numbers (parsed back here with no JSON library — the
// schema is flat enough for substring extraction, which doubles as a
// schema pin), and under the parallel executor every shard entry must
// contain non-empty latency, punctuation-lag and queue-depth
// histograms — the acceptance criterion for the per-shard quantile
// surface.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "obs/exporter.h"
#include "test_util.h"
#include "util/logging.h"

namespace punctsafe {
namespace {

using testing_util::Fig5Schemes;
using testing_util::PaperCatalog;
using testing_util::SchemeOn;
using testing_util::TriangleQuery;

// Extracts the number right after `"key":` starting at `from`.
// Returns npos-armed -1 when the key is absent.
int64_t ExtractInt(const std::string& line, const std::string& key,
                   size_t from = 0) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle, from);
  if (pos == std::string::npos) return -1;
  pos += needle.size();
  size_t end = pos;
  while (end < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[end])) ||
          line[end] == '-')) {
    ++end;
  }
  return std::stoll(line.substr(pos, end - pos));
}

size_t CountOccurrences(const std::string& line, const std::string& sub) {
  size_t n = 0;
  for (size_t pos = line.find(sub); pos != std::string::npos;
       pos = line.find(sub, pos + sub.size())) {
    ++n;
  }
  return n;
}

struct SerialFixture {
  StreamCatalog catalog;
  std::unique_ptr<PlanExecutor> exec;

  static SerialFixture Make(bool observe) {
    SerialFixture fx;
    fx.catalog = PaperCatalog();
    ContinuousJoinQuery q = TriangleQuery(fx.catalog);
    ExecutorConfig config;
    config.keep_results = true;
    config.observe = observe;
    auto exec = PlanExecutor::Create(q, Fig5Schemes(fx.catalog),
                                     PlanShape::SingleMJoin(3), config);
    PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
    fx.exec = std::move(*exec);
    return fx;
  }

  // One triangle match + one punctuation per stream.
  void Feed() {
    exec->PushTuple(0, Tuple({Value(1), Value(2)}), 1);
    exec->PushTuple(1, Tuple({Value(2), Value(3)}), 2);
    exec->PushTuple(2, Tuple({Value(3), Value(1)}), 3);
    // Fig5Schemes: S1 punctuates on B, S2 on C, S3 on A.
    exec->PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(2)}}),
                          4);
    exec->PushPunctuation(1, Punctuation::OfConstants(2, {{1, Value(3)}}),
                          5);
    exec->PushPunctuation(2, Punctuation::OfConstants(2, {{1, Value(1)}}),
                          6);
    exec->SweepAll(7);
  }
};

TEST(ObsSnapshotTest, SerialCountersMatchOperatorMetrics) {
  SerialFixture fx = SerialFixture::Make(true);
  fx.Feed();

  obs::ObsSnapshot snap = fx.exec->ObservabilitySnapshot();
  EXPECT_EQ(snap.executor, "serial");
  EXPECT_EQ(snap.results, fx.exec->num_results());
  EXPECT_EQ(snap.live_tuples, fx.exec->TotalLiveTuples());
  EXPECT_EQ(snap.tuple_high_water, fx.exec->tuple_high_water());
  ASSERT_EQ(snap.operators.size(), 1u);

  const obs::OperatorObsEntry& e = snap.operators[0];
  const MJoinOperator& op = *fx.exec->operators()[0];
  StateMetricsSnapshot state = op.AggregateStateSnapshot();
  OperatorMetricsSnapshot om = op.metrics().Snapshot();
  EXPECT_EQ(e.state.inserted, state.inserted);
  EXPECT_EQ(e.state.purged, state.purged);
  EXPECT_EQ(e.op_metrics.results_emitted, om.results_emitted);
  EXPECT_EQ(e.op_metrics.punctuations_received, om.punctuations_received);
  EXPECT_EQ(om.punctuations_received, 3u);

  // One latency sample per pushed tuple; one lag sample per
  // punctuation; the sweep histogram saw SweepAll.
  EXPECT_EQ(e.latency_ns.Count(), 3u);
  EXPECT_EQ(e.punct_lag.Count(), 3u);
  EXPECT_GE(e.sweep_ns.Count(), 1u);
  // Punctuation at ts covers tuples seen up to logical time 3; the
  // lag of the first punctuation (value ts 4, max tuple ts 3) is 0
  // after clamping, so only assert the histogram is populated and its
  // max is sane (< the whole logical horizon).
  EXPECT_LE(e.punct_lag.max, 3u);
}

TEST(ObsSnapshotTest, ObserveOffYieldsEmptyOperatorList) {
  SerialFixture fx = SerialFixture::Make(false);
  fx.Feed();
  EXPECT_EQ(fx.exec->observability(), nullptr);
  obs::ObsSnapshot snap = fx.exec->ObservabilitySnapshot();
  EXPECT_EQ(snap.executor, "serial");
  EXPECT_TRUE(snap.operators.empty());
  // The executor-level gauges still work without the obs layer.
  EXPECT_EQ(snap.results, fx.exec->num_results());
}

TEST(RenderJsonLineTest, SchemaCarriesCountersAndQuantiles) {
  SerialFixture fx = SerialFixture::Make(true);
  fx.Feed();
  obs::ObsSnapshot snap = fx.exec->ObservabilitySnapshot();
  snap.wall_ms = 1234;
  snap.seq = 7;
  std::string line = obs::RenderJsonLine(snap);

  EXPECT_EQ(ExtractInt(line, "wall_ms"), 1234);
  EXPECT_EQ(ExtractInt(line, "seq"), 7);
  EXPECT_NE(line.find("\"executor\":\"serial\""), std::string::npos);
  EXPECT_EQ(ExtractInt(line, "results"),
            static_cast<int64_t>(snap.results));
  EXPECT_EQ(ExtractInt(line, "live_tuples"),
            static_cast<int64_t>(snap.live_tuples));

  // One operator object carrying each of the four histograms, each
  // with the full quantile set.
  ASSERT_EQ(snap.operators.size(), 1u);
  for (const char* h :
       {"latency_ns", "punct_lag", "sweep_ns", "queue_depth"}) {
    size_t pos = line.find(std::string("\"") + h + "\":{");
    ASSERT_NE(pos, std::string::npos) << h;
    for (const char* q : {"count", "mean", "p50", "p95", "p99", "max"}) {
      EXPECT_NE(line.find(std::string("\"") + q + "\":", pos),
                std::string::npos)
          << h << "." << q;
    }
  }

  // The counters inside the operator object round-trip numerically.
  size_t ops_pos = line.find("\"operators\":[");
  ASSERT_NE(ops_pos, std::string::npos);
  const obs::OperatorObsEntry& e = snap.operators[0];
  EXPECT_EQ(ExtractInt(line, "inserted", ops_pos),
            static_cast<int64_t>(e.state.inserted));
  EXPECT_EQ(ExtractInt(line, "results_emitted", ops_pos),
            static_cast<int64_t>(e.op_metrics.results_emitted));
  EXPECT_EQ(ExtractInt(line, "puncts_received", ops_pos),
            static_cast<int64_t>(e.op_metrics.punctuations_received));
  size_t lat_pos = line.find("\"latency_ns\":{", ops_pos);
  EXPECT_EQ(ExtractInt(line, "count", lat_pos),
            static_cast<int64_t>(e.latency_ns.Count()));
}

TEST(MetricsExporterTest, ExportNowWritesSequencedLines) {
  SerialFixture fx = SerialFixture::Make(true);
  std::ostringstream out;
  PlanExecutor* exec = fx.exec.get();
  obs::MetricsExporter exporter(
      [exec] { return exec->ObservabilitySnapshot(); }, &out);
  ASSERT_TRUE(exporter.ok());

  exporter.ExportNow();
  fx.Feed();
  exporter.ExportNow();
  EXPECT_EQ(exporter.lines_written(), 2u);

  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_EQ(ExtractInt(first, "seq"), 1);
  EXPECT_EQ(ExtractInt(second, "seq"), 2);
  EXPECT_EQ(ExtractInt(first, "results"), 0);
  EXPECT_EQ(ExtractInt(second, "results"),
            static_cast<int64_t>(exec->num_results()));
  EXPECT_GT(ExtractInt(second, "wall_ms"), 0);
}

TEST(MetricsExporterTest, BackgroundThreadStopsCleanly) {
  SerialFixture fx = SerialFixture::Make(true);
  std::ostringstream out;
  PlanExecutor* exec = fx.exec.get();
  obs::ExporterOptions options;
  options.interval_ms = 3600 * 1000;  // never fires on its own
  options.export_on_stop = true;
  obs::MetricsExporter exporter(
      [exec] { return exec->ObservabilitySnapshot(); }, &out, options);
  exporter.Start();
  fx.Feed();
  exporter.Stop();  // flushes the final snapshot
  exporter.Stop();  // idempotent
  EXPECT_EQ(exporter.lines_written(), 1u);
  EXPECT_EQ(ExtractInt(out.str(), "results"),
            static_cast<int64_t>(exec->num_results()));
}

// The acceptance criterion: under the parallel executor with real
// sharding, the snapshot has one entry per shard worker and EVERY
// shard's latency and punctuation-lag histograms are populated —
// tuples hash across shards, and so do the key-pinned punctuations.
TEST(ParallelObsTest, EveryShardHasLatencyAndPunctLagSamples) {
  StreamCatalog catalog;
  PUNCTSAFE_CHECK_OK(catalog.Register("T0", Schema::OfInts({"k", "a"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("T1", Schema::OfInts({"k", "b"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("T2", Schema::OfInts({"k", "c"})));
  auto q = ContinuousJoinQuery::Create(
      catalog, {"T0", "T1", "T2"},
      {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  SchemeSet schemes;
  PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T0", {"k"})));
  PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T1", {"k"})));
  PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T2", {"k"})));

  ExecutorConfig config;
  config.mode = ExecutionMode::kParallel;
  config.shards = 2;
  config.observe = true;
  auto exec_or = ParallelExecutor::Create(*q, schemes,
                                          PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  ParallelExecutor& exec = **exec_or;

  // Enough distinct keys that both hash shards receive tuples.
  constexpr int kKeys = 64;
  for (int k = 0; k < kKeys; ++k) {
    exec.PushTuple(0, Tuple({Value(k), Value(k)}), k);
    exec.PushTuple(1, Tuple({Value(k), Value(k)}), k);
    exec.PushTuple(2, Tuple({Value(k), Value(k)}), k);
    exec.PushPunctuation(
        0, Punctuation::OfConstants(2, {{0, Value(k)}}), k);
  }
  ASSERT_TRUE(exec.Drain(kKeys).ok());
  EXPECT_EQ(exec.num_results(), static_cast<uint64_t>(kKeys));

  obs::ObsSnapshot snap = exec.ObservabilitySnapshot();
  EXPECT_EQ(snap.executor, "parallel");
  ASSERT_EQ(snap.operators.size(), 2u);  // one group, two shards
  uint64_t routed_total = 0;
  uint64_t received_total = 0;
  for (const obs::OperatorObsEntry& e : snap.operators) {
    EXPECT_TRUE(e.partitioned) << e.partition_detail;
    EXPECT_EQ(e.num_shards, 2u);
    EXPECT_GT(e.latency_ns.Count(), 0u)
        << "shard " << e.shard << " has no latency samples";
    EXPECT_GT(e.punct_lag.Count(), 0u)
        << "shard " << e.shard << " has no punctuation-lag samples";
    EXPECT_GT(e.queue_depth.Count(), 0u)
        << "shard " << e.shard << " has no queue-pop samples";
    // Key-routed: each punctuation pins k, so it reached one shard.
    EXPECT_GT(e.op_metrics.punctuations_received, 0u);
    received_total += e.op_metrics.punctuations_received;
    routed_total += e.routed_tuples;
  }
  EXPECT_EQ(received_total, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(routed_total, static_cast<uint64_t>(3 * kKeys));

  // The JSONL line carries one operator object per shard, each with
  // latency and punct-lag quantiles (the CI artifact contract).
  std::string line = obs::RenderJsonLine(snap);
  EXPECT_NE(line.find("\"executor\":\"parallel\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(line, "\"latency_ns\":{"), 2u);
  EXPECT_EQ(CountOccurrences(line, "\"punct_lag\":{"), 2u);
}

// The ingest ledger: per leaf shard, the driver's messages by cause,
// the rows they carried, and the punctuations delivered to the shard
// alone (riding in its staged buffer) or by broadcast — in the
// snapshot and in the JSONL line.
TEST(ParallelObsTest, IngestLedgerCountsCausesRowsAndPunctuationFanOut) {
  StreamCatalog catalog;
  PUNCTSAFE_CHECK_OK(catalog.Register("T0", Schema::OfInts({"k", "a"})));
  PUNCTSAFE_CHECK_OK(catalog.Register("T1", Schema::OfInts({"k", "b"})));
  auto q = ContinuousJoinQuery::Create(catalog, {"T0", "T1"},
                                       {Eq({"T0", "k"}, {"T1", "k"})});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  SchemeSet schemes;
  PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T0", {"k"})));
  PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "T1", {"k"})));
  constexpr int kKeys = 48;

  for (size_t batch_size : {1u, 16u}) {
    SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
    ExecutorConfig config;
    config.shards = 2;
    config.batch_size = batch_size;
    config.observe = true;
    auto exec_or = ParallelExecutor::Create(*q, schemes,
                                            PlanShape::SingleMJoin(2), config);
    ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
    ParallelExecutor& exec = **exec_or;
    for (int k = 0; k < kKeys; ++k) {
      exec.PushTuple(0, Tuple({Value(k), Value(k)}), 2 * k);
      exec.PushTuple(0, Tuple({Value(k), Value(-k)}), 2 * k);
      exec.PushTuple(1, Tuple({Value(k), Value(k)}), 2 * k + 1);
      exec.PushPunctuation(1, Punctuation::OfConstants(2, {{0, Value(k)}}),
                           2 * k + 1);
    }
    // Leaves the key open: every shard gets it.
    exec.PushPunctuation(0, Punctuation::OfConstants(2, {{1, Value(-1)}}),
                         2 * kKeys);
    ASSERT_TRUE(exec.Drain(2 * kKeys + 1).ok());

    obs::ObsSnapshot snap = exec.ObservabilitySnapshot();
    ASSERT_EQ(snap.operators.size(), 2u);
    uint64_t rows = 0, messages = 0, unicast = 0;
    for (const obs::OperatorObsEntry& e : snap.operators) {
      uint64_t shard_messages = 0;
      for (uint64_t n : e.ingest_messages) shard_messages += n;
      EXPECT_EQ(e.ingest_rows, e.routed_tuples);
      // No message carries more than batch_size items; the key-routed
      // punctuations ride in the same buffers as the rows.
      EXPECT_GE(shard_messages * batch_size, e.ingest_rows + e.punct_unicast);
      EXPECT_EQ(e.punct_broadcast, 1u);
      rows += e.ingest_rows;
      messages += shard_messages;
      unicast += e.punct_unicast;
      if (batch_size == 1) {
        // A one-item buffer is full the moment it is staged.
        EXPECT_EQ(e.ingest_messages[static_cast<size_t>(
                      obs::IngestCause::kFull)],
                  e.ingest_rows + e.punct_unicast);
      }
    }
    EXPECT_EQ(rows, static_cast<uint64_t>(3 * kKeys));
    EXPECT_EQ(unicast, static_cast<uint64_t>(kKeys));
    EXPECT_GT(messages, 0u);

    const std::string line = obs::RenderJsonLine(snap);
    const size_t first = line.find("\"operators\":[");
    ASSERT_NE(first, std::string::npos);
    const obs::OperatorObsEntry& e0 = snap.operators[0];
    const std::pair<const char*, obs::IngestCause> kCauses[] = {
        {"ingest_idle", obs::IngestCause::kIdle},
        {"ingest_full", obs::IngestCause::kFull},
        {"ingest_punct", obs::IngestCause::kPunctuation},
        {"ingest_barrier", obs::IngestCause::kBarrier}};
    for (const auto& [key, cause] : kCauses) {
      EXPECT_EQ(ExtractInt(line, key, first),
                static_cast<int64_t>(
                    e0.ingest_messages[static_cast<size_t>(cause)]))
          << key;
    }
    EXPECT_EQ(ExtractInt(line, "ingest_rows", first),
              static_cast<int64_t>(e0.ingest_rows));
    EXPECT_EQ(ExtractInt(line, "punct_unicast", first),
              static_cast<int64_t>(e0.punct_unicast));
    EXPECT_EQ(ExtractInt(line, "punct_broadcast", first), 1);
  }
}

}  // namespace
}  // namespace punctsafe
