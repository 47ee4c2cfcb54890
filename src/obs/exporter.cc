#include "obs/exporter.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace punctsafe {
namespace obs {

namespace {

void AppendKv(std::string* out, const char* key, uint64_t value,
              bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

void AppendKvSigned(std::string* out, const char* key, int64_t value,
                    bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

void AppendKvString(std::string* out, const char* key,
                    const std::string& value, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":\"");
  // The only string payloads are executor names and partition-spec
  // detail strings; escape the JSON specials defensively anyway.
  for (char c : value) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendKvBool(std::string* out, const char* key, bool value,
                  bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(value ? "true" : "false");
}

/// Histogram block: {"count":N,"mean":M,"p50":...,"p95":...,
/// "p99":...,"max":...}. Mean is rendered as an integer (the units
/// are ns or logical ts; sub-unit precision is noise).
void AppendHistogram(std::string* out, const char* key,
                     const HistogramSnapshot& h, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":{");
  bool inner = true;
  AppendKv(out, "count", h.Count(), &inner);
  AppendKv(out, "mean", static_cast<uint64_t>(h.Mean()), &inner);
  AppendKv(out, "p50", h.Quantile(0.50), &inner);
  AppendKv(out, "p95", h.Quantile(0.95), &inner);
  AppendKv(out, "p99", h.Quantile(0.99), &inner);
  AppendKv(out, "max", h.max, &inner);
  out->push_back('}');
}

void AppendOperator(std::string* out, const OperatorObsEntry& e,
                    bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('{');
  bool f = true;
  AppendKv(out, "op", e.op, &f);
  AppendKv(out, "shard", e.shard, &f);
  AppendKv(out, "num_shards", e.num_shards, &f);
  AppendKvBool(out, "partitioned", e.partitioned, &f);
  if (!e.partition_detail.empty()) {
    AppendKvString(out, "partition", e.partition_detail, &f);
  }
  // State-store counters (see exec/metrics.h for semantics).
  AppendKv(out, "inserted", e.state.inserted, &f);
  AppendKv(out, "purged", e.state.purged, &f);
  AppendKv(out, "dropped_on_arrival", e.state.dropped_on_arrival, &f);
  AppendKv(out, "probes", e.state.probes, &f);
  AppendKv(out, "live", e.state.live, &f);
  AppendKv(out, "high_water", e.state.high_water, &f);
  AppendKv(out, "arena_bytes_live", e.state.arena_bytes_live, &f);
  // Operator-level counters.
  AppendKv(out, "results_emitted", e.op_metrics.results_emitted, &f);
  AppendKv(out, "puncts_received", e.op_metrics.punctuations_received,
           &f);
  AppendKv(out, "puncts_propagated",
           e.op_metrics.punctuations_propagated, &f);
  AppendKv(out, "purge_sweeps", e.op_metrics.purge_sweeps, &f);
  AppendKv(out, "puncts_live", e.op_metrics.punctuations_live, &f);
  // Routing / backpressure / aligner gauges.
  AppendKv(out, "routed_tuples", e.routed_tuples, &f);
  AppendKv(out, "queue_stalls", e.queue_stalls, &f);
  // Ingest ledger: driver messages by cause, rows, punctuation fan-out.
  AppendKv(out, "ingest_idle",
           e.ingest_messages[static_cast<size_t>(IngestCause::kIdle)], &f);
  AppendKv(out, "ingest_full",
           e.ingest_messages[static_cast<size_t>(IngestCause::kFull)], &f);
  AppendKv(out, "ingest_punct",
           e.ingest_messages[static_cast<size_t>(IngestCause::kPunctuation)],
           &f);
  AppendKv(out, "ingest_barrier",
           e.ingest_messages[static_cast<size_t>(IngestCause::kBarrier)], &f);
  AppendKv(out, "ingest_rows", e.ingest_rows, &f);
  AppendKv(out, "punct_unicast", e.punct_unicast, &f);
  AppendKv(out, "punct_broadcast", e.punct_broadcast, &f);
  AppendKv(out, "aligner_pending", e.aligner_pending, &f);
  AppendKv(out, "aligner_pending_hw", e.aligner_pending_high_water,
           &f);
  // Histograms.
  AppendHistogram(out, "latency_ns", e.latency_ns, &f);
  AppendHistogram(out, "punct_lag", e.punct_lag, &f);
  AppendHistogram(out, "sweep_ns", e.sweep_ns, &f);
  AppendHistogram(out, "queue_depth", e.queue_depth, &f);
  out->push_back('}');
}

}  // namespace

std::string RenderJsonLine(const ObsSnapshot& snapshot) {
  std::string out;
  out.reserve(512 + snapshot.operators.size() * 768);
  out.push_back('{');
  bool first = true;
  AppendKvSigned(&out, "wall_ms", snapshot.wall_ms, &first);
  AppendKv(&out, "seq", snapshot.seq, &first);
  AppendKvString(&out, "executor", snapshot.executor, &first);
  AppendKvString(&out, "simd_dispatch", snapshot.simd_dispatch, &first);
  AppendKv(&out, "batch_size", snapshot.batch_size, &first);
  AppendKv(&out, "results", snapshot.results, &first);
  AppendKv(&out, "live_tuples", snapshot.live_tuples, &first);
  AppendKv(&out, "live_punctuations", snapshot.live_punctuations,
           &first);
  AppendKv(&out, "tuple_high_water", snapshot.tuple_high_water,
           &first);
  AppendKv(&out, "punctuation_high_water",
           snapshot.punctuation_high_water, &first);
  out.append(",\"operators\":[");
  bool op_first = true;
  for (const auto& e : snapshot.operators) {
    AppendOperator(&out, e, &op_first);
  }
  out.append("]}");
  return out;
}

MetricsExporter::MetricsExporter(SnapshotFn source, std::ostream* out,
                                 Options options)
    : source_(std::move(source)), out_(out), options_(options) {}

MetricsExporter::MetricsExporter(SnapshotFn source,
                                 const std::string& path,
                                 Options options)
    : source_(std::move(source)),
      owned_file_(std::make_unique<std::ofstream>(
          path, std::ios::out | std::ios::trunc)),
      options_(options) {
  if (owned_file_->is_open()) out_ = owned_file_.get();
}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::Start() {
  if (options_.interval_ms <= 0 || out_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void MetricsExporter::Stop() {
  bool was_running = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_running = running_;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  if (was_running && options_.export_on_stop) ExportNow();
}

void MetricsExporter::ExportNow() {
  if (out_ == nullptr || !source_) return;
  WriteLine();
}

void MetricsExporter::Rebind(SnapshotFn source) {
  std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
}

void MetricsExporter::RunLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    WriteLine();
    lock.lock();
  }
}

void MetricsExporter::WriteLine() {
  // Snapshot outside the lock: the source walks executor state and
  // can take operator-level locks; serialize only the write + seq.
  SnapshotFn source;
  {
    std::lock_guard<std::mutex> lock(mu_);
    source = source_;
  }
  ObsSnapshot snap = source();
  std::lock_guard<std::mutex> lock(mu_);
  snap.seq = ++seq_;  // 1-based: seq of the newest line == lines_written()
  snap.wall_ms = WallMs();
  (*out_) << RenderJsonLine(snap) << '\n';
  out_->flush();
}

}  // namespace obs
}  // namespace punctsafe
