// Periodic JSON-lines metrics exporter. A MetricsExporter owns a
// snapshot source (a callback composed by the executor — see
// PlanExecutor::ObservabilitySnapshot / ParallelExecutor::
// ObservabilitySnapshot), and writes one self-contained JSON object
// per line to a stream or file: executor-level counters/gauges, then
// one nested object per shard-operator with its StateMetrics,
// OperatorMetrics, routing / ingest / aligner counters, and the
// p50/p95/p99/max quantiles of the latency / punctuation-lag / sweep /
// queue-depth histograms. tools/obs_report.py renders the JSONL into
// a table; docs/OBSERVABILITY.md documents the schema.
//
// Start() spawns a background thread that exports every
// `interval_ms`; ExportNow() takes a synchronous snapshot from any
// thread (used by tests and benches, and safe alongside the
// background thread — lines are serialized under a mutex).

#ifndef PUNCTSAFE_OBS_EXPORTER_H_
#define PUNCTSAFE_OBS_EXPORTER_H_

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "obs/observability.h"

namespace punctsafe {
namespace obs {

/// \brief Serializes one snapshot as a single JSON object (no
/// trailing newline). Deterministic key order; ASCII only.
std::string RenderJsonLine(const ObsSnapshot& snapshot);

struct ExporterOptions {
  /// Background export period. <= 0 disables the timer thread
  /// (ExportNow still works).
  int64_t interval_ms = 1000;
  /// Emit one final snapshot when Stop() is called (or the exporter
  /// is destroyed while running).
  bool export_on_stop = true;
};

class MetricsExporter {
 public:
  using SnapshotFn = std::function<ObsSnapshot()>;
  using Options = ExporterOptions;

  /// \brief Writes to an externally owned stream (test-friendly).
  MetricsExporter(SnapshotFn source, std::ostream* out,
                  Options options = {});
  /// \brief Appends to a file (created/truncated on open).
  MetricsExporter(SnapshotFn source, const std::string& path,
                  Options options = {});
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// \brief True when the output sink opened successfully.
  bool ok() const { return out_ != nullptr; }

  /// \brief Starts the periodic background thread (no-op when the
  /// interval is non-positive or the thread is already running).
  void Start();
  /// \brief Stops the background thread; optionally flushes a final
  /// snapshot (Options::export_on_stop). Idempotent.
  void Stop();

  /// \brief Takes a snapshot and writes one line immediately.
  void ExportNow();

  /// \brief Swaps the snapshot source while keeping the sink and the
  /// line sequence (benches rebind one JSONL file across successive
  /// executor instances). Must not be called while the background
  /// thread is running; the new source must stay valid for every
  /// later export, including a Stop() flush.
  void Rebind(SnapshotFn source);

  /// \brief Lines written so far.
  uint64_t lines_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }

 private:
  void RunLoop();
  void WriteLine();

  SnapshotFn source_;
  std::unique_ptr<std::ofstream> owned_file_;
  std::ostream* out_ = nullptr;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  uint64_t seq_ = 0;
  std::thread thread_;
};

}  // namespace obs
}  // namespace punctsafe

#endif  // PUNCTSAFE_OBS_EXPORTER_H_
