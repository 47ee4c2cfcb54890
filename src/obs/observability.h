// Runtime observability context for one executor: a registry of
// per-shard-operator observation points (OperatorObs), each bundling
// the latency / punctuation-lag / purge-sweep / queue-occupancy
// histograms and the routing / ingest counters that explain where
// time goes and why state is the size it is.
//
// Cost model: every hook is a handful of relaxed atomics; operators
// hold a nullable OperatorObs* and skip the hooks entirely when
// observability is off (ExecutorConfig::observe, the one switch): one
// predictable null-pointer branch per hook site. docs/OBSERVABILITY.md
// has the histograms, the exporter schema and the measured overhead.
//
// Thread contract: one OperatorObs belongs to one shard worker
// thread, the only writer of its histograms. Histogram/counter reads
// may come from any other thread concurrently (the exporter).

#ifndef PUNCTSAFE_OBS_OBSERVABILITY_H_
#define PUNCTSAFE_OBS_OBSERVABILITY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/metrics.h"
#include "obs/histogram.h"

namespace punctsafe {
namespace obs {

/// \brief Steady-clock nanoseconds (the latency time base).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Wall-clock milliseconds since epoch (exporter timestamps).
inline int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

namespace internal {

/// \brief Relaxed atomic max for signed 64-bit (monotone).
inline void AtomicMax64(std::atomic<int64_t>& target, int64_t value) {
  int64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// \brief Why the parallel executor's driver shipped a leaf shard's
/// staged buffer (the ingest ledger).
enum class IngestCause : uint8_t {
  kIdle = 0,     ///< the shard's worker was parked on an empty queue
  kFull,         ///< batch_size items (rows + riding punctuations) staged
  kPunctuation,  ///< a broadcast punctuation follows
  kBarrier,      ///< drain / checkpoint / recheck
};
inline constexpr size_t kNumIngestCauses = 4;

/// \brief One observation point: owned by exactly one shard worker.
class OperatorObs {
 public:
  OperatorObs(uint16_t op, uint32_t shard) : op_(op), shard_(shard) {}

  uint16_t op() const { return op_; }
  uint32_t shard() const { return shard_; }

  /// \brief Folds an arriving tuple's logical timestamp into the
  /// per-operator maximum (the reference point for punctuation lag).
  void NoteTupleTs(int64_t ts) {
    internal::AtomicMax64(max_tuple_ts_, ts);
  }
  int64_t max_tuple_ts() const {
    return max_tuple_ts_.load(std::memory_order_relaxed);
  }

  /// \brief Tuple latency, arrival (executor ingress / parent-queue
  /// enqueue) to the end of the operator's synchronous processing of
  /// it — queue wait included under the parallel executor.
  void RecordLatencyNs(int64_t ns) { latency_ns_.Record(ns); }

  /// \brief Punctuation arrival: records its staleness relative to
  /// the newest tuple timestamp this operator has seen (clamped at 0
  /// — a punctuation "from the future", or one ahead of every tuple,
  /// has no lag).
  void RecordPunctuation(int64_t punct_ts) {
    const int64_t newest = max_tuple_ts();
    punct_lag_.Record(newest > punct_ts ? newest - punct_ts : 0);
  }

  /// \brief Purge sweep finished: duration histogram.
  void RecordSweep(int64_t dur_ns) { sweep_ns_.Record(dur_ns); }

  /// \brief Worker popped `n` queued elements (tuples and
  /// punctuations, whatever messages carried them): occupancy
  /// histogram (parallel executor only).
  void RecordQueueBatch(uint64_t n) {
    queue_depth_.Record(static_cast<int64_t>(n));
  }

  /// \brief A producer found this worker's queue full (backpressure).
  /// Any thread (atomic counter).
  void IncStall() { stalls_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

  /// \brief `n` tuples were hash-routed to this shard (skew
  /// visibility; batch routing counts every row of the batch).
  void IncRouted(uint64_t n = 1) {
    routed_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t routed() const {
    return routed_.load(std::memory_order_relaxed);
  }

  /// \brief The driver shipped a staged buffer holding `rows` tuples
  /// to this shard as one message, for `cause` (driver thread; atomic
  /// counters; riding punctuations count in punct_unicast).
  void NoteIngest(IngestCause cause, uint64_t rows) {
    ingest_messages_[static_cast<size_t>(cause)].fetch_add(
        1, std::memory_order_relaxed);
    ingest_rows_.fetch_add(rows, std::memory_order_relaxed);
  }
  uint64_t ingest_messages(IngestCause cause) const {
    return ingest_messages_[static_cast<size_t>(cause)].load(
        std::memory_order_relaxed);
  }
  uint64_t ingest_rows() const {
    return ingest_rows_.load(std::memory_order_relaxed);
  }

  /// \brief A punctuation was sent to this shard, either to it alone
  /// (key-routed; at ingest it rides in the shard's staged buffer) or
  /// as part of a broadcast. Any thread.
  void NotePunctuationDelivery(bool unicast) {
    (unicast ? punct_unicast_ : punct_broadcast_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t punct_unicast() const {
    return punct_unicast_.load(std::memory_order_relaxed);
  }
  uint64_t punct_broadcast() const {
    return punct_broadcast_.load(std::memory_order_relaxed);
  }

  const LogHistogram& latency_ns() const { return latency_ns_; }
  const LogHistogram& punct_lag() const { return punct_lag_; }
  const LogHistogram& sweep_ns() const { return sweep_ns_; }
  const LogHistogram& queue_depth() const { return queue_depth_; }

 private:
  const uint16_t op_;
  const uint32_t shard_;
  std::atomic<int64_t> max_tuple_ts_{
      std::numeric_limits<int64_t>::min()};
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> ingest_messages_[kNumIngestCauses] = {};
  std::atomic<uint64_t> ingest_rows_{0};
  std::atomic<uint64_t> punct_unicast_{0};
  std::atomic<uint64_t> punct_broadcast_{0};
  LogHistogram latency_ns_;   // nanoseconds, arrival -> processed
  LogHistogram punct_lag_;    // logical timestamp units
  LogHistogram sweep_ns_;     // nanoseconds per purge sweep
  LogHistogram queue_depth_;  // elements per popped batch
};

/// \brief One shard-operator's exported view (plain values).
struct OperatorObsEntry {
  uint16_t op = 0;
  uint32_t shard = 0;
  size_t num_shards = 1;
  bool partitioned = false;
  std::string partition_detail;
  StateMetricsSnapshot state;
  OperatorMetricsSnapshot op_metrics;
  uint64_t routed_tuples = 0;
  uint64_t queue_stalls = 0;
  /// Ingest ledger (leaf shards; zero elsewhere): messages per
  /// IngestCause, rows they carried, and punctuations delivered.
  std::array<uint64_t, kNumIngestCauses> ingest_messages{};
  uint64_t ingest_rows = 0;
  uint64_t punct_unicast = 0;
  uint64_t punct_broadcast = 0;
  size_t aligner_pending = 0;
  size_t aligner_pending_high_water = 0;
  HistogramSnapshot latency_ns;
  HistogramSnapshot punct_lag;
  HistogramSnapshot sweep_ns;
  HistogramSnapshot queue_depth;

  /// \brief Copies the OperatorObs-owned fields (ids, counters,
  /// histograms); executors fill the rest (state/op metrics,
  /// partitioning, aligner gauges) themselves.
  void CaptureFrom(const OperatorObs& o) {
    op = o.op();
    shard = o.shard();
    routed_tuples = o.routed();
    queue_stalls = o.stalls();
    for (size_t c = 0; c < kNumIngestCauses; ++c) {
      ingest_messages[c] = o.ingest_messages(static_cast<IngestCause>(c));
    }
    ingest_rows = o.ingest_rows();
    punct_unicast = o.punct_unicast();
    punct_broadcast = o.punct_broadcast();
    latency_ns = o.latency_ns().Snapshot();
    punct_lag = o.punct_lag().Snapshot();
    sweep_ns = o.sweep_ns().Snapshot();
    queue_depth = o.queue_depth().Snapshot();
  }
};

/// \brief One executor-wide snapshot (one exporter JSONL line).
struct ObsSnapshot {
  int64_t wall_ms = 0;    ///< filled by the exporter
  uint64_t seq = 0;       ///< filled by the exporter
  std::string executor;   ///< "serial" | "parallel"
  /// Active SIMD dispatch (simd::kDispatchName: "sse2" | "neon" |
  /// "scalar") so a recorded run names the code path that
  /// produced it.
  std::string simd_dispatch;
  /// Configured execution batch capacity (1 = tuple-at-a-time).
  size_t batch_size = 0;
  uint64_t results = 0;
  size_t live_tuples = 0;
  size_t live_punctuations = 0;
  size_t tuple_high_water = 0;
  size_t punctuation_high_water = 0;
  std::vector<OperatorObsEntry> operators;
};

/// \brief The per-executor registry: owns every OperatorObs so their
/// histograms outlive the worker threads that feed them.
class Observability {
 public:
  Observability() = default;
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// \brief Registers the observation point for (op, shard). Called
  /// during executor construction, before worker threads start.
  OperatorObs* AddOperator(uint16_t op, uint32_t shard) {
    operators_.push_back(std::make_unique<OperatorObs>(op, shard));
    return operators_.back().get();
  }

  size_t size() const { return operators_.size(); }
  OperatorObs& at(size_t i) { return *operators_[i]; }
  const OperatorObs& at(size_t i) const { return *operators_[i]; }

 private:
  std::vector<std::unique_ptr<OperatorObs>> operators_;
};

}  // namespace obs
}  // namespace punctsafe

#endif  // PUNCTSAFE_OBS_OBSERVABILITY_H_
