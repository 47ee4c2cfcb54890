// The benchmark's own arithmetic, kept apart from the workloads so
// harness_selftest.cc can check it on hand-made inputs:
//  * the percentile rule (report the highest percentile that still has
//    at least ten samples beyond it), and the fast-phase value of
//    per-chunk figures built on it;
//  * weighted latency samples (one sample per result, stored as
//    (value, count) so a push that yields 10^5 results costs one entry);
//  * tag-based last-contributor attribution;
//  * the open-loop schedule (due times, generator lateness, latency
//    from the due time of a result's last contributor);
//  * an order-independent multiset digest for result checking;
//  * the four-entry-point server ledger.

#ifndef PUNCTSAFE_PERFBENCH_HARNESS_H_
#define PUNCTSAFE_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stream/tuple.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------ percentiles

/// \brief The percentile actually reported for a wanted one: the
/// highest of {wanted, 99, 95, 90, 75, 50} (not above `wanted`) that
/// leaves at least ten of `n` samples beyond it, i.e. n * (100 - p) /
/// 100 >= 10. Returns 0 when even the median lacks support (n < 20).
inline double SupportedPercentile(uint64_t n, double wanted) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p > wanted) continue;
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// \brief A multiset of (value, count) samples. Percentiles use the
/// nearest-rank rule over the expanded multiset.
class WeightedSamples {
 public:
  void Add(double value, uint64_t count = 1) {
    if (count == 0) return;
    samples_.emplace_back(value, count);
    total_ += count;
  }
  void Merge(const WeightedSamples& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    total_ += other.total_;
  }
  void Reserve(size_t entries) { samples_.reserve(entries); }
  uint64_t count() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Nearest rank: the smallest value whose cumulative count reaches
  /// ceil(p / 100 * total). 0 when empty.
  double Percentile(double p) {
    if (total_ == 0) return 0.0;
    std::sort(samples_.begin(), samples_.end());
    double exact = p / 100.0 * static_cast<double>(total_);
    uint64_t rank = static_cast<uint64_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (const auto& [value, count] : samples_) {
      seen += count;
      if (seen >= rank) return value;
    }
    return samples_.back().first;
  }

  /// Percentile under the support rule; `reported` receives the
  /// percentile actually used (0 when unsupported, in which case the
  /// median is returned).
  double SupportedAt(double wanted, double* reported) {
    double p = SupportedPercentile(total_, wanted);
    if (reported != nullptr) *reported = p;
    return Percentile(p > 0 ? p : 50.0);
  }

 private:
  std::vector<std::pair<double, uint64_t>> samples_;
  uint64_t total_ = 0;
};

/// \brief Median of plain values. Takes a
/// copy: callers keep their order.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// \brief Nearest-rank percentile of plain values: the smallest value
/// with at least ceil(p / 100 * n) values at or below it. 0 when empty.
inline double PlainPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double exact = p / 100.0 * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

/// \brief A run's fast-phase value of per-chunk figures: the 90th
/// percentile of a higher-is-better figure (a chunk's throughput), the
/// 10th of a lower-is-better one (a chunk's median latency). Under the
/// percentile rule at least ten chunks lie beyond it; with fewer than
/// 100 chunks it moves toward the median (75, then 50).
///
/// A shared host runs the same code at up to twice the speed in some
/// phases as in others, and a phase lasts seconds to tens of seconds,
/// so the share of slow chunks in a run changes from run to run and
/// moves a mean or median with it. The fast phases recur in every run
/// at about the same speed, so their value repeats; it is still a
/// wall-clock figure, and a faster program raises it in proportion.
inline double FastPhase(const std::vector<double>& chunk_values, bool higher_is_better) {
  double p = SupportedPercentile(chunk_values.size(), 90.0);
  if (p == 0) p = 50.0;
  return PlainPercentile(chunk_values, higher_is_better ? p : 100.0 - p);
}

/// \brief Interquartile mean: the mean of the values between the
/// first and third quartiles (a quarter trimmed from each end, by
/// nearest rank). Like the median it ignores outlying chunks; unlike
/// the median it moves smoothly when the share of slow chunks shifts.
inline double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t lo = n / 4, hi = n - n / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

// --------------------------------------------------- attribution

/// \brief The benchmark writes each event's sequence number into one
/// attribute that is neither joined nor punctuated (the tag). A result
/// row carries one tag per contributing stream tuple; the largest
/// names the contributor that arrived last.
inline int64_t LastContributor(const punctsafe::Tuple& row,
                               std::span<const size_t> tag_offsets) {
  int64_t last = -1;
  for (size_t off : tag_offsets) {
    last = std::max(last, row.at(off).AsInt64());
  }
  return last;
}

// ---------------------------------------------------- open loop

/// \brief Fixed-rate schedule: event `seq` (counted from 0 at the
/// start of the phase) is due at t0 + seq / rate. Latency is taken
/// from the due time, not the send time, so a stall that delays later
/// sends is charged to every result it delays. Result latencies are
/// kept per chunk of due time, and a run reports a statistic over its
/// chunks of each chunk's percentile (FastPhase for the median), so one
/// burst of interference from outside moves one chunk, not the
/// reported number.
class OpenLoop {
 public:
  OpenLoop(int64_t t0_ns, double events_per_s, int64_t chunk_ns)
      : t0_ns_(t0_ns), interval_ns_(1e9 / events_per_s), chunk_ns_(chunk_ns) {}

  /// Sizes the sample storage for `chunks` chunks up front, so the
  /// benchmark's own bookkeeping never reallocates (and page-faults)
  /// in the middle of the measured phase.
  void Reserve(size_t chunks) {
    const size_t per_chunk =
        static_cast<size_t>(1e9 / interval_ns_ * static_cast<double>(chunk_ns_) / 1e9) + 1;
    late_us_.Reserve(per_chunk * (chunks + 1));
    chunks_.resize(chunks + 1);
    for (WeightedSamples& c : chunks_) c.Reserve(per_chunk);
  }

  int64_t Due(uint64_t seq) const {
    return t0_ns_ + static_cast<int64_t>(static_cast<double>(seq) *
                                         interval_ns_);
  }

  /// Records that event `seq` went out at `sent_ns`; returns how late
  /// the generator was (0 when on time).
  int64_t NoteSent(uint64_t seq, int64_t sent_ns) {
    int64_t late = std::max<int64_t>(0, sent_ns - Due(seq));
    late_us_.Add(static_cast<double>(late) / 1e3);
    return late;
  }

  /// Records `count` results whose last contributor is event `seq`,
  /// first seen by the benchmark at `seen_ns`.
  void NoteResults(uint64_t seq, int64_t seen_ns, uint64_t count) {
    int64_t due = Due(seq);
    size_t chunk = static_cast<size_t>((due - t0_ns_) / chunk_ns_);
    if (chunk >= chunks_.size()) chunks_.resize(chunk + 1);
    chunks_[chunk].Add(static_cast<double>(seen_ns - due) / 1e3, count);
  }

  /// Each of the first `full_chunks` chunks' `wanted` percentile
  /// under the support rule (empty chunks skipped). `lowest` is lowered
  /// to the lowest percentile any chunk had to fall back to.
  std::vector<double> ChunkPercentiles(double wanted, size_t full_chunks, double* lowest) {
    std::vector<double> per_chunk;
    for (size_t c = 0; c < full_chunks && c < chunks_.size(); ++c) {
      if (chunks_[c].empty()) continue;
      double used = 0;
      per_chunk.push_back(chunks_[c].SupportedAt(wanted, &used));
      if (lowest != nullptr) *lowest = std::min(*lowest, used);
    }
    return per_chunk;
  }

  uint64_t result_samples() const {
    uint64_t n = 0;
    for (const WeightedSamples& c : chunks_) n += c.count();
    return n;
  }
  WeightedSamples& late_us() { return late_us_; }

 private:
  int64_t t0_ns_;
  double interval_ns_;
  int64_t chunk_ns_;
  std::vector<WeightedSamples> chunks_;
  WeightedSamples late_us_;
};

// ------------------------------------------------------- digest

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// \brief Order-independent digest of a multiset of element hashes:
/// count, wrapping sum and xor of two independent mixes. Equal
/// multisets give equal digests; digests of disjoint parts add.
struct MultisetDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xored = 0;

  void Add(uint64_t element_hash) {
    ++count;
    sum += Mix64(element_hash);
    xored ^= Mix64(element_hash ^ 0x9E3779B97F4A7C15ULL);
  }
  MultisetDigest& operator+=(const MultisetDigest& other) {
    count += other.count;
    sum += other.sum;
    xored ^= other.xored;
    return *this;
  }
  bool operator==(const MultisetDigest& other) const {
    return count == other.count && sum == other.sum && xored == other.xored;
  }
};

// ------------------------------------------------------- ledger

/// \brief The server workload's layer split. The same element lines
/// are replayed at four entry points; each run includes the layers
/// below it, so each difference is one layer's self time:
///   wire_s        sockets + event loop + everything below
///   protocol_s    ProcessLine calls (parse + registry + executors)
///   format_s      TakeResults + FormatResultLine in that replay
///   registry_s    QueryRegistry::Push* calls (fan-out + executors)
///   exec_s        the executors pushed directly
struct ServerReplayTimes {
  double wire_s = 0;
  double protocol_s = 0;
  double format_s = 0;
  double registry_s = 0;
  double exec_s = 0;
};

struct ServerShares {
  double socket = 0;
  double protocol = 0;
  double format = 0;
  double registry = 0;
  double exec = 0;
};

/// Shares of wire time; they sum to 1. A share can come out slightly
/// negative when a layer's self time is below run-to-run noise; it is
/// reported as measured.
inline ServerShares SplitServerLedger(const ServerReplayTimes& t) {
  ServerShares s;
  if (t.wire_s <= 0) return s;
  s.exec = t.exec_s / t.wire_s;
  s.registry = (t.registry_s - t.exec_s) / t.wire_s;
  s.protocol = (t.protocol_s - t.registry_s) / t.wire_s;
  s.format = t.format_s / t.wire_s;
  s.socket = (t.wire_s - t.protocol_s - t.format_s) / t.wire_s;
  return s;
}

/// \brief Span totals of one traced loop. Spans are flat (one per
/// public call the benchmark makes), so a span's self time is its
/// duration.
struct SpanTotals {
  int64_t ns = 0;
  uint64_t calls = 0;
};

/// \brief Share of `wall_ns` covered by the spans.
inline double Coverage(std::span<const SpanTotals> spans, int64_t wall_ns) {
  if (wall_ns <= 0) return 0.0;
  int64_t covered = 0;
  for (const SpanTotals& s : spans) covered += s.ns;
  return static_cast<double>(covered) / static_cast<double>(wall_ns);
}

}  // namespace perfbench

#endif  // PUNCTSAFE_PERFBENCH_HARNESS_H_
