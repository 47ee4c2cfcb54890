// cjq_bench: the end-to-end continuous-join-query benchmark
// (perfbench/README.md has the metrics, workloads and expected layer
// split). One invocation runs one workload through the library's real
// entry points — PlanExecutor, ParallelExecutor, or the IngestServer
// over loopback — and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
//
//   cjq_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Inputs are generated from the seed as a base trace that is replayed
// cyclically: every cycle shifts the joined/punctuated key values into
// a fresh range (so punctuations of one cycle never close the next),
// and every event's sequence number is written into one attribute that
// is neither joined nor punctuated (the tag). The largest tag in a
// result row names its last contributor, which is how open-loop
// latency is attributed from outside the program, and tags reduced
// modulo the cycle length let every result be checked against a
// reference computed once on the base trace.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/safety_checker.h"
#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "exec/query_register.h"
#include "exec/reference_join.h"
#include "exec/simd.h"
#include "harness.h"
#include "query/spec_parser.h"
#include "server/protocol.h"
#include "server/query_registry.h"
#include "server/server.h"
#include "workload/auction.h"
#include "workload/random_query.h"
#include "workload/sensor.h"

namespace perfbench {
namespace {

using punctsafe::ContinuousJoinQuery;
using punctsafe::ExecutorConfig;
using punctsafe::ParallelExecutor;
using punctsafe::PlanExecutor;
using punctsafe::PlanShape;
using punctsafe::Punctuation;
using punctsafe::QueryRegister;
using punctsafe::SchemeSet;
using punctsafe::Status;
using punctsafe::Trace;
using punctsafe::Tuple;
using punctsafe::Value;

constexpr int64_t kChunkNs = 125'000'000;  // aggregation chunk: 0.125 s

// ------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"events_per_s", "1/s"},      {"result_latency_p50_us", "us"},
    {"state_peak_tuples", "count"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"query.parse_spec_s", "s"},
    {"core.check_query_s", "s"},
    {"core.tpg_rounds", "count"},
    {"exec.create_s", "s"},
    {"exec.punct_call_share", "ratio"},
    {"exec.punct_call_p99_us", "us"},
    {"exec.removability_checks_per_event", "count"},
    {"exec.purge_yield", "ratio"},
    {"exec.sweeps", "count"},
    {"exec.tuple_call_share", "ratio"},
    {"exec.probes_per_event", "count"},
    {"exec.probe_run_len", "count"},
    {"exec.results_per_event", "count"},
    {"exec.punct_peak", "count"},
    {"exec.arena_bytes_reserved", "bytes"},
    {"exec.alloc_events", "count"},
    {"parallel.push_share", "ratio"},
    {"parallel.drain_s", "s"},
    {"parallel.shard_hw_imbalance", "ratio"},
    {"parallel.scaling", "ratio"},
    {"server.socket_share", "ratio"},
    {"server.protocol_share", "ratio"},
    {"server.registry_share", "ratio"},
    {"server.format_share", "ratio"},
    {"server.exec_share", "ratio"},
    {"server.push_ack_p50_us", "us"},
    {"server.control_rtt_p99_us", "us"},
    {"server.bytes_in_per_event", "bytes"},
    {"server.bytes_out_per_result", "bytes"},
    {"server.err_lines", "count"},
    {"server.disconnects", "count"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.result_latency_p99_us", "us"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

using Metrics = std::map<std::string, double>;

/// Operations attempted/failed and the correctness verdict of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Mismatch(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  }
  void Check(const Status& s, const char* what) {
    ++attempted;
    if (!s.ok()) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", what, s.ToString().c_str());
    }
  }
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "cjq_bench: %s\n", why.c_str());
  std::exit(1);
}

double PeakRssMb() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ------------------------------------------------------ CPU placement

/// \brief Runs the benchmark's threads on the CPUs that are fastest at
/// the moment. On a shared host, load from outside the machine slows
/// one or two CPUs at a time to about 0.6 of the others' speed on an
/// execution-bound loop, for a few seconds, and which CPUs changes; a
/// run that left placement to the scheduler measured where it happened
/// to land.
/// Before each sub-run the benchmark times a fixed arithmetic loop on
/// each CPU it may use, one CPU after another, and restricts the
/// calling thread to the `k` fastest. Threads started afterwards (shard
/// workers, the server's event loop, the collector) inherit that set.
class CpuPlacer {
 public:
  CpuPlacer() {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed_.push_back(c);
      }
    }
#endif
  }

  void PlaceOnFastest(size_t k) {
    if (allowed_.size() <= k) {
      Pin(allowed_);
      return;
    }
    std::vector<std::pair<int64_t, int>> timed;
    for (int cpu : allowed_) {
      Pin({cpu});
      timed.emplace_back(std::min(Probe(), Probe()), cpu);
    }
    std::sort(timed.begin(), timed.end());
    std::vector<int> fastest;
    for (size_t i = 0; i < k; ++i) fastest.push_back(timed[i].second);
    Pin(fastest);
  }

 private:
  // Eight independent multiply-add chains: bound by the core's
  // execution units, like the executors' hot loops.
  static int64_t Probe() {
    uint64_t x[8];
    for (uint64_t i = 0; i < 8; ++i) x[i] = i * 0x9E3779B97F4A7C15ULL + 1;
    const int64_t t = NowNs();
    for (int it = 0; it < 8192; ++it) {
      for (uint64_t& v : x) {
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        v ^= v >> 29;
      }
    }
    const int64_t ns = NowNs() - t;
    uint64_t sum = 0;
    for (uint64_t v : x) sum += v;
    sink_ = sink_ + sum;
    return ns;
  }

  static void Pin(const std::vector<int>& cpus) {
#ifdef __linux__
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
#endif
  }

  std::vector<int> allowed_;
  static inline volatile uint64_t sink_ = 0;
};

CpuPlacer& Placer() {
  static CpuPlacer placer;
  return placer;
}

// -------------------------------------------------------- event source

/// Per stream: which attributes are shifted into a fresh range each
/// cycle (joined or punctuated keys), by how much, and which attribute
/// carries the tag.
struct StreamLayout {
  std::string name;
  size_t arity = 0;
  std::vector<size_t> shift_attrs;
  int64_t shift_span = 0;
  size_t tag_attr = 0;
};

struct BaseEvent {
  uint32_t stream = 0;
  bool punct = false;
  uint32_t segment = 0;
  std::vector<Value> values;  // tuple values, or constants (Null = '*')
};

/// A base trace replayed cyclically. Event `seq` is base event
/// seq % n of cycle seq / n. A segment is the unit of checking: every
/// result's contributors lie in one segment, and a phase only stops at
/// a segment end.
class Source {
 public:
  Source(std::vector<StreamLayout> streams, std::vector<BaseEvent> base)
      : streams_(std::move(streams)), base_(std::move(base)) {
    if (base_.empty()) Die("empty base trace");
    num_segments_ = base_.back().segment + 1;
    for (size_t i = 0; i < base_.size(); ++i) {
      if (i + 1 < base_.size() && base_[i + 1].segment < base_[i].segment) {
        Die("segments out of order");
      }
    }
  }

  const std::vector<StreamLayout>& streams() const { return streams_; }
  uint64_t base_len() const { return base_.size(); }
  uint32_t num_segments() const { return num_segments_; }
  uint32_t SegmentOf(uint64_t seq) const { return base_[seq % base_.size()].segment; }
  bool EndsSegment(uint64_t seq) const {
    size_t i = seq % base_.size();
    return i + 1 == base_.size() || base_[i + 1].segment != base_[i].segment;
  }
  const BaseEvent& base(uint64_t seq) const { return base_[seq % base_.size()]; }

  /// Shifted, tagged values of event `seq` (constants for a
  /// punctuation, Null = wildcard). Valid until the next call.
  const std::vector<Value>& Values(uint64_t seq) {
    const BaseEvent& ev = base(seq);
    const StreamLayout& layout = streams_[ev.stream];
    int64_t cycle = static_cast<int64_t>(seq / base_.size());
    values_.assign(ev.values.begin(), ev.values.end());
    for (size_t a : layout.shift_attrs) {
      if (!values_[a].is_null() && cycle != 0) {
        values_[a] = Value(values_[a].AsInt64() + cycle * layout.shift_span);
      }
    }
    if (!ev.punct) values_[layout.tag_attr] = Value(static_cast<int64_t>(seq));
    return values_;
  }

  Tuple TupleView(uint64_t seq) {
    const std::vector<Value>& v = Values(seq);
    return Tuple(Tuple::ExternalRef{}, v.data(), v.size());
  }

  Punctuation PunctuationOf(uint64_t seq) {
    const std::vector<Value>& v = Values(seq);
    std::vector<std::pair<size_t, Value>> constants;
    for (size_t i = 0; i < v.size(); ++i) {
      if (!v[i].is_null()) constants.emplace_back(i, v[i]);
    }
    return Punctuation::OfConstants(v.size(), constants);
  }

 private:
  std::vector<StreamLayout> streams_;
  std::vector<BaseEvent> base_;
  uint32_t num_segments_ = 0;
  std::vector<Value> values_;
};

/// Per output-row offset: how to undo the cycle shift and tag before
/// hashing, so a result of any cycle hashes like its base-trace twin.
struct RowRole {
  enum Kind { kPlain, kShift, kTag } kind = kPlain;
  int64_t span = 0;
};

/// Roles of a result row whose layout concatenates `streams` (indices
/// into the source's stream list) in order.
std::vector<RowRole> RowRoles(const Source& src,
                              const std::vector<uint32_t>& streams,
                              std::vector<size_t>* tag_offsets) {
  std::vector<RowRole> roles;
  for (uint32_t s : streams) {
    const StreamLayout& layout = src.streams()[s];
    size_t base = roles.size();
    roles.resize(base + layout.arity);
    for (size_t a : layout.shift_attrs) {
      roles[base + a] = {RowRole::kShift, layout.shift_span};
    }
    roles[base + layout.tag_attr] = {RowRole::kTag, 0};
    tag_offsets->push_back(base + layout.tag_attr);
  }
  return roles;
}

uint64_t HashStep(uint64_t h, uint64_t v) { return Mix64(h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6))); }

/// Hash of a result row with shifts and tags normalized to cycle 0.
uint64_t NormalizedRowHash(const Tuple& row, const std::vector<RowRole>& roles,
                           size_t first_tag, uint64_t base_len) {
  int64_t cycle = row.at(first_tag).AsInt64() / static_cast<int64_t>(base_len);
  uint64_t h = 0x51ED270B0B2C5A1BULL;
  for (size_t i = 0; i < roles.size(); ++i) {
    switch (roles[i].kind) {
      case RowRole::kPlain:
        h = HashStep(h, row.at(i).Hash());
        break;
      case RowRole::kShift:
        h = HashStep(h, static_cast<uint64_t>(row.at(i).AsInt64() -
                                              cycle * roles[i].span));
        break;
      case RowRole::kTag:
        h = HashStep(h, static_cast<uint64_t>(row.at(i).AsInt64()) % base_len);
        break;
    }
  }
  return h;
}

/// Same normalization over a protocol RESULT line's value tokens
/// (tokens[2..]); also yields the largest tag.
uint64_t NormalizedLineHash(const std::vector<std::string>& tokens,
                            const std::vector<RowRole>& roles,
                            const std::vector<size_t>& tag_offsets,
                            uint64_t base_len, int64_t* last_tag) {
  if (tokens.size() != roles.size() + 2) Die("malformed RESULT line");
  int64_t last = -1;
  for (size_t off : tag_offsets) {
    last = std::max<int64_t>(last, std::strtoll(tokens[2 + off].c_str(), nullptr, 10));
  }
  *last_tag = last;
  int64_t cycle = last / static_cast<int64_t>(base_len);
  uint64_t h = 0x51ED270B0B2C5A1BULL;
  for (size_t i = 0; i < roles.size(); ++i) {
    const std::string& tok = tokens[2 + i];
    switch (roles[i].kind) {
      case RowRole::kPlain:
        h = HashStep(h, std::hash<std::string>{}(tok));
        break;
      case RowRole::kShift:
        h = HashStep(h, static_cast<uint64_t>(std::strtoll(tok.c_str(), nullptr, 10) -
                                              cycle * roles[i].span));
        break;
      case RowRole::kTag:
        h = HashStep(h, static_cast<uint64_t>(std::strtoll(tok.c_str(), nullptr, 10)) %
                            base_len);
        break;
    }
  }
  return h;
}

/// Converts a generated trace into base events over `query`'s stream
/// indices. A new segment starts at a tuple that follows a punctuation
/// (the covering traces close each generation with punctuations);
/// `one_segment` keeps the whole trace as one.
std::vector<BaseEvent> ToBaseEvents(const Trace& trace,
                                    const std::vector<std::string>& stream_names,
                                    bool one_segment) {
  std::vector<BaseEvent> out;
  out.reserve(trace.size());
  uint32_t segment = 0;
  bool after_punct = false;
  for (const auto& ev : trace) {
    BaseEvent b;
    auto it = std::find(stream_names.begin(), stream_names.end(), ev.stream);
    if (it == stream_names.end()) Die("unknown stream " + ev.stream);
    b.stream = static_cast<uint32_t>(it - stream_names.begin());
    b.punct = ev.element.is_punctuation();
    if (!b.punct && after_punct && !one_segment) ++segment;
    after_punct = b.punct;
    b.segment = segment;
    if (b.punct) {
      const Punctuation& p = ev.element.punctuation;
      for (size_t i = 0; i < p.arity(); ++i) {
        b.values.push_back(p.pattern(i).is_wildcard() ? Value::Null()
                                                      : p.pattern(i).constant());
      }
    } else {
      b.values.assign(ev.element.tuple.begin(), ev.element.tuple.end());
    }
    out.push_back(std::move(b));
  }
  return out;
}

// ------------------------------------------------------------ spans

enum SpanKind { kTupleCall, kPunctCall, kFinishCall, kNumSpans };

/// Flat spans around the public calls the benchmark makes. Off: the
/// call runs unwrapped.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  template <typename F>
  void Run(SpanKind kind, F&& f) {
    if (!on_) {
      f();
      return;
    }
    int64_t start = NowNs();
    f();
    int64_t d = NowNs() - start;
    totals_[kind].ns += d;
    ++totals_[kind].calls;
    if (kind == kPunctCall) punct_us_.Add(static_cast<double>(d) / 1e3);
    if (kind == kFinishCall) finish_s_.push_back(static_cast<double>(d) / 1e9);
  }

  const SpanTotals& operator[](SpanKind k) const { return totals_[k]; }
  std::span<const SpanTotals> all() const { return totals_; }
  WeightedSamples& punct_us() { return punct_us_; }
  const std::vector<double>& finish_s() const { return finish_s_; }

 private:
  bool on_;
  SpanTotals totals_[kNumSpans];
  WeightedSamples punct_us_;
  std::vector<double> finish_s_;
};

// ------------------------------------------- library executor adapters

void PushTupleTo(PlanExecutor& e, size_t s, const Tuple& t, int64_t ts) { e.PushTuple(s, t, ts); }
void PushTupleTo(ParallelExecutor& e, size_t s, const Tuple& t, int64_t ts) { e.PushTuple(s, t, ts); }
void PushPunctTo(PlanExecutor& e, size_t s, const Punctuation& p, int64_t ts) {
  e.PushPunctuation(s, p, ts);
}
void PushPunctTo(ParallelExecutor& e, size_t s, const Punctuation& p, int64_t ts) {
  e.PushPunctuation(s, p, ts);
}
// A flushed end: the open ingest batch delivered and lazy sweeps run.
Status FinishOn(PlanExecutor& e, int64_t now) {
  e.SweepAll(now);
  return Status::OK();
}
// A drained end: every queue empty, every shard swept.
Status FinishOn(ParallelExecutor& e, int64_t now) { return e.Drain(now); }

// ------------------------------------------------- chain workloads

struct ChainDef {
  const char* name;
  bool parallel;
  size_t shards;
  size_t batch_size;
  size_t values_per_generation;
  size_t tuples_per_generation;
  double zipf_s;
  size_t base_generations;
  // Open-loop events/s: a sixth to a tenth of the fast-phase
  // closed-loop rate, so the slow phases of a shared host (down to
  // about half that rate) still leave the executor far from saturation.
  double open_rate;
};

// Both run eager purge, the executors' default.
constexpr ChainDef kChainDefs[] = {
    {"chain3_eager_purge", false, 1, 1, 8, 60, 0.0, 256, 40000},
    {"chain3_sharded_skew", true, 2, 128, 16, 120, 1.0, 128, 12000},
};

struct ChainSetup {
  const ChainDef* def;
  punctsafe::StreamCatalog catalog;
  SchemeSet schemes;
  std::vector<std::string> streams;
  std::vector<punctsafe::JoinPredicateSpec> predicates;
  ContinuousJoinQuery query;
  ExecutorConfig config;
  std::string spec_text;  // the same query as spec_parser text
  std::unique_ptr<Source> source;
  std::vector<RowRole> roles;
  std::vector<size_t> tag_offsets;
  std::vector<MultisetDigest> ref;  // per segment
};

ExecutorConfig ChainConfig(const ChainDef& def, size_t shards) {
  ExecutorConfig c;
  c.keep_results = true;
  c.batch_size = def.batch_size;
  if (def.parallel) {
    c.mode = punctsafe::ExecutionMode::kParallel;
    c.shards = shards;
  }
  return c;
}

/// The 3-stream chain T0(k,v) - T1(k,v) - T2(k,v) joined on k with one
/// scheme on k per stream, on a covering trace of `base_generations`
/// generations. v is the tag; k is shifted per cycle.
void BuildChain(const ChainDef& def, uint64_t seed, ChainSetup* cs) {
  cs->def = &def;
  std::string streams_spec, schemes_spec, joins_spec;
  for (size_t i = 0; i < 3; ++i) {
    std::string name = "T" + std::to_string(i);
    Status s = cs->catalog.Register(name, punctsafe::Schema::OfInts({"k", "v"}));
    if (!s.ok()) Die(s.ToString());
    auto scheme = punctsafe::PunctuationScheme::OnAttributes(
        name, **cs->catalog.Get(name), {"k"});
    if (!scheme.ok() || !cs->schemes.Add(*scheme).ok()) Die("chain scheme");
    if (i > 0) {
      cs->predicates.push_back(
          punctsafe::Eq({cs->streams.back(), "k"}, {name, "k"}));
      joins_spec += "; join " + cs->streams.back() + ".k = " + name + ".k";
    }
    cs->streams.push_back(name);
    streams_spec += "stream " + name + " k:int v:int; ";
    schemes_spec += "scheme " + name + " k; ";
  }
  cs->spec_text = streams_spec + schemes_spec + "query T0 T1 T2" + joins_spec;
  auto q = ContinuousJoinQuery::Create(cs->catalog, cs->streams, cs->predicates);
  if (!q.ok()) Die(q.status().ToString());
  cs->query = std::move(q).ValueOrDie();
  cs->config = ChainConfig(def, def.shards);

  punctsafe::CoveringTraceConfig tc;
  tc.num_generations = def.base_generations;
  tc.values_per_generation = def.values_per_generation;
  tc.tuples_per_generation = def.tuples_per_generation;
  tc.zipf_s = def.zipf_s;
  tc.seed = seed;
  Trace trace = punctsafe::MakeCoveringTrace(cs->query, cs->schemes, tc);

  int64_t span = static_cast<int64_t>(def.base_generations * def.values_per_generation);
  std::vector<StreamLayout> layouts;
  for (const std::string& name : cs->streams) {
    layouts.push_back({name, 2, {0}, span, 1});
  }
  cs->source = std::make_unique<Source>(std::move(layouts),
                                        ToBaseEvents(trace, cs->streams, false));
  cs->roles = RowRoles(*cs->source, {0, 1, 2}, &cs->tag_offsets);

  // Reference multiset per generation: ReferenceJoinOperator run per
  // generation for the serial workloads, the serial executor for the
  // sharded one.
  Source& src = *cs->source;
  cs->ref.assign(src.num_segments(), {});
  if (!def.parallel) {
    uint64_t seq = 0;
    for (uint32_t seg = 0; seg < src.num_segments(); ++seg) {
      auto ref = punctsafe::ReferenceJoinOperator::Create(cs->query);
      if (!ref.ok()) Die(ref.status().ToString());
      MultisetDigest* digest = &cs->ref[seg];
      (*ref)->SetEmitter([&](const punctsafe::StreamElement& e) {
        if (e.is_tuple()) {
          digest->Add(NormalizedRowHash(e.tuple, cs->roles, cs->tag_offsets[0],
                                        src.base_len()));
        }
      });
      for (; seq < src.base_len() && src.SegmentOf(seq) == seg; ++seq) {
        if (!src.base(seq).punct) {
          (*ref)->PushTuple(src.base(seq).stream, src.TupleView(seq),
                            static_cast<int64_t>(seq + 1));
        }
      }
    }
  } else {
    ExecutorConfig rc;
    rc.keep_results = true;
    auto exec = PlanExecutor::Create(cs->query, cs->schemes,
                                     PlanShape::SingleMJoin(3), rc);
    if (!exec.ok()) Die(exec.status().ToString());
    auto drain = [&] {
      for (const Tuple& row : (*exec)->TakeResults()) {
        uint64_t last = static_cast<uint64_t>(LastContributor(row, cs->tag_offsets));
        cs->ref[src.SegmentOf(last)].Add(
            NormalizedRowHash(row, cs->roles, cs->tag_offsets[0], src.base_len()));
      }
    };
    for (uint64_t seq = 0; seq < src.base_len(); ++seq) {
      const BaseEvent& ev = src.base(seq);
      if (ev.punct) {
        (*exec)->PushPunctuation(ev.stream, src.PunctuationOf(seq),
                                 static_cast<int64_t>(seq + 1));
      } else {
        (*exec)->PushTuple(ev.stream, src.TupleView(seq), static_cast<int64_t>(seq + 1));
      }
      drain();
    }
    (*exec)->SweepAll(static_cast<int64_t>(src.base_len() + 1));
    drain();
  }
}

punctsafe::Result<punctsafe::RegisteredQuery> AdmitChain(const ChainSetup& cs,
                                                         const ExecutorConfig& config) {
  QueryRegister reg(cs.catalog, cs.schemes);
  return reg.Register(cs.streams, cs.predicates, config);
}

template <typename E>
E& ExecOf(punctsafe::RegisteredQuery& rq) {
  if constexpr (std::is_same_v<E, PlanExecutor>) {
    return *rq.executor;
  } else {
    return *rq.parallel_executor;
  }
}

/// Pushes event `seq` through the public calls, each in its span.
template <typename E>
void PushEvent(E& exec, Source& src, uint64_t seq, Spans* spans) {
  const BaseEvent& ev = src.base(seq);
  const int64_t ts = static_cast<int64_t>(seq + 1);
  if (ev.punct) {
    Punctuation p = src.PunctuationOf(seq);
    spans->Run(kPunctCall, [&] { PushPunctTo(exec, ev.stream, p, ts); });
  } else {
    Tuple t = src.TupleView(seq);
    spans->Run(kTupleCall, [&] { PushTupleTo(exec, ev.stream, t, ts); });
  }
}

struct ClosedResult {
  uint64_t events = 0;
  uint64_t results = 0;
  uint64_t expected = 0;
  int64_t wall_ns = 0;             // summed over chunks
  std::vector<double> chunk_rate;  // events/s of each chunk
};

/// The closed loop counts results and keeps none (the library's
/// count-only mode), so it times the join and not copies made for the
/// benchmark, whose cost follows the host's allocator and page faults.
ExecutorConfig CountOnly(ExecutorConfig c) {
  c.keep_results = false;
  return c;
}

/// Closed loop: push whole generations as fast as the executor takes
/// them. Each chunk (kChunkNs) ends flushed or drained and is timed
/// from its first push to that end; each chunk's rate is kept, and
/// the traced run's throughput is events over the summed chunk time.
/// `exec` counts results only (CountOnly).
template <typename E>
ClosedResult RunClosed(E& exec, ChainSetup& cs, double seconds, Spans* spans,
                       Tally* tally, const std::function<void()>& between_chunks = {}) {
  Source& src = *cs.source;
  const long chunks = std::max(1L, std::lround(seconds * 1e9 / kChunkNs));
  ClosedResult r;
  r.chunk_rate.reserve(static_cast<size_t>(chunks));
  uint64_t seq = 0;
  for (long c = 0; c < chunks; ++c) {
    if (between_chunks) between_chunks();
    const uint64_t s0 = seq;
    const int64_t c0 = NowNs();
    do {
      do {
        PushEvent(exec, src, seq, spans);
        ++seq;
      } while (!src.EndsSegment(seq - 1));
      r.expected += cs.ref[src.SegmentOf(seq - 1)].count;
    } while (NowNs() - c0 < kChunkNs);
    Status s;
    spans->Run(kFinishCall, [&] { s = FinishOn(exec, static_cast<int64_t>(seq + 1)); });
    tally->Check(s, "flush/drain");
    const int64_t dt = NowNs() - c0;
    r.wall_ns += dt;
    r.chunk_rate.push_back(static_cast<double>(seq - s0) * 1e9 / static_cast<double>(dt));
  }
  r.results = exec.num_results();
  r.events = seq;
  tally->attempted += seq;
  // Correctness: every result of every pushed generation arrived, and
  // with every generation closed by its punctuations a safe CJQ holds
  // no tuple at the flushed end.
  if (r.results != r.expected) {
    tally->Mismatch("closed loop: " + std::to_string(r.results) + " results, reference " +
                    std::to_string(r.expected));
    tally->failed += r.results < r.expected ? r.expected - r.results : 0;
  }
  if (exec.TotalLiveTuples() != 0) {
    tally->Mismatch("closed loop: " + std::to_string(exec.TotalLiveTuples()) +
                    " live tuples at the flushed end, reference 0");
  }
  return r;
}

/// One open-loop sub-run; sub-runs are pooled with `+=`.
struct OpenResult {
  std::vector<double> chunk_p50_us;
  std::vector<double> chunk_p99_us;
  double p99_used = 99.0;  // lowest percentile a chunk fell back to
  WeightedSamples late_us;
  uint64_t events = 0;
  uint64_t results = 0;

  OpenResult& operator+=(const OpenResult& o) {
    chunk_p50_us.insert(chunk_p50_us.end(), o.chunk_p50_us.begin(), o.chunk_p50_us.end());
    chunk_p99_us.insert(chunk_p99_us.end(), o.chunk_p99_us.begin(), o.chunk_p99_us.end());
    p99_used = std::min(p99_used, o.p99_used);
    late_us.Merge(o.late_us);
    events += o.events;
    results += o.results;
    return *this;
  }
  double p50_us() const { return FastPhase(chunk_p50_us, false); }
  double p99_us() const { return InterquartileMean(chunk_p99_us); }
};

/// Open loop at the workload's fixed rate: event i is due at t0 + i /
/// rate and goes out at its due time or, if the executor is still
/// busy, as soon as the previous call returns. A result is seen when
/// the call returns and TakeResults shows it; its latency runs from
/// the due time of its last contributor. Checked against the reference
/// multiset of every pushed generation.
template <typename E>
OpenResult RunOpen(E& exec, ChainSetup& cs, double seconds, Tally* tally) {
  Source& src = *cs.source;
  const size_t full_chunks =
      static_cast<size_t>(std::max(1L, std::lround(seconds * 1e9 / kChunkNs)));
  const int64_t t0 = NowNs() + 1'000'000;
  const int64_t end = t0 + static_cast<int64_t>(full_chunks) * kChunkNs;
  OpenLoop ol(t0, cs.def->open_rate, kChunkNs);
  ol.Reserve(full_chunks);
  MultisetDigest got, want;
  OpenResult r;
  Spans off(false);

  auto consume = [&](std::vector<Tuple> rows) {
    if (rows.empty()) return;
    const int64_t seen = NowNs();
    int64_t run_last = -1;
    uint64_t run_n = 0;
    for (const Tuple& row : rows) {
      got.Add(NormalizedRowHash(row, cs.roles, cs.tag_offsets[0], src.base_len()));
      int64_t last = LastContributor(row, cs.tag_offsets);
      if (last == run_last) {
        ++run_n;
        continue;
      }
      if (run_n != 0) ol.NoteResults(static_cast<uint64_t>(run_last), seen, run_n);
      run_last = last;
      run_n = 1;
    }
    if (run_n != 0) ol.NoteResults(static_cast<uint64_t>(run_last), seen, run_n);
    r.results += rows.size();
  };

  uint64_t seq = 0;
  int64_t placed_chunk = 0;
  for (;;) {
    const int64_t due = ol.Due(seq);
    if constexpr (std::is_same_v<E, PlanExecutor>) {
      // A serial executor moves to the fastest CPU at every chunk of
      // due time; the probe costs about a quarter of a millisecond.
      if ((due - t0) / kChunkNs != placed_chunk) {
        placed_chunk = (due - t0) / kChunkNs;
        Placer().PlaceOnFastest(1);
      }
    }
    int64_t now = NowNs();
    int64_t last_poll = now;
    while (now < due) {
      if constexpr (std::is_same_v<E, ParallelExecutor>) {
        // Results arrive from the shard threads: poll every ~10 us.
        if (now - last_poll > 10'000) {
          consume(exec.TakeResults());
          last_poll = now;
        }
      }
      CpuRelax();
      now = NowNs();
    }
    ol.NoteSent(seq, now);
    PushEvent(exec, src, seq, &off);
    ++seq;
    if (src.EndsSegment(seq - 1)) {
      want += cs.ref[src.SegmentOf(seq - 1)];
      if (ol.Due(seq) >= end) break;
    }
    consume(exec.TakeResults());
  }
  tally->Check(FinishOn(exec, static_cast<int64_t>(seq + 1)), "flush/drain");
  consume(exec.TakeResults());
  r.events = seq;
  tally->attempted += seq;
  if (!(got == want)) {
    tally->Mismatch("open loop: result multiset differs from the reference (" +
                    std::to_string(got.count) + " results, reference " +
                    std::to_string(want.count) + ")");
    tally->failed += got.count < want.count ? want.count - got.count : 0;
  }
  r.chunk_p50_us = ol.ChunkPercentiles(50.0, full_chunks, nullptr);
  r.chunk_p99_us = ol.ChunkPercentiles(99.0, full_chunks, &r.p99_used);
  r.late_us = std::move(ol.late_us());
  return r;
}

/// Median wall time of `reps` calls of `f`.
template <typename F>
double MedianSeconds(int reps, F&& f) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    int64_t t = NowNs();
    f();
    s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }
  return Median(s);
}

constexpr int kSetupReps = 41;   // per creation-layer timing (traced run)
constexpr int kSetupBatch = 11;  // admissions per batch between chunks

/// Admission time: QueryRegister::Register alone (safety check plus
/// executor creation); building the register and tearing the executor
/// down are outside the timing.
double ChainSetupSeconds(const ChainSetup& cs, int reps, Tally* tally) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    QueryRegister reg(cs.catalog, cs.schemes);
    int64_t t = NowNs();
    auto rq = reg.Register(cs.streams, cs.predicates, cs.config);
    samples.push_back(static_cast<double>(NowNs() - t) / 1e9);
    tally->Check(rq.status(), "register");
  }
  return Median(samples);
}

/// Executor-layer counters summed over every operator of `execs`
/// (every shard under ParallelExecutor), per event pushed.
template <typename E>
void ExecCounters(const std::vector<const E*>& execs, uint64_t events, Metrics* m) {
  uint64_t checks = 0, sweeps = 0, results = 0, rows = 0, runs = 0;
  size_t punct_peak = 0;
  punctsafe::StateMetricsSnapshot agg;
  for (const E* exec : execs) {
    results += exec->num_results();
    punct_peak += exec->punctuation_high_water();
    for (const auto& op : exec->operators()) {
      auto om = op->metrics().Snapshot();
      checks += om.removability_checks;
      sweeps += om.purge_sweeps;
      agg += op->AggregateStateSnapshot();
      auto pr = op->ProbeRunStatsTotal();
      rows += pr.rows;
      runs += pr.runs;
    }
  }
  double ev = static_cast<double>(std::max<uint64_t>(events, 1));
  (*m)["exec.removability_checks_per_event"] = static_cast<double>(checks) / ev;
  (*m)["exec.purge_yield"] =
      checks == 0 ? 0.0
                  : static_cast<double>(agg.purged + agg.dropped_on_arrival) /
                        static_cast<double>(checks);
  (*m)["exec.sweeps"] = static_cast<double>(sweeps);
  (*m)["exec.probes_per_event"] = static_cast<double>(agg.probes) / ev;
  (*m)["exec.probe_run_len"] =
      runs == 0 ? 0.0 : static_cast<double>(rows) / static_cast<double>(runs);
  (*m)["exec.results_per_event"] = static_cast<double>(results) / ev;
  (*m)["exec.punct_peak"] = static_cast<double>(punct_peak);
  (*m)["exec.arena_bytes_reserved"] = static_cast<double>(agg.arena_bytes_reserved);
  (*m)["exec.alloc_events"] =
      static_cast<double>(agg.insert_allocs + agg.expand_allocs + agg.probe_allocs);
}

/// Join-state high water. ParallelExecutor samples its global mark
/// while shards run, so it depends on thread timing; the sum of the
/// per-shard marks (each exact, an upper bound of the joint peak) does
/// not.
size_t StatePeak(const PlanExecutor& exec) { return exec.tuple_high_water(); }
size_t StatePeak(const ParallelExecutor& exec) {
  size_t peak = 0;
  for (const auto& g : exec.GroupSnapshots()) {
    for (size_t hw : g.shard_high_water) peak += hw;
  }
  return peak;
}

/// One whole base cycle pushed through a fresh executor that keeps its
/// results, taken after every push as in the open loop, then flushed or
/// drained; returns the join-state high water. Every sub-run starts at
/// the head of the base trace and a short one covers only its first
/// generations, so the state peak is taken here, over all of them, and
/// so is the process's peak RSS. Checks the result count and the final
/// live state like the closed loop.
template <typename E>
size_t StatePeakOverCycle(ChainSetup& cs, Tally* tally) {
  auto rq = AdmitChain(cs, cs.config);
  tally->Check(rq.status(), "register");
  if (!rq.ok()) Die("admission failed");
  E& exec = ExecOf<E>(*rq);
  Source& src = *cs.source;
  Spans off(false);
  uint64_t expected = 0;
  for (uint64_t seq = 0; seq < src.base_len(); ++seq) {
    PushEvent(exec, src, seq, &off);
    exec.TakeResults();
    if (src.EndsSegment(seq)) expected += cs.ref[src.SegmentOf(seq)].count;
  }
  tally->Check(FinishOn(exec, static_cast<int64_t>(src.base_len() + 1)), "flush/drain");
  exec.TakeResults();
  tally->attempted += src.base_len();
  if (exec.num_results() != expected || exec.TotalLiveTuples() != 0) {
    tally->Mismatch("state pass: " + std::to_string(exec.num_results()) + " results and " +
                    std::to_string(exec.TotalLiveTuples()) + " live tuples, reference " +
                    std::to_string(expected) + " and 0");
  }
  return StatePeak(exec);
}

// Every phase is split into sub-runs on fresh executors: each sub-run
// starts new shard threads (and, for the server, a new event loop), so
// one run sees many thread placements and machine phases instead of
// inheriting one. A sub-run lasts at least one chunk; with --seconds a
// multiple of 7 each lasts a whole number of chunks (4 at 28 s), so a
// run measures for --seconds.
constexpr int kSubRuns = 28;
// Share of --seconds given to the closed loop; the open loop gets the
// rest. Equal shares give both phases the same number of chunks.
constexpr double kClosedShare = 0.5;

template <typename E>
void RunChainTyped(ChainSetup& cs, double seconds, bool trace, Tally* tally,
                   Metrics* m) {
  const ChainDef& def = *cs.def;
  auto admit = [&](const ExecutorConfig& config) {
    Placer().PlaceOnFastest(def.parallel ? 1 + config.shards : 1);
    auto rq = AdmitChain(cs, config);
    tally->Check(rq.status(), "register");
    if (!rq.ok()) Die("admission failed");
    return std::move(rq).ValueOrDie();
  };
  Spans off(false);
  if (!trace) {
    // The whole-cycle pass comes first and memory is read right after
    // it: it pushes one base cycle whatever the executor's speed, so a
    // faster executor does not show more memory (the closed loop later
    // pushes more events, and punctuations accumulate). Then open and
    // closed sub-runs alternate, so both see the run's mix of host
    // phases.
    (*m)["state_peak_tuples"] = static_cast<double>(StatePeakOverCycle<E>(cs, tally));
    (*m)["peak_rss_mb"] = PeakRssMb();
    OpenResult open;
    auto open_sub = [&] {
      auto rq = admit(cs.config);
      open += RunOpen(ExecOf<E>(rq), cs, seconds * (1 - kClosedShare) / kSubRuns, tally);
    };
    // Admission is timed in small batches between closed-loop chunks;
    // setup_s is the fast-phase value of the batch medians. A serial
    // executor has no threads of its own, so it moves to the fastest
    // CPU before every chunk, not only before every sub-run.
    std::vector<double> setup;
    auto between_chunks = [&] {
      if (!def.parallel) Placer().PlaceOnFastest(1);
      setup.push_back(ChainSetupSeconds(cs, kSetupBatch, tally));
    };
    uint64_t events = 0;
    int64_t wall_ns = 0;
    std::vector<double> chunk_rate;
    open_sub();
    for (int k = 0; k < kSubRuns; ++k) {
      {
        auto rq = admit(CountOnly(cs.config));
        ClosedResult cr = RunClosed(ExecOf<E>(rq), cs, seconds * kClosedShare / kSubRuns,
                                    &off, tally, between_chunks);
        events += cr.events;
        wall_ns += cr.wall_ns;
        chunk_rate.insert(chunk_rate.end(), cr.chunk_rate.begin(), cr.chunk_rate.end());
      }
      if (k + 1 < kSubRuns) open_sub();
    }
    std::printf("open loop: %llu events at %.0f/s, %llu results in %zu chunks, p50 median "
                "%.3f us, p99 %.1f us\n"
                "closed loop: %llu events in %zu chunks, median %.0f/s, overall %.0f/s\n",
                static_cast<unsigned long long>(open.events), def.open_rate,
                static_cast<unsigned long long>(open.results), open.chunk_p50_us.size(),
                Median(open.chunk_p50_us), open.p99_us(), static_cast<unsigned long long>(events),
                chunk_rate.size(), Median(chunk_rate),
                static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns));
    (*m)["result_latency_p50_us"] = open.p50_us();
    (*m)["events_per_s"] = FastPhase(chunk_rate, true);
    (*m)["setup_s"] = FastPhase(setup, false);
    return;
  }

  // Creation layers, each timed alone.
  (*m)["query.parse_spec_s"] = MedianSeconds(kSetupReps, [&] {
    auto spec = punctsafe::ParseSpec(cs.spec_text);
    if (!spec.ok()) Die(spec.status().ToString());
  });
  punctsafe::SafetyChecker checker(cs.schemes);
  size_t tpg_rounds = 0;
  (*m)["core.check_query_s"] = MedianSeconds(kSetupReps, [&] {
    auto report = checker.CheckQuery(cs.query);
    if (!report.ok() || !report->safe) Die("chain query not safe");
    tpg_rounds = report->tpg_rounds;
  });
  (*m)["core.tpg_rounds"] = static_cast<double>(tpg_rounds);
  {
    std::vector<double> create;
    for (int i = 0; i < kSetupReps; ++i) {
      int64_t t = NowNs();
      auto exec = E::Create(cs.query, cs.schemes, PlanShape::SingleMJoin(3), cs.config);
      create.push_back(static_cast<double>(NowNs() - t) / 1e9);
      tally->Check(exec.status(), "create");
    }
    (*m)["exec.create_s"] = Median(create);
  }

  const double quarter = seconds / 4;
  double untraced = 0;
  {
    // Traced closed-loop sub-runs alternate with untraced ones, so both
    // sides of trace.overhead see the same phases of the host. Spans
    // accumulate over the traced sub-runs and counters sum over their
    // executors.
    Spans spans(true);
    std::vector<punctsafe::RegisteredQuery> rqs;
    std::vector<const E*> execs;
    uint64_t events = 0, untraced_events = 0, one_shard_events = 0;
    int64_t wall_ns = 0, untraced_ns = 0, one_shard_ns = 0;
    for (int k = 0; k < kSubRuns; ++k) {
      {
        auto rq = admit(CountOnly(cs.config));
        ClosedResult cr = RunClosed(ExecOf<E>(rq), cs, quarter / kSubRuns, &off, tally);
        untraced_events += cr.events;
        untraced_ns += cr.wall_ns;
      }
      if (def.parallel) {  // the single-shard baseline of parallel.scaling
        auto rq = admit(CountOnly(ChainConfig(def, 1)));
        ClosedResult cr = RunClosed(ExecOf<E>(rq), cs, quarter / kSubRuns, &off, tally);
        one_shard_events += cr.events;
        one_shard_ns += cr.wall_ns;
      }
      rqs.push_back(admit(CountOnly(cs.config)));
      E& exec = ExecOf<E>(rqs.back());
      ClosedResult cr = RunClosed(exec, cs, quarter / kSubRuns, &spans, tally);
      execs.push_back(&exec);
      events += cr.events;
      wall_ns += cr.wall_ns;
    }
    const double wall = static_cast<double>(wall_ns);
    const double traced = static_cast<double>(events) * 1e9 / wall;
    untraced = static_cast<double>(untraced_events) * 1e9 / static_cast<double>(untraced_ns);
    if (def.parallel) {
      (*m)["parallel.scaling"] = untraced / (static_cast<double>(one_shard_events) * 1e9 /
                                             static_cast<double>(one_shard_ns));
    }
    auto share = [&](SpanKind k) { return static_cast<double>(spans[k].ns) / wall; };
    if (def.parallel) {
      (*m)["parallel.push_share"] = share(kTupleCall) + share(kPunctCall);
      (*m)["parallel.drain_s"] = Median(spans.finish_s());
      double imbalance = 0;
      if constexpr (std::is_same_v<E, ParallelExecutor>) {
        for (const E* exec : execs) {
          for (const auto& g : exec->GroupSnapshots()) {
            if (g.shard_high_water.size() < 2) continue;
            double mx = 0, sum = 0;
            for (size_t hw : g.shard_high_water) {
              mx = std::max(mx, static_cast<double>(hw));
              sum += static_cast<double>(hw);
            }
            double mean = sum / static_cast<double>(g.shard_high_water.size());
            if (mean > 0) imbalance = std::max(imbalance, mx / mean);
          }
        }
      }
      (*m)["parallel.shard_hw_imbalance"] = imbalance;
    } else {
      (*m)["exec.tuple_call_share"] = share(kTupleCall);
      (*m)["exec.punct_call_share"] = share(kPunctCall);
      (*m)["exec.punct_call_p99_us"] = spans.punct_us().SupportedAt(99.0, nullptr);
    }
    ExecCounters(execs, events, m);
    (*m)["trace.coverage"] = Coverage(spans.all(), wall_ns);
    (*m)["trace.overhead"] = traced / untraced;
    std::printf("traced loop: %llu events, untraced %.0f/s, traced %.0f/s\n",
                static_cast<unsigned long long>(events), untraced, traced);
  }
  OpenResult open;
  for (int k = 0; k < kSubRuns; ++k) {
    auto rq = admit(cs.config);
    open += RunOpen(ExecOf<E>(rq), cs, quarter / kSubRuns, tally);
  }
  (*m)["loadgen.late_p99_us"] = open.late_us.SupportedAt(99.0, nullptr);
  (*m)["loadgen.result_latency_p99_us"] = open.p99_us();
}

void RunChain(const ChainDef& def, uint64_t seed, double seconds, bool trace,
              Tally* tally, Metrics* m) {
  ChainSetup cs;
  BuildChain(def, seed, &cs);
  std::printf("workload %s: base trace %llu events in %u generations\n", def.name,
              static_cast<unsigned long long>(cs.source->base_len()),
              cs.source->num_segments());
  if (def.parallel) {
    RunChainTyped<ParallelExecutor>(cs, seconds, trace, tally, m);
  } else {
    RunChainTyped<PlanExecutor>(cs, seconds, trace, tally, m);
  }
}

// ------------------------------------------------------ server workload

constexpr double kServerOpenRate = 20000;  // lines/s; see ChainDef::open_rate
constexpr size_t kServerWindow = 256;      // closed-loop lines in flight
constexpr size_t kServerThreads = 3;       // producer, collector, event loop

constexpr const char* kAuctionSpec =
    "scheme item itemid; scheme bid itemid; query item bid; "
    "join item.itemid = bid.itemid";
constexpr const char* kSensorSpec =
    "scheme sensors sensor_id epoch; scheme readings sensor_id; "
    "scheme readings sensor_id epoch; scheme calibrations sensor_id epoch; "
    "query sensors readings calibrations; "
    "join readings.sensor_id = sensors.sensor_id; join readings.epoch = sensors.epoch; "
    "join readings.sensor_id = calibrations.sensor_id; "
    "join readings.epoch = calibrations.epoch";

struct ServerQuery {
  std::string id;
  const char* spec;
  std::vector<uint32_t> streams;  // source stream indices, in row order
  std::vector<RowRole> roles;
  std::vector<size_t> tag_offsets;
  MultisetDigest ref;  // per base cycle
};

struct ServerSetup {
  std::unique_ptr<Source> source;
  std::vector<std::string> stream_names;
  std::vector<std::string> create_lines;
  std::vector<ServerQuery> queries;
  size_t ref_state_peak = 0;
};

/// A QueryRegister holding the workload's streams and schemes.
void SetupRegister(bool auction, QueryRegister* reg) {
  Status s = auction ? punctsafe::AuctionWorkload::Setup(reg)
                     : punctsafe::SensorWorkload::Setup(reg);
  if (!s.ok()) Die(s.ToString());
}

/// Admits `q` through QueryRegister with the registry's default
/// executor configuration (serial, results kept).
punctsafe::RegisteredQuery AdmitServerQuery(const ServerQuery& q) {
  bool auction = q.spec == kAuctionSpec;
  QueryRegister reg;
  SetupRegister(auction, &reg);
  ExecutorConfig cfg;
  cfg.keep_results = true;
  auto rq = auction ? reg.Register(punctsafe::AuctionWorkload::QueryStreams(),
                                   punctsafe::AuctionWorkload::QueryPredicates(), cfg)
                    : reg.Register(punctsafe::SensorWorkload::QueryStreams(),
                                   punctsafe::SensorWorkload::QueryPredicates(), cfg);
  if (!rq.ok()) Die(rq.status().ToString());
  return std::move(rq).ValueOrDie();
}

uint64_t LineHash(const ServerQuery& q, const std::string& line, uint64_t base_len,
                  int64_t* last_tag) {
  return NormalizedLineHash(punctsafe::server::Tokenize(line), q.roles, q.tag_offsets,
                            base_len, last_tag);
}

/// The paper's Example 1 auction (registered twice: fan-out plus
/// sub-join sharing) and the sensor join (two-attribute schemes, so
/// admission takes the generalized-graph path), fed one merged trace.
void BuildServer(uint64_t seed, ServerSetup* ss) {
  punctsafe::AuctionConfig ac;
  ac.num_items = 256;
  ac.bids_per_item = 8;
  ac.max_open = 32;
  ac.seed = seed;
  punctsafe::SensorConfig sc;
  sc.num_sensors = 16;
  sc.num_epochs = 8;
  sc.seed = seed + 1;
  Trace auction = punctsafe::AuctionWorkload::Generate(ac);
  Trace sensor = punctsafe::SensorWorkload::Generate(sc);
  // Merge by relative position so both traces span the whole cycle.
  Trace merged;
  size_t i = 0, j = 0;
  while (i < auction.size() || j < sensor.size()) {
    bool take_auction =
        j == sensor.size() ||
        (i < auction.size() &&
         static_cast<double>(i) * static_cast<double>(sensor.size()) <=
             static_cast<double>(j) * static_cast<double>(auction.size()));
    merged.push_back(take_auction ? std::move(auction[i++]) : std::move(sensor[j++]));
  }

  ss->stream_names = {"item", "bid", "sensors", "readings", "calibrations"};
  const int64_t item_span = static_cast<int64_t>(ac.num_items) + 1;
  const int64_t sensor_span = static_cast<int64_t>(sc.num_sensors);
  std::vector<StreamLayout> layouts = {
      {"item", 4, {1}, item_span, 0},        // tag: sellerid
      {"bid", 3, {1}, item_span, 0},         // tag: bidderid
      {"sensors", 3, {0}, sensor_span, 2},   // tag: region
      {"readings", 3, {0}, sensor_span, 2},  // tag: value
      {"calibrations", 3, {0}, sensor_span, 2},  // tag: offset
  };
  ss->source = std::make_unique<Source>(std::move(layouts),
                                        ToBaseEvents(merged, ss->stream_names, true));
  ss->create_lines = {
      "CREATE STREAM item sellerid:int itemid:int name:string initialprice:int",
      "CREATE STREAM bid bidderid:int itemid:int increase:int",
      "CREATE STREAM sensors sensor_id:int epoch:int region:int",
      "CREATE STREAM readings sensor_id:int epoch:int value:int",
      "CREATE STREAM calibrations sensor_id:int epoch:int offset:int",
  };
  ss->queries = {{"auction_a", kAuctionSpec, {0, 1}, {}, {}, {}},
                 {"auction_b", kAuctionSpec, {0, 1}, {}, {}, {}},
                 {"sensor", kSensorSpec, {2, 3, 4}, {}, {}, {}}};
  Source& src = *ss->source;
  for (ServerQuery& q : ss->queries) {
    q.roles = RowRoles(src, q.streams, &q.tag_offsets);
    // Reference: a serial PlanExecutor per query over one base cycle,
    // its rows rendered exactly as the server renders RESULT lines.
    auto rq = AdmitServerQuery(q);
    PlanExecutor& exec = *rq.executor;
    auto drain = [&] {
      for (const Tuple& row : exec.TakeResults()) {
        int64_t last = 0;
        q.ref.Add(LineHash(q, punctsafe::server::FormatResultLine(q.id, row),
                           src.base_len(), &last));
      }
    };
    for (uint64_t seq = 0; seq < src.base_len(); ++seq) {
      const BaseEvent& ev = src.base(seq);
      auto it = std::find(q.streams.begin(), q.streams.end(), ev.stream);
      if (it == q.streams.end()) continue;
      size_t input = static_cast<size_t>(it - q.streams.begin());
      if (ev.punct) {
        exec.PushPunctuation(input, src.PunctuationOf(seq), static_cast<int64_t>(seq + 1));
      } else {
        exec.PushTuple(input, src.TupleView(seq), static_cast<int64_t>(seq + 1));
      }
      drain();
    }
    exec.SweepAll(static_cast<int64_t>(src.base_len() + 1));
    drain();
    if (exec.TotalLiveTuples() != 0) Die("server reference does not drain");
    ss->ref_state_peak += exec.tuple_high_water();
  }
}

/// Protocol line for event `seq`, newline included, appended to `out`.
void AppendLine(ServerSetup& ss, uint64_t seq, std::string* out) {
  const BaseEvent& ev = ss.source->base(seq);
  const std::vector<Value>& values = ss.source->Values(seq);
  out->append(ev.punct ? "PUNCT " : "PUSH ");
  out->append(ss.stream_names[ev.stream]);
  for (const Value& v : values) {
    out->push_back(' ');
    if (v.is_null()) {
      out->push_back('*');
    } else {
      out->append(punctsafe::server::FormatValue(v));
    }
  }
  out->push_back('\n');
}

/// A blocking loopback connection framed into lines.
class LineConn {
 public:
  LineConn() = default;
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;
  ~LineConn() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  int fd() const { return fd_; }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    bytes_out_ += data.size();
    return true;
  }

  /// Waits up to `timeout_ms` for input and reads what is there.
  /// Returns false on EOF or error (the connection is gone).
  bool Fill(int timeout_ms) {
    pollfd p{fd_, POLLIN, 0};
    int r = poll(&p, 1, timeout_ms);
    if (r < 0) return errno == EINTR;
    if (r == 0) return true;
    char chunk[65536];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) return errno == EINTR || errno == EAGAIN;
    if (n == 0) return false;
    if (pos_ > 0 && pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    }
    buf_.append(chunk, static_cast<size_t>(n));
    bytes_in_ += static_cast<uint64_t>(n);
    return true;
  }

  /// Pops one complete line, if buffered.
  bool NextLine(std::string* line) {
    size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      if (pos_ > (1u << 20)) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      return false;
    }
    line->assign(buf_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  /// Sends one request and waits (up to 10 s) for its one-line reply.
  bool Request(const std::string& line, std::string* reply) {
    if (!SendAll(line + "\n")) return false;
    int64_t deadline = NowNs() + 10'000'000'000;
    while (!NextLine(reply)) {
      if (NowNs() > deadline || !Fill(100)) return false;
    }
    return true;
  }

  uint64_t bytes_in() const { return bytes_in_; }
  uint64_t bytes_out() const { return bytes_out_; }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
};

/// The second client thread: reads the subscriber's RESULT lines and
/// runs the pinger on its own connection.
class Collector {
 public:
  Collector(ServerSetup* ss, LineConn* sub, LineConn* ping)
      : ss_(ss), sub_(sub), ping_(ping), counts_(ss->queries.size()),
        digests_(ss->queries.size()) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { Stop(); }

  /// Open-loop mode: parse and check every RESULT line and attribute
  /// its latency on `schedule`; ping every millisecond.
  void EnableOpenLoop(const OpenLoop& schedule) { open_.emplace(schedule); }

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  uint64_t total() const { return total_.load(); }
  /// Waits until `want` results arrived (false after 10 s).
  bool WaitFor(uint64_t want) const {
    int64_t deadline = NowNs() + 10'000'000'000;
    while (total_.load() < want) {
      if (NowNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  // Read after Stop().
  const std::vector<uint64_t>& counts() const { return counts_; }
  const std::vector<MultisetDigest>& digests() const { return digests_; }
  OpenLoop* open_loop() { return open_ ? &*open_ : nullptr; }
  WeightedSamples& ping_rtt_us() { return ping_rtt_us_; }
  uint64_t err_lines() const { return err_lines_; }
  uint64_t disconnects() const { return disconnects_; }

 private:
  void Loop() {
    std::string line;
    int64_t ping_sent = 0;
    int64_t next_ping = NowNs();
    bool sub_alive = true, ping_alive = true;
    while (!stop_.load()) {
      if (open_ && ping_alive && ping_sent == 0 && NowNs() >= next_ping) {
        ping_sent = NowNs();
        if (!ping_->SendAll("PING\n")) ping_alive = false;
      }
      // Busy-polls, so a result is seen when it arrives and not when
      // this thread is next woken.
      pollfd p[2] = {{sub_->fd(), POLLIN, 0}, {ping_->fd(), POLLIN, 0}};
      if (poll(p, 2, 0) <= 0) {
        CpuRelax();
        continue;
      }
      if (sub_alive && (p[0].revents & (POLLIN | POLLHUP | POLLERR))) {
        if (!sub_->Fill(0)) {
          sub_alive = false;
          ++disconnects_;
        }
        while (sub_->NextLine(&line)) OnSubscriberLine(line);
      }
      if (ping_alive && (p[1].revents & (POLLIN | POLLHUP | POLLERR))) {
        if (!ping_->Fill(0)) {
          ping_alive = false;
          ++disconnects_;
        }
        while (ping_->NextLine(&line)) {
          if (line.rfind("OK pong", 0) == 0 && ping_sent != 0) {
            int64_t now = NowNs();
            ping_rtt_us_.Add(static_cast<double>(now - ping_sent) / 1e3);
            ping_sent = 0;
            next_ping = now + 1'000'000;
          } else if (line.rfind("ERR", 0) == 0) {
            ++err_lines_;
          }
        }
      }
      if (!sub_alive && !ping_alive) break;
    }
  }

  void OnSubscriberLine(const std::string& line) {
    if (line.rfind("RESULT ", 0) != 0) {
      if (line.rfind("ERR", 0) == 0) ++err_lines_;
      return;
    }
    size_t id_end = line.find(' ', 7);
    std::string_view id(line.data() + 7, (id_end == std::string::npos ? line.size() : id_end) - 7);
    size_t q = 0;
    while (q < ss_->queries.size() && ss_->queries[q].id != id) ++q;
    if (q == ss_->queries.size()) {
      ++err_lines_;
      return;
    }
    ++counts_[q];
    if (open_) {
      int64_t last = 0;
      digests_[q].Add(LineHash(ss_->queries[q], line, ss_->source->base_len(), &last));
      open_->NoteResults(static_cast<uint64_t>(last), NowNs(), 1);
    }
    total_.fetch_add(1, std::memory_order_release);
  }

  ServerSetup* ss_;
  LineConn* sub_;
  LineConn* ping_;
  std::optional<OpenLoop> open_;
  std::vector<uint64_t> counts_;
  std::vector<MultisetDigest> digests_;
  WeightedSamples ping_rtt_us_;
  uint64_t err_lines_ = 0;
  uint64_t disconnects_ = 0;
  std::atomic<uint64_t> total_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One server instance with its three client connections. Start()
/// returns the admission time: connect, CREATE STREAM and REGISTER
/// QUERY (plus SUBSCRIBE), until every OK has arrived.
class ServerRig {
 public:
  explicit ServerRig(ServerSetup* ss) : ss_(ss) {}
  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;
  ~ServerRig() {
    producer.Close();
    subscriber.Close();
    pinger.Close();
    if (server) server->Stop();
  }

  double Start(Tally* tally) {
    auto srv = punctsafe::server::IngestServer::Listen(&registry);
    if (!srv.ok()) Die(srv.status().ToString());
    server = std::move(srv).ValueOrDie();
    if (!server->Start().ok()) Die("server start");
    const int64_t t = NowNs();
    if (!producer.Connect(server->port()) || !subscriber.Connect(server->port()) ||
        !pinger.Connect(server->port())) {
      Die("connect");
    }
    std::string reply;
    auto expect = [&](LineConn& c, const std::string& line) {
      ++tally->attempted;
      if (!c.Request(line, &reply) || reply.rfind("OK", 0) != 0) {
        ++tally->failed;
        Die("server refused '" + line + "': " + reply);
      }
    };
    for (const std::string& line : ss_->create_lines) expect(producer, line);
    for (const ServerQuery& q : ss_->queries) {
      expect(subscriber, "REGISTER QUERY " + q.id + " AS " + q.spec);
    }
    for (const ServerQuery& q : ss_->queries) expect(subscriber, "SUBSCRIBE " + q.id);
    expect(pinger, "PING");
    return static_cast<double>(NowNs() - t) / 1e9;
  }

  /// live_tuples of every query, from the registry's STATS.
  uint64_t LiveTuples() {
    uint64_t live = 0;
    for (const auto& [key, value] : registry.Stats()) {
      size_t at = value.find("live_tuples=");
      if (key.rfind("query.", 0) == 0 && at != std::string::npos) {
        live += std::strtoull(value.c_str() + at + 12, nullptr, 10);
      }
    }
    return live;
  }

  punctsafe::server::QueryRegistry registry;
  std::unique_ptr<punctsafe::server::IngestServer> server;
  LineConn producer, subscriber, pinger;

 private:
  ServerSetup* ss_;
};

/// Reads producer acks until at most `keep` lines are outstanding,
/// waiting at most `timeout_ms` (false then, or when the connection is
/// gone). Each PUSH/PUNCT/DRAIN gets exactly one reply line.
bool ReadAcks(LineConn& producer, size_t keep, size_t* outstanding,
              std::deque<int64_t>* sent_at, WeightedSamples* ack_us, uint64_t* errs,
              int timeout_ms) {
  std::string line;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  for (;;) {
    while (producer.NextLine(&line)) {
      if (*outstanding == 0) {
        ++*errs;  // unsolicited reply
        continue;
      }
      --*outstanding;
      if (line.rfind("OK", 0) != 0) ++*errs;
      if (sent_at != nullptr && !sent_at->empty()) {
        if (ack_us != nullptr) {
          ack_us->Add(static_cast<double>(NowNs() - sent_at->front()) / 1e3);
        }
        sent_at->pop_front();
      }
    }
    if (*outstanding <= keep) return true;
    if (NowNs() > deadline || !producer.Fill(timeout_ms)) return false;
  }
}

struct WireResult {
  uint64_t events = 0;
  uint64_t cycles = 0;
  int64_t wall_ns = 0;             // summed over chunks
  std::vector<double> chunk_rate;  // lines/s of each chunk
  SpanTotals render, send, recv, drain;  // traced runs only

  double rate() const { return static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns); }
  WireResult& operator+=(const WireResult& o) {
    events += o.events;
    cycles += o.cycles;
    wall_ns += o.wall_ns;
    chunk_rate.insert(chunk_rate.end(), o.chunk_rate.begin(), o.chunk_rate.end());
    for (auto [mine, theirs] : {std::pair{&render, &o.render}, std::pair{&send, &o.send},
                                std::pair{&recv, &o.recv}, std::pair{&drain, &o.drain}}) {
      mine->ns += theirs->ns;
      mine->calls += theirs->calls;
    }
    return *this;
  }
};

/// Closed loop over the wire: the producer keeps kServerWindow lines
/// in flight; each chunk (kChunkNs) of whole cycles ends with DRAIN and its
/// reply. Checks result counts and the final live state.
WireResult RunWireClosed(ServerSetup& ss, double seconds, bool traced, Tally* tally,
                         uint64_t* bytes_in, uint64_t* bytes_out, uint64_t* results,
                         uint64_t* err_lines, uint64_t* disconnects,
                         const std::function<void()>& between_chunks = {}) {
  Placer().PlaceOnFastest(kServerThreads);
  ServerRig rig(&ss);
  rig.Start(tally);
  Collector col(&ss, &rig.subscriber, &rig.pinger);
  col.Start();
  Source& src = *ss.source;
  const long chunks = std::max(1L, std::lround(seconds * 1e9 / kChunkNs));
  WireResult r;
  uint64_t seq = 0, errs = 0;
  size_t outstanding = 0;
  std::string buf;
  bool alive = true;
  auto span = [&](SpanTotals* s, auto&& f) {
    if (!traced) return f();
    int64_t t = NowNs();
    auto ok = f();
    s->ns += NowNs() - t;
    ++s->calls;
    return ok;
  };
  for (long c = 0; c < chunks && alive; ++c) {
    if (between_chunks) between_chunks();
    const uint64_t s0 = seq;
    const int64_t c0 = NowNs();
    do {
      do {
        if (traced) {
          const int64_t t = NowNs();
          AppendLine(ss, seq++, &buf);
          r.render.ns += NowNs() - t;
          ++r.render.calls;
        } else {
          AppendLine(ss, seq++, &buf);
        }
        ++outstanding;
        if (outstanding >= kServerWindow || buf.size() >= 16384) {
          alive = span(&r.send, [&] { return rig.producer.SendAll(buf); });
          buf.clear();
          alive = alive && span(&r.recv, [&] {
                    return ReadAcks(rig.producer, kServerWindow / 2, &outstanding, nullptr,
                                    nullptr, &errs, 10000);
                  });
        }
      } while (alive && !src.EndsSegment(seq - 1));
    } while (alive && NowNs() - c0 < kChunkNs);
    buf += "DRAIN\n";
    ++outstanding;
    alive = alive && span(&r.drain, [&] {
              bool ok = rig.producer.SendAll(buf);
              return ok && ReadAcks(rig.producer, 0, &outstanding, nullptr, nullptr, &errs,
                                    10000);
            });
    buf.clear();
    const int64_t dt = NowNs() - c0;
    r.wall_ns += dt;
    r.chunk_rate.push_back(static_cast<double>(seq - s0) * 1e9 / static_cast<double>(dt));
  }
  r.events = seq;
  r.cycles = seq / src.base_len();
  tally->attempted += seq;
  if (!alive) {
    ++*disconnects;
    tally->Mismatch("producer connection lost");
  }
  uint64_t expected = 0;
  for (const ServerQuery& q : ss.queries) expected += q.ref.count * r.cycles;
  col.WaitFor(expected);
  col.Stop();
  for (size_t q = 0; q < ss.queries.size(); ++q) {
    uint64_t want = ss.queries[q].ref.count * r.cycles;
    if (col.counts()[q] != want) {
      tally->Mismatch("closed loop: query " + ss.queries[q].id + " got " +
                      std::to_string(col.counts()[q]) + " results, reference " +
                      std::to_string(want));
      tally->failed += col.counts()[q] < want ? want - col.counts()[q] : 0;
    }
  }
  if (uint64_t live = rig.LiveTuples(); live != 0) {
    tally->Mismatch("closed loop: " + std::to_string(live) +
                    " live tuples after DRAIN, reference 0");
  }
  tally->failed += errs + col.err_lines() + col.disconnects();
  *err_lines += errs + col.err_lines();
  *disconnects += col.disconnects();
  *bytes_in += rig.producer.bytes_out();
  *bytes_out += rig.subscriber.bytes_in();
  *results += col.total();
  return r;
}

/// One wire open-loop sub-run; sub-runs are pooled with `+=`.
struct WireOpenResult {
  OpenResult open;
  WeightedSamples ack_us;   // PUSH/PUNCT send -> OK
  WeightedSamples ping_us;  // PING round trips
  std::vector<double> setup_s;

  WireOpenResult& operator+=(const WireOpenResult& o) {
    open += o.open;
    ack_us.Merge(o.ack_us);
    ping_us.Merge(o.ping_us);
    setup_s.insert(setup_s.end(), o.setup_s.begin(), o.setup_s.end());
    return *this;
  }
};

/// Open loop over the wire at kServerOpenRate lines/s, with the pinger
/// running. Every RESULT line is checked against the reference
/// multiset of each pushed cycle.
WireOpenResult RunWireOpen(ServerSetup& ss, double seconds, Tally* tally,
                           uint64_t* err_lines, uint64_t* disconnects) {
  Placer().PlaceOnFastest(kServerThreads);
  ServerRig rig(&ss);
  WireOpenResult r;
  r.setup_s.push_back(rig.Start(tally));
  Source& src = *ss.source;
  const size_t full_chunks =
      static_cast<size_t>(std::max(1L, std::lround(seconds * 1e9 / kChunkNs)));
  const int64_t t0 = NowNs() + 2'000'000;
  const int64_t end = t0 + static_cast<int64_t>(full_chunks) * kChunkNs;
  OpenLoop schedule(t0, kServerOpenRate, kChunkNs);
  schedule.Reserve(full_chunks);
  Collector col(&ss, &rig.subscriber, &rig.pinger);
  col.EnableOpenLoop(schedule);
  col.Start();

  uint64_t seq = 0, errs = 0;
  size_t outstanding = 0;
  std::deque<int64_t> sent_at;
  r.ack_us.Reserve(static_cast<size_t>(kServerOpenRate * seconds) + 16);
  std::string buf;
  bool alive = true, done = false;
  while (alive && !done) {
    const int64_t now = NowNs();
    while (schedule.Due(seq) <= now) {
      AppendLine(ss, seq, &buf);
      schedule.NoteSent(seq, now);
      sent_at.push_back(now);
      ++outstanding;
      ++seq;
      if (src.EndsSegment(seq - 1) && schedule.Due(seq) >= end) {
        done = true;
        break;
      }
    }
    if (!buf.empty()) {
      alive = rig.producer.SendAll(buf);
      buf.clear();
    }
    if (alive) {
      alive = ReadAcks(rig.producer, outstanding, &outstanding, &sent_at, &r.ack_us, &errs,
                       0);
      // Non-blocking pass: Fill(0) above returns at once when idle.
      alive = alive && rig.producer.Fill(0);
      alive = alive && ReadAcks(rig.producer, outstanding, &outstanding, &sent_at,
                                &r.ack_us, &errs, 0);
    }
    while (alive && !done && NowNs() < schedule.Due(seq)) CpuRelax();
  }
  if (alive) {
    alive = rig.producer.SendAll("DRAIN\n");
    sent_at.push_back(NowNs());
    ++outstanding;
    alive = alive && ReadAcks(rig.producer, 0, &outstanding, &sent_at, nullptr, &errs, 10000);
  }
  tally->attempted += seq;
  if (!alive) {
    ++*disconnects;
    tally->Mismatch("producer connection lost");
  }
  const uint64_t cycles = seq / src.base_len();
  uint64_t expected = 0;
  for (const ServerQuery& q : ss.queries) expected += q.ref.count * cycles;
  col.WaitFor(expected);
  col.Stop();
  for (size_t q = 0; q < ss.queries.size(); ++q) {
    MultisetDigest want;
    for (uint64_t c = 0; c < cycles; ++c) want += ss.queries[q].ref;
    if (!(col.digests()[q] == want)) {
      tally->Mismatch("open loop: query " + ss.queries[q].id +
                      " result multiset differs from the reference (" +
                      std::to_string(col.digests()[q].count) + " results, reference " +
                      std::to_string(want.count) + ")");
      tally->failed += col.digests()[q].count < want.count
                           ? want.count - col.digests()[q].count
                           : 0;
    }
  }
  tally->failed += errs + col.err_lines() + col.disconnects();
  *err_lines += errs + col.err_lines();
  *disconnects += col.disconnects();
  OpenLoop* ol = col.open_loop();
  r.open.chunk_p50_us = ol->ChunkPercentiles(50.0, full_chunks, nullptr);
  r.open.chunk_p99_us = ol->ChunkPercentiles(99.0, full_chunks, &r.open.p99_used);
  r.open.late_us = std::move(schedule.late_us());
  r.open.events = seq;
  r.open.results = ol->result_samples();
  r.ping_us = std::move(col.ping_rtt_us());
  return r;
}

/// Replays `cycles` base cycles at three in-process entry points, each
/// on fresh state, and adds to the server ledger (the wire time comes
/// from the traced run). The directly pushed executors are kept in
/// `executors` for their counters.
void ServerReplays(ServerSetup& ss, uint64_t cycles, ServerReplayTimes* t, Spans* exec_spans,
                   std::vector<punctsafe::RegisteredQuery>* executors, Tally* tally) {
  namespace srv = punctsafe::server;
  Source& src = *ss.source;
  const uint64_t n = cycles * src.base_len();
  auto register_all = [&](srv::QueryRegistry* registry, srv::Session* session) {
    for (const std::string& line : ss.create_lines) {
      auto out = srv::ProcessLine(registry, session, line);
      if (out.empty() || out[0].rfind("OK", 0) != 0) Die("replay: " + line);
    }
    for (const ServerQuery& q : ss.queries) {
      for (const std::string& line :
           {"REGISTER QUERY " + q.id + " AS " + q.spec, "SUBSCRIBE " + q.id}) {
        auto out = srv::ProcessLine(registry, session, line);
        if (out.empty() || out[0].rfind("OK", 0) != 0) Die("replay: " + line);
      }
    }
  };

  {  // ProcessLine, then the RESULT formatting the event loop does.
    srv::QueryRegistry registry;
    srv::Session session;
    register_all(&registry, &session);
    std::string line;
    int64_t proto_ns = 0, format_ns = 0;
    auto take_and_format = [&] {
      int64_t f0 = NowNs();
      for (const ServerQuery& q : ss.queries) {
        auto rows = registry.TakeResults(q.id);
        for (const Tuple& row : *rows) srv::FormatResultLine(q.id, row);
      }
      format_ns += NowNs() - f0;
    };
    for (uint64_t seq = 0; seq <= n; ++seq) {
      line.clear();
      if (seq < n) {
        AppendLine(ss, seq, &line);
        line.pop_back();
      } else {
        line = "DRAIN";
      }
      int64_t p0 = NowNs();
      auto out = srv::ProcessLine(&registry, &session, line);
      proto_ns += NowNs() - p0;
      ++tally->attempted;
      if (out.size() != 1 || out[0].rfind("OK", 0) != 0) ++tally->failed;
      take_and_format();
    }
    t->protocol_s += static_cast<double>(proto_ns) / 1e9;
    t->format_s += static_cast<double>(format_ns) / 1e9;
  }
  {  // QueryRegistry::Push*, elements built outside the timing.
    srv::QueryRegistry registry;
    srv::Session session;
    register_all(&registry, &session);
    int64_t reg_ns = 0;
    for (uint64_t seq = 0; seq < n; ++seq) {
      const BaseEvent& ev = src.base(seq);
      const std::string& stream = ss.stream_names[ev.stream];
      Status s;
      if (ev.punct) {
        Punctuation p = src.PunctuationOf(seq);
        int64_t r0 = NowNs();
        s = registry.PushPunctuation(stream, p);
        reg_ns += NowNs() - r0;
      } else {
        Tuple tup = src.TupleView(seq);
        int64_t r0 = NowNs();
        s = registry.PushTuple(stream, tup);
        reg_ns += NowNs() - r0;
      }
      tally->Check(s, "registry push");
      for (const ServerQuery& q : ss.queries) (void)registry.TakeResults(q.id);
    }
    int64_t r0 = NowNs();
    tally->Check(registry.DrainAll(), "registry drain");
    reg_ns += NowNs() - r0;
    t->registry_s += static_cast<double>(reg_ns) / 1e9;
  }
  {  // The executors, pushed directly.
    const size_t first = executors->size();
    for (const ServerQuery& q : ss.queries) executors->push_back(AdmitServerQuery(q));
    auto rqs = executors->begin() + static_cast<long>(first);
    for (uint64_t seq = 0; seq < n; ++seq) {
      const BaseEvent& ev = src.base(seq);
      std::optional<Punctuation> p;
      std::optional<Tuple> tup;
      if (ev.punct) {
        p = src.PunctuationOf(seq);
      } else {
        tup = src.TupleView(seq);
      }
      for (size_t qi = 0; qi < ss.queries.size(); ++qi) {
        const auto& streams = ss.queries[qi].streams;
        auto it = std::find(streams.begin(), streams.end(), ev.stream);
        if (it == streams.end()) continue;
        size_t input = static_cast<size_t>(it - streams.begin());
        PlanExecutor& exec = *rqs[qi].executor;
        const int64_t ts = static_cast<int64_t>(seq + 1);
        if (p) {
          exec_spans->Run(kPunctCall, [&] { exec.PushPunctuation(input, *p, ts); });
        } else {
          exec_spans->Run(kTupleCall, [&] { exec.PushTuple(input, *tup, ts); });
        }
        (void)exec.TakeResults();
      }
    }
    for (auto it = rqs; it != executors->end(); ++it) {
      exec_spans->Run(kFinishCall, [&] { it->executor->SweepAll(static_cast<int64_t>(n + 1)); });
    }
    t->exec_s = static_cast<double>((*exec_spans)[kTupleCall].ns +
                                    (*exec_spans)[kPunctCall].ns +
                                    (*exec_spans)[kFinishCall].ns) /
                1e9;
  }
}

void RunServer(uint64_t seed, double seconds, bool trace, Tally* tally, Metrics* m) {
  ServerSetup ss;
  BuildServer(seed, &ss);
  std::printf("workload server_auction_fanout: base cycle %llu lines, %llu+%llu+%llu "
              "results per cycle\n",
              static_cast<unsigned long long>(ss.source->base_len()),
              static_cast<unsigned long long>(ss.queries[0].ref.count),
              static_cast<unsigned long long>(ss.queries[1].ref.count),
              static_cast<unsigned long long>(ss.queries[2].ref.count));
  uint64_t bytes_in = 0, bytes_out = 0, results = 0, err_lines = 0, disconnects = 0;

  if (!trace) {
    // Open and closed sub-runs alternate, an open one first to fix the
    // memory metric (see RunChainTyped). One fresh server's admission
    // runs between closed-loop chunks; setup_s is the fast-phase value
    // of all.
    WireOpenResult open;
    WireResult closed;
    auto open_sub = [&] {
      open += RunWireOpen(ss, seconds * (1 - kClosedShare) / kSubRuns, tally, &err_lines,
                          &disconnects);
    };
    std::vector<double> setup;
    auto setup_once = [&] {
      ServerRig rig(&ss);
      setup.push_back(rig.Start(tally));
    };
    open_sub();
    (*m)["peak_rss_mb"] = PeakRssMb();
    for (int k = 0; k < kSubRuns; ++k) {
      closed += RunWireClosed(ss, seconds * kClosedShare / kSubRuns, false, tally, &bytes_in,
                              &bytes_out, &results, &err_lines, &disconnects, setup_once);
      if (k + 1 < kSubRuns) open_sub();
    }
    setup.insert(setup.end(), open.setup_s.begin(), open.setup_s.end());
    std::printf("open loop: %llu lines at %.0f/s, %llu results in %zu chunks, p50 median "
                "%.3f us, p99 %.1f us, %llu pings\n"
                "closed loop: %llu lines, %llu cycles, %zu chunks, median %.0f/s, overall "
                "%.0f/s\n",
                static_cast<unsigned long long>(open.open.events), kServerOpenRate,
                static_cast<unsigned long long>(open.open.results), open.open.chunk_p50_us.size(),
                Median(open.open.chunk_p50_us), open.open.p99_us(),
                static_cast<unsigned long long>(open.ping_us.count()),
                static_cast<unsigned long long>(closed.events),
                static_cast<unsigned long long>(closed.cycles), closed.chunk_rate.size(),
                Median(closed.chunk_rate), closed.rate());
    (*m)["result_latency_p50_us"] = open.open.p50_us();
    (*m)["state_peak_tuples"] = static_cast<double>(ss.ref_state_peak);
    (*m)["events_per_s"] = FastPhase(closed.chunk_rate, true);
    (*m)["setup_s"] = FastPhase(setup, false);
    return;
  }

  // Creation layers for the three registrations, each timed alone.
  punctsafe::StreamCatalog catalog;
  {
    QueryRegister a, s;
    SetupRegister(true, &a);
    SetupRegister(false, &s);
    catalog = a.catalog();
    for (const char* name : {"sensors", "readings", "calibrations"}) {
      if (!catalog.Register(name, **s.catalog().Get(name)).ok()) Die("catalog");
    }
  }
  std::vector<punctsafe::ParsedSpec> parsed;
  (*m)["query.parse_spec_s"] = MedianSeconds(kSetupReps, [&] {
    parsed.clear();
    for (const ServerQuery& q : ss.queries) {
      auto spec = punctsafe::ParseSpec(q.spec, catalog);
      if (!spec.ok()) Die(spec.status().ToString());
      parsed.push_back(std::move(spec).ValueOrDie());
    }
  });
  std::vector<ContinuousJoinQuery> queries;
  for (const auto& p : parsed) queries.push_back(*p.MakeQuery());
  size_t tpg_rounds = 0;
  (*m)["core.check_query_s"] = MedianSeconds(kSetupReps, [&] {
    tpg_rounds = 0;
    for (size_t i = 0; i < parsed.size(); ++i) {
      auto report = punctsafe::SafetyChecker(parsed[i].schemes).CheckQuery(queries[i]);
      if (!report.ok() || !report->safe) Die("server query not safe");
      tpg_rounds += report->tpg_rounds;
    }
  });
  (*m)["core.tpg_rounds"] = static_cast<double>(tpg_rounds);
  {
    ExecutorConfig cfg;
    cfg.keep_results = true;
    std::vector<double> create;
    for (int r = 0; r < kSetupReps; ++r) {
      int64_t t = NowNs();
      for (size_t i = 0; i < parsed.size(); ++i) {
        auto exec = PlanExecutor::Create(queries[i], parsed[i].schemes,
                                         PlanShape::SingleMJoin(queries[i].num_streams()),
                                         cfg);
        tally->Check(exec.status(), "create");
      }
      create.push_back(static_cast<double>(NowNs() - t) / 1e9);
    }
    (*m)["exec.create_s"] = Median(create);
  }

  // Traced wire sub-runs alternate with untraced ones (see
  // RunChainTyped); each traced sub-run's lines are then replayed at
  // the three in-process entry points.
  const double quarter = seconds / 4;
  ServerReplayTimes times;
  Spans exec_spans(true);
  std::vector<punctsafe::RegisteredQuery> replay_executors;
  WireResult untraced, traced;
  for (int k = 0; k < kSubRuns; ++k) {
    uint64_t ignored_in = 0, ignored_out = 0, ignored_results = 0;
    untraced += RunWireClosed(ss, quarter / kSubRuns, false, tally, &ignored_in, &ignored_out,
                              &ignored_results, &err_lines, &disconnects);
    WireResult one = RunWireClosed(ss, quarter / kSubRuns, true, tally, &bytes_in, &bytes_out,
                                   &results, &err_lines, &disconnects);
    ServerReplays(ss, one.cycles, &times, &exec_spans, &replay_executors, tally);
    traced += one;
  }
  (*m)["server.bytes_in_per_event"] =
      static_cast<double>(bytes_in) / static_cast<double>(std::max<uint64_t>(traced.events, 1));
  (*m)["server.bytes_out_per_result"] =
      static_cast<double>(bytes_out) / static_cast<double>(std::max<uint64_t>(results, 1));
  const SpanTotals wire_spans[] = {traced.render, traced.send, traced.recv,
                                   traced.drain};
  (*m)["trace.coverage"] = Coverage(wire_spans, traced.wall_ns);
  (*m)["trace.overhead"] = traced.rate() / untraced.rate();

  times.wire_s = static_cast<double>(traced.wall_ns) / 1e9;
  ServerShares shares = SplitServerLedger(times);
  (*m)["server.socket_share"] = shares.socket;
  (*m)["server.protocol_share"] = shares.protocol;
  (*m)["server.registry_share"] = shares.registry;
  (*m)["server.format_share"] = shares.format;
  (*m)["server.exec_share"] = shares.exec;
  (*m)["exec.tuple_call_share"] =
      static_cast<double>(exec_spans[kTupleCall].ns) / 1e9 / times.wire_s;
  (*m)["exec.punct_call_share"] =
      static_cast<double>(exec_spans[kPunctCall].ns) / 1e9 / times.wire_s;
  (*m)["exec.punct_call_p99_us"] = exec_spans.punct_us().SupportedAt(99.0, nullptr);
  // Executor counters on the same lines, summed over the queries.
  std::vector<const PlanExecutor*> execs;
  for (const auto& rq : replay_executors) execs.push_back(rq.executor.get());
  ExecCounters(execs, traced.cycles * ss.source->base_len(), m);
  std::printf("ledger over %llu cycles: wire %.3fs protocol %.3fs format %.3fs registry "
              "%.3fs exec %.3fs\n",
              static_cast<unsigned long long>(traced.cycles), times.wire_s,
              times.protocol_s, times.format_s, times.registry_s, times.exec_s);

  WireOpenResult open;
  for (int k = 0; k < kSubRuns; ++k) {
    open += RunWireOpen(ss, quarter / kSubRuns, tally, &err_lines, &disconnects);
  }
  (*m)["server.push_ack_p50_us"] = open.ack_us.Percentile(50.0);
  (*m)["server.control_rtt_p99_us"] = open.ping_us.SupportedAt(99.0, nullptr);
  (*m)["loadgen.late_p99_us"] = open.open.late_us.SupportedAt(99.0, nullptr);
  (*m)["loadgen.result_latency_p99_us"] = open.open.p99_us();
  (*m)["server.err_lines"] = static_cast<double>(err_lines);
  (*m)["server.disconnects"] = static_cast<double>(disconnects);
}

// ------------------------------------------------------------- output

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Tally& tally, const Metrics& m, bool trace) {
  std::printf("# env hardware_threads=%u simd_dispatch=%s compiler=\"%s\" flags=\"%s\" "
              "build_type=%s\n",
              std::max(1u, std::thread::hardware_concurrency()),
              punctsafe::simd::kDispatchName, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              PERFBENCH_BUILD_TYPE);
  std::printf("# error_rate %s (%llu failed of %llu attempted)\n",
              JsonNumber(tally.attempted == 0 ? 0.0
                                              : static_cast<double>(tally.failed) /
                                                    static_cast<double>(tally.attempted))
                  .c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::string json = std::string("{\"correct\": ") +
                     (tally.correct && tally.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(tally.attempted, 1)) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    auto it = m.find(d.name);
    double v = it == m.end() ? 0.0 : it->second;
    std::printf("%-40s %20s %s\n", d.name, JsonNumber(v).c_str(), d.unit);
    json += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " +
            JsonNumber(v) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 120) Die("--seconds must be in (0, 120]");
  if (a.trace != 0 && a.trace != 1) Die("--trace must be 0 or 1");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  Tally tally;
  Metrics metrics;
  bool known = false;
  for (const ChainDef& def : kChainDefs) {
    if (args.workload == def.name) {
      RunChain(def, args.seed, args.seconds, args.trace == 1, &tally, &metrics);
      known = true;
    }
  }
  if (args.workload == "server_auction_fanout") {
    RunServer(args.seed, args.seconds, args.trace == 1, &tally, &metrics);
    known = true;
  }
  if (!known) Die("unknown workload " + args.workload);
  PrintResult(tally, metrics, args.trace == 1);
  return 0;
}

