#include "exec/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/logging.h"

namespace punctsafe {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'C', 'K'};
// Note: expand_allocs (exec/metrics.h) is deliberately NOT part of the
// wire format — it counts scratch-capacity growth, which depends on
// process warmth, so a restored (cold-scratch) executor would re-charge
// it and break capture -> restore -> capture byte stability. It is a
// process-local diagnostic only.
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kMetaSection = 1;
constexpr uint32_t kOperatorSection = 2;

// ---------------------------------------------------------------------------
// Little-endian primitive writers.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutI64(out, v.AsInt64());
      break;
    case ValueType::kDouble:
      PutDouble(out, v.AsDouble());
      break;
    case ValueType::kString:
      PutString(out, v.AsString());
      break;
  }
}

void PutTuple(std::string* out, const Tuple& t) {
  PutU32(out, static_cast<uint32_t>(t.size()));
  for (const Value& v : t) PutValue(out, v);
}

void PutPunctuation(std::string* out, const Punctuation& p) {
  PutU32(out, static_cast<uint32_t>(p.arity()));
  for (const Pattern& pat : p.patterns()) {
    if (pat.is_wildcard()) {
      PutU8(out, 0);
    } else {
      PutU8(out, 1);
      PutValue(out, pat.constant());
    }
  }
}

void PutStateMetrics(std::string* out, const StateMetricsSnapshot& m) {
  PutU64(out, m.inserted);
  PutU64(out, m.purged);
  PutU64(out, m.dropped_on_arrival);
  PutU64(out, m.probes);
  PutU64(out, m.probe_allocs);
  PutU64(out, m.index_compactions);
  PutU64(out, m.insert_allocs);
  PutU64(out, m.arena_blocks_reclaimed);
  PutU64(out, m.arena_bytes_reserved);
  PutU64(out, m.arena_bytes_live);
  PutU64(out, m.live);
  PutU64(out, m.high_water);
}

void PutOperatorMetrics(std::string* out, const OperatorMetricsSnapshot& m) {
  PutU64(out, m.results_emitted);
  PutU64(out, m.punctuations_received);
  PutU64(out, m.punctuations_stored);
  PutU64(out, m.punctuations_propagated);
  PutU64(out, m.punctuations_expired);
  PutU64(out, m.purge_sweeps);
  PutU64(out, m.removability_checks);
  PutU64(out, m.punctuations_live);
  PutU64(out, m.punctuations_high_water);
}

// ---------------------------------------------------------------------------
// Bounds-checked reader. Every accessor returns false on truncation;
// callers funnel that into one InvalidArgument via the section name.

struct Reader {
  const char* p;
  size_t n;

  bool Raw(void* dst, size_t k) {
    if (n < k) return false;
    std::memcpy(dst, p, k);
    p += k;
    n -= k;
    return true;
  }
  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) {
    unsigned char b[4];
    if (!Raw(b, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(b[i]) << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    unsigned char b[8];
    if (!Raw(b, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(b[i]) << (8 * i);
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool Dbl(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* v) {
    uint32_t len;
    if (!U32(&len) || n < len) return false;
    v->assign(p, len);
    p += len;
    n -= len;
    return true;
  }
};

bool ReadValue(Reader* r, Value* out) {
  uint8_t type;
  if (!r->U8(&type)) return false;
  switch (static_cast<ValueType>(type)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kInt64: {
      int64_t v;
      if (!r->I64(&v)) return false;
      *out = Value(v);
      return true;
    }
    case ValueType::kDouble: {
      double v;
      if (!r->Dbl(&v)) return false;
      *out = Value(v);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!r->Str(&s)) return false;
      *out = Value(std::string_view(s));
      return true;
    }
  }
  return false;  // unknown type byte
}

bool ReadTuple(Reader* r, Tuple* out) {
  uint32_t count;
  // Each encoded value costs >= 1 byte, so `count <= n` bounds the
  // allocation before trusting a corrupted length.
  if (!r->U32(&count) || count > r->n) return false;
  std::vector<Value> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Value v;
    if (!ReadValue(r, &v)) return false;
    values.push_back(std::move(v));
  }
  *out = Tuple(std::move(values));
  return true;
}

bool ReadPunctuation(Reader* r, Punctuation* out) {
  uint32_t arity;
  if (!r->U32(&arity) || arity > r->n) return false;
  std::vector<Pattern> patterns;
  patterns.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    uint8_t kind;
    if (!r->U8(&kind)) return false;
    if (kind == 0) {
      patterns.push_back(Pattern::Wildcard());
    } else if (kind == 1) {
      Value v;
      if (!ReadValue(r, &v)) return false;
      patterns.push_back(Pattern(std::move(v)));
    } else {
      return false;
    }
  }
  *out = Punctuation(std::move(patterns));
  return true;
}

bool ReadStateMetrics(Reader* r, StateMetricsSnapshot* m) {
  uint64_t reserved, live_bytes, live, hw;
  if (!r->U64(&m->inserted) || !r->U64(&m->purged) ||
      !r->U64(&m->dropped_on_arrival) || !r->U64(&m->probes) ||
      !r->U64(&m->probe_allocs) || !r->U64(&m->index_compactions) ||
      !r->U64(&m->insert_allocs) ||
      !r->U64(&m->arena_blocks_reclaimed) ||
      !r->U64(&reserved) || !r->U64(&live_bytes) || !r->U64(&live) ||
      !r->U64(&hw)) {
    return false;
  }
  m->arena_bytes_reserved = static_cast<size_t>(reserved);
  m->arena_bytes_live = static_cast<size_t>(live_bytes);
  m->live = static_cast<size_t>(live);
  m->high_water = static_cast<size_t>(hw);
  return true;
}

bool ReadOperatorMetrics(Reader* r, OperatorMetricsSnapshot* m) {
  uint64_t live, hw;
  if (!r->U64(&m->results_emitted) || !r->U64(&m->punctuations_received) ||
      !r->U64(&m->punctuations_stored) ||
      !r->U64(&m->punctuations_propagated) ||
      !r->U64(&m->punctuations_expired) || !r->U64(&m->purge_sweeps) ||
      !r->U64(&m->removability_checks) || !r->U64(&live) || !r->U64(&hw)) {
    return false;
  }
  m->punctuations_live = static_cast<size_t>(live);
  m->punctuations_high_water = static_cast<size_t>(hw);
  return true;
}

// ---------------------------------------------------------------------------
// Section payloads.

std::string EncodeMetaSection(const StateSnapshot& s) {
  std::string out;
  PutString(&out, s.fingerprint);
  PutU32(&out, static_cast<uint32_t>(s.progress.size()));
  for (const InputProgress& p : s.progress) {
    PutU64(&out, p.events_consumed);
    PutI64(&out, p.watermark_ts);
  }
  PutU64(&out, s.num_results);
  PutU64(&out, s.tuple_high_water);
  PutU64(&out, s.punct_high_water);
  PutU64(&out, s.results.size());
  for (const Tuple& t : s.results) PutTuple(&out, t);
  PutU32(&out, static_cast<uint32_t>(s.operators.size()));
  return out;
}

std::string EncodeOperatorSection(const OperatorStateSnapshot& op) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(op.inputs.size()));
  for (const InputStateSnapshot& in : op.inputs) {
    PutU64(&out, in.tuples.size());
    for (const Tuple& t : in.tuples) PutTuple(&out, t);
    PutU64(&out, in.punctuations.size());
    for (const PunctuationEntry& e : in.punctuations) {
      PutPunctuation(&out, e.punctuation);
      PutI64(&out, e.arrival);
    }
    PutStateMetrics(&out, in.state_metrics);
  }
  PutU64(&out, op.pending.size());
  for (const PendingPropagationSnapshot& p : op.pending) {
    PutU32(&out, p.input);
    PutPunctuation(&out, p.punctuation);
  }
  PutOperatorMetrics(&out, op.op_metrics);
  PutU64(&out, op.punctuations_purged);
  PutU64(&out, op.punctuations_since_sweep);
  return out;
}

void AppendSection(std::string* out, uint32_t id, const std::string& payload) {
  PutU32(out, id);
  PutU64(out, payload.size());
  out->append(payload);
  PutU32(out, Crc32(payload.data(), payload.size()));
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(
      std::string("snapshot truncated or malformed in ") + what);
}

// Reads one CRC-framed section, verifying id and checksum.
Status ReadSection(Reader* r, uint32_t expect_id, std::string_view* payload,
                   const char* what) {
  uint32_t id;
  uint64_t len;
  if (!r->U32(&id)) return Truncated("section header");
  if (id != expect_id) {
    return Status::InvalidArgument("snapshot has unexpected section id " +
                                   std::to_string(id) + " (wanted " +
                                   std::to_string(expect_id) + ")");
  }
  if (!r->U64(&len) || len > r->n) return Truncated(what);
  *payload = std::string_view(r->p, static_cast<size_t>(len));
  r->p += len;
  r->n -= static_cast<size_t>(len);
  uint32_t crc;
  if (!r->U32(&crc)) return Truncated("section checksum");
  if (crc != Crc32(payload->data(), payload->size())) {
    return Status::InvalidArgument(std::string("snapshot CRC mismatch in ") +
                                   what);
  }
  return Status::OK();
}

Status ParseMetaSection(std::string_view payload, StateSnapshot* s,
                        uint32_t* num_operators) {
  Reader r{payload.data(), payload.size()};
  uint32_t progress_count;
  if (!r.Str(&s->fingerprint) || !r.U32(&progress_count) ||
      progress_count > r.n) {
    return Truncated("meta section");
  }
  s->progress.resize(progress_count);
  for (InputProgress& p : s->progress) {
    if (!r.U64(&p.events_consumed) || !r.I64(&p.watermark_ts)) {
      return Truncated("meta progress");
    }
  }
  uint64_t result_count;
  if (!r.U64(&s->num_results) || !r.U64(&s->tuple_high_water) ||
      !r.U64(&s->punct_high_water) || !r.U64(&result_count) ||
      result_count > r.n) {
    return Truncated("meta counters");
  }
  s->results.reserve(static_cast<size_t>(result_count));
  for (uint64_t i = 0; i < result_count; ++i) {
    Tuple t;
    if (!ReadTuple(&r, &t)) return Truncated("meta results");
    s->results.push_back(std::move(t));
  }
  if (!r.U32(num_operators)) return Truncated("meta operator count");
  if (r.n != 0) return Truncated("meta section (trailing bytes)");
  return Status::OK();
}

Status ParseOperatorSection(std::string_view payload,
                            OperatorStateSnapshot* op) {
  Reader r{payload.data(), payload.size()};
  uint32_t num_inputs;
  if (!r.U32(&num_inputs) || num_inputs > r.n) {
    return Truncated("operator section");
  }
  op->inputs.resize(num_inputs);
  for (InputStateSnapshot& in : op->inputs) {
    uint64_t tuple_count;
    if (!r.U64(&tuple_count) || tuple_count > r.n) {
      return Truncated("operator tuples");
    }
    in.tuples.reserve(static_cast<size_t>(tuple_count));
    for (uint64_t i = 0; i < tuple_count; ++i) {
      Tuple t;
      if (!ReadTuple(&r, &t)) return Truncated("operator tuples");
      in.tuples.push_back(std::move(t));
    }
    uint64_t punct_count;
    if (!r.U64(&punct_count) || punct_count > r.n) {
      return Truncated("operator punctuations");
    }
    in.punctuations.reserve(static_cast<size_t>(punct_count));
    for (uint64_t i = 0; i < punct_count; ++i) {
      PunctuationEntry e;
      if (!ReadPunctuation(&r, &e.punctuation) || !r.I64(&e.arrival)) {
        return Truncated("operator punctuations");
      }
      in.punctuations.push_back(std::move(e));
    }
    if (!ReadStateMetrics(&r, &in.state_metrics)) {
      return Truncated("operator state metrics");
    }
  }
  uint64_t pending_count;
  if (!r.U64(&pending_count) || pending_count > r.n) {
    return Truncated("operator pending propagations");
  }
  op->pending.reserve(static_cast<size_t>(pending_count));
  for (uint64_t i = 0; i < pending_count; ++i) {
    PendingPropagationSnapshot p;
    if (!r.U32(&p.input) || !ReadPunctuation(&r, &p.punctuation)) {
      return Truncated("operator pending propagations");
    }
    op->pending.push_back(std::move(p));
  }
  if (!ReadOperatorMetrics(&r, &op->op_metrics) ||
      !r.U64(&op->punctuations_purged) ||
      !r.U64(&op->punctuations_since_sweep)) {
    return Truncated("operator metrics");
  }
  if (r.n != 0) return Truncated("operator section (trailing bytes)");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Canonical ordering helpers.

// Canonical byte encoding of a punctuation — the sort/dedup key Merge
// uses (Punctuation has no operator<).
std::string EncodePunctuationKey(const Punctuation& p) {
  std::string out;
  PutPunctuation(&out, p);
  return out;
}

bool PunctuationEntryLess(const PunctuationEntry& a,
                          const PunctuationEntry& b) {
  return EncodePunctuationKey(a.punctuation) <
         EncodePunctuationKey(b.punctuation);
}

bool PendingLess(const PendingPropagationSnapshot& a,
                 const PendingPropagationSnapshot& b) {
  if (a.input != b.input) return a.input < b.input;
  return EncodePunctuationKey(a.punctuation) <
         EncodePunctuationKey(b.punctuation);
}

// Canonical form is merge's normal form: tuples sorted (multiset),
// punctuations sorted + deduplicated keeping the max arrival, pending
// sorted + deduplicated. Executor-captured state is already free of
// duplicates; normalizing here makes the monoid laws hold for
// arbitrary hand-built snapshots too.
void CanonicalizeOperator(OperatorStateSnapshot* op) {
  for (InputStateSnapshot& in : op->inputs) {
    std::sort(in.tuples.begin(), in.tuples.end());
    std::stable_sort(in.punctuations.begin(), in.punctuations.end(),
                     PunctuationEntryLess);
    std::vector<PunctuationEntry> unique;
    unique.reserve(in.punctuations.size());
    for (PunctuationEntry& e : in.punctuations) {
      if (!unique.empty() && unique.back().punctuation == e.punctuation) {
        unique.back().arrival = std::max(unique.back().arrival, e.arrival);
      } else {
        unique.push_back(std::move(e));
      }
    }
    in.punctuations = std::move(unique);
  }
  std::sort(op->pending.begin(), op->pending.end(), PendingLess);
  op->pending.erase(std::unique(op->pending.begin(), op->pending.end(),
                                [](const PendingPropagationSnapshot& x,
                                   const PendingPropagationSnapshot& y) {
                                  return x.input == y.input &&
                                         x.punctuation == y.punctuation;
                                }),
                    op->pending.end());
}

// Union of two canonically sorted punctuation lists; duplicates keep
// the max arrival timestamp (a shard that saw the punctuation later
// bounds its lifespan, and max is associative + commutative).
std::vector<PunctuationEntry> MergePunctuationEntries(
    const std::vector<PunctuationEntry>& a,
    const std::vector<PunctuationEntry>& b) {
  std::vector<PunctuationEntry> merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  std::stable_sort(merged.begin(), merged.end(), PunctuationEntryLess);
  std::vector<PunctuationEntry> out;
  out.reserve(merged.size());
  for (PunctuationEntry& e : merged) {
    if (!out.empty() && out.back().punctuation == e.punctuation) {
      out.back().arrival = std::max(out.back().arrival, e.arrival);
    } else {
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::vector<PendingPropagationSnapshot> MergePending(
    const std::vector<PendingPropagationSnapshot>& a,
    const std::vector<PendingPropagationSnapshot>& b) {
  std::vector<PendingPropagationSnapshot> merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  std::sort(merged.begin(), merged.end(), PendingLess);
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const PendingPropagationSnapshot& x,
                              const PendingPropagationSnapshot& y) {
                             return x.input == y.input &&
                                    x.punctuation == y.punctuation;
                           }),
               merged.end());
  return merged;
}

// Every counter is per shard work or storage; under key-routed
// punctuations a shard counts only what was delivered to it, so the
// logical value is the sum (a broadcast punctuation counts once per
// shard, as its storage does).
OperatorMetricsSnapshot MergeOperatorMetrics(
    const OperatorMetricsSnapshot& a, const OperatorMetricsSnapshot& b) {
  OperatorMetricsSnapshot m;
  m.results_emitted = a.results_emitted + b.results_emitted;
  m.removability_checks = a.removability_checks + b.removability_checks;
  m.punctuations_received = a.punctuations_received + b.punctuations_received;
  m.punctuations_stored = a.punctuations_stored + b.punctuations_stored;
  m.punctuations_propagated =
      a.punctuations_propagated + b.punctuations_propagated;
  m.punctuations_expired = a.punctuations_expired + b.punctuations_expired;
  m.purge_sweeps = a.purge_sweeps + b.purge_sweeps;
  m.punctuations_live = a.punctuations_live + b.punctuations_live;
  m.punctuations_high_water =
      a.punctuations_high_water + b.punctuations_high_water;
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

uint32_t Crc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void CanonicalizeSnapshot(StateSnapshot* snapshot) {
  std::sort(snapshot->results.begin(), snapshot->results.end());
  for (OperatorStateSnapshot& op : snapshot->operators) {
    CanonicalizeOperator(&op);
  }
}

std::string SerializeSnapshot(const StateSnapshot& snapshot) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kFormatVersion);
  AppendSection(&out, kMetaSection, EncodeMetaSection(snapshot));
  for (const OperatorStateSnapshot& op : snapshot.operators) {
    AppendSection(&out, kOperatorSection, EncodeOperatorSection(op));
  }
  return out;
}

Result<StateSnapshot> DeserializeSnapshot(std::string_view bytes) {
  Reader r{bytes.data(), bytes.size()};
  char magic[4];
  if (!r.Raw(magic, sizeof(magic))) return Truncated("header");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("snapshot has bad magic (not PSCK)");
  }
  uint32_t version;
  if (!r.U32(&version)) return Truncated("header");
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(version));
  }
  StateSnapshot snapshot;
  std::string_view payload;
  PUNCTSAFE_RETURN_IF_ERROR(
      ReadSection(&r, kMetaSection, &payload, "meta section"));
  uint32_t num_operators;
  PUNCTSAFE_RETURN_IF_ERROR(
      ParseMetaSection(payload, &snapshot, &num_operators));
  if (num_operators > bytes.size()) return Truncated("operator count");
  snapshot.operators.resize(num_operators);
  for (uint32_t i = 0; i < num_operators; ++i) {
    PUNCTSAFE_RETURN_IF_ERROR(
        ReadSection(&r, kOperatorSection, &payload, "operator section"));
    PUNCTSAFE_RETURN_IF_ERROR(
        ParseOperatorSection(payload, &snapshot.operators[i]));
  }
  if (r.n != 0) {
    return Status::InvalidArgument(
        "snapshot has trailing bytes after the last section");
  }
  return snapshot;
}

Status WriteSnapshotFile(const StateSnapshot& snapshot,
                         const std::string& path) {
  const std::string bytes = SerializeSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open snapshot file for writing: " +
                              tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::Internal("short write to snapshot file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename snapshot file into place: " +
                            path);
  }
  return Status::OK();
}

Result<StateSnapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open snapshot file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("error reading snapshot file: " + path);
  }
  return DeserializeSnapshot(bytes);
}

OperatorStateSnapshot MergeOperatorSnapshots(const OperatorStateSnapshot& a,
                                             const OperatorStateSnapshot& b) {
  if (a.inputs.empty() && a.pending.empty()) {
    OperatorStateSnapshot out = b;
    CanonicalizeOperator(&out);
    return out;
  }
  if (b.inputs.empty() && b.pending.empty()) {
    OperatorStateSnapshot out = a;
    CanonicalizeOperator(&out);
    return out;
  }
  PUNCTSAFE_CHECK(a.inputs.size() == b.inputs.size())
      << "merging operator snapshots of different arity: " << a.inputs.size()
      << " vs " << b.inputs.size();
  OperatorStateSnapshot out;
  out.inputs.resize(a.inputs.size());
  for (size_t k = 0; k < a.inputs.size(); ++k) {
    InputStateSnapshot& in = out.inputs[k];
    in.tuples.reserve(a.inputs[k].tuples.size() + b.inputs[k].tuples.size());
    in.tuples.insert(in.tuples.end(), a.inputs[k].tuples.begin(),
                     a.inputs[k].tuples.end());
    in.tuples.insert(in.tuples.end(), b.inputs[k].tuples.begin(),
                     b.inputs[k].tuples.end());
    std::sort(in.tuples.begin(), in.tuples.end());
    in.punctuations = MergePunctuationEntries(a.inputs[k].punctuations,
                                              b.inputs[k].punctuations);
    in.state_metrics = a.inputs[k].state_metrics;
    in.state_metrics += b.inputs[k].state_metrics;
  }
  out.pending = MergePending(a.pending, b.pending);
  out.op_metrics = MergeOperatorMetrics(a.op_metrics, b.op_metrics);
  out.punctuations_purged = a.punctuations_purged + b.punctuations_purged;
  out.punctuations_since_sweep =
      std::max(a.punctuations_since_sweep, b.punctuations_since_sweep);
  return out;
}

StateSnapshot MergeSnapshots(const StateSnapshot& a, const StateSnapshot& b) {
  StateSnapshot out;
  if (!a.fingerprint.empty() && !b.fingerprint.empty()) {
    PUNCTSAFE_CHECK(a.fingerprint == b.fingerprint)
        << "merging snapshots of different plans";
  }
  out.fingerprint = a.fingerprint.empty() ? b.fingerprint : a.fingerprint;
  out.progress.resize(std::max(a.progress.size(), b.progress.size()));
  for (size_t i = 0; i < out.progress.size(); ++i) {
    InputProgress pa = i < a.progress.size() ? a.progress[i] : InputProgress{};
    InputProgress pb = i < b.progress.size() ? b.progress[i] : InputProgress{};
    out.progress[i].events_consumed =
        std::max(pa.events_consumed, pb.events_consumed);
    out.progress[i].watermark_ts = std::max(pa.watermark_ts, pb.watermark_ts);
  }
  out.num_results = a.num_results + b.num_results;
  out.results.reserve(a.results.size() + b.results.size());
  out.results.insert(out.results.end(), a.results.begin(), a.results.end());
  out.results.insert(out.results.end(), b.results.begin(), b.results.end());
  std::sort(out.results.begin(), out.results.end());
  // High waters: tuple-side sums (upper bound — shards need not peak
  // together, same caveat as StateMetricsSnapshot::operator+=);
  // punctuation-side is replicated so max is exact.
  out.tuple_high_water = a.tuple_high_water + b.tuple_high_water;
  out.punct_high_water = std::max(a.punct_high_water, b.punct_high_water);
  if (a.operators.empty()) {
    out.operators = b.operators;
    for (OperatorStateSnapshot& op : out.operators) CanonicalizeOperator(&op);
  } else if (b.operators.empty()) {
    out.operators = a.operators;
    for (OperatorStateSnapshot& op : out.operators) CanonicalizeOperator(&op);
  } else {
    PUNCTSAFE_CHECK(a.operators.size() == b.operators.size())
        << "merging snapshots with different operator counts";
    out.operators.reserve(a.operators.size());
    for (size_t i = 0; i < a.operators.size(); ++i) {
      out.operators.push_back(
          MergeOperatorSnapshots(a.operators[i], b.operators[i]));
    }
  }
  return out;
}

std::vector<OperatorStateSnapshot> SplitOperatorSnapshot(
    const OperatorStateSnapshot& op, size_t pieces,
    const OperatorShardFn& shard_of,
    const OperatorPunctuationShardFn& punctuation_shard_of,
    const OperatorPunctuationShardFn& pending_shard_of) {
  PUNCTSAFE_CHECK(pieces > 0) << "cannot split a snapshot into 0 pieces";
  std::vector<OperatorStateSnapshot> out(pieces);
  // Each punctuation goes to the piece its router names, or to all.
  auto place = [&](const OperatorPunctuationShardFn& router, size_t input,
                   const Punctuation& p, auto&& add) {
    const size_t target = router ? router(input, p, pieces) : pieces;
    if (target < pieces) {
      add(out[target]);
    } else {
      for (OperatorStateSnapshot& piece : out) add(piece);
    }
  };
  for (size_t s = 0; s < pieces; ++s) {
    // Counters stay on piece 0 so the fold restores them exactly;
    // the sweep schedule is per shard state, replicated (max merge).
    OperatorStateSnapshot& piece = out[s];
    piece.inputs.resize(op.inputs.size());
    piece.punctuations_since_sweep = op.punctuations_since_sweep;
    if (s == 0) {
      piece.op_metrics = op.op_metrics;
      piece.punctuations_purged = op.punctuations_purged;
    }
    for (size_t k = 0; k < op.inputs.size(); ++k) {
      if (s == 0) {
        piece.inputs[k].state_metrics = op.inputs[k].state_metrics;
        // `live` is recomputed from the tuple partition below so each
        // piece's gauge matches its own contents.
        piece.inputs[k].state_metrics.live = 0;
      }
    }
  }
  for (size_t k = 0; k < op.inputs.size(); ++k) {
    for (const PunctuationEntry& e : op.inputs[k].punctuations) {
      place(punctuation_shard_of, k, e.punctuation,
            [&](OperatorStateSnapshot& piece) {
        piece.inputs[k].punctuations.push_back(e);
      });
    }
  }
  for (const PendingPropagationSnapshot& p : op.pending) {
    place(pending_shard_of, p.input, p.punctuation,
          [&](OperatorStateSnapshot& piece) {
      piece.pending.push_back(p);
    });
  }
  for (size_t k = 0; k < op.inputs.size(); ++k) {
    for (const Tuple& t : op.inputs[k].tuples) {
      const size_t target = shard_of(k, t, pieces);
      PUNCTSAFE_CHECK(target < pieces)
          << "shard_of returned " << target << " for " << pieces
          << " pieces";
      out[target].inputs[k].tuples.push_back(t);
      out[target].inputs[k].state_metrics.live += 1;
    }
    // Any drift between the live gauge and the stored tuple count
    // (impossible for executor-captured snapshots, possible for
    // hand-built ones) lands on piece 0 so the fold still restores
    // the original gauge.
    const size_t listed = op.inputs[k].tuples.size();
    if (op.inputs[k].state_metrics.live > listed) {
      out[0].inputs[k].state_metrics.live +=
          op.inputs[k].state_metrics.live - listed;
    }
    for (OperatorStateSnapshot& piece : out) {
      std::sort(piece.inputs[k].tuples.begin(), piece.inputs[k].tuples.end());
    }
  }
  return out;
}

std::vector<StateSnapshot> SplitSnapshot(const StateSnapshot& snapshot,
                                         size_t pieces,
                                         SnapshotShardFn shard_of) {
  PUNCTSAFE_CHECK(pieces > 0) << "cannot split a snapshot into 0 pieces";
  if (!shard_of) {
    shard_of = [](size_t /*op*/, size_t /*input*/, const Tuple& t,
                  size_t n) { return t.Hash() % n; };
  }
  std::vector<StateSnapshot> out(pieces);
  for (size_t s = 0; s < pieces; ++s) {
    StateSnapshot& piece = out[s];
    piece.fingerprint = snapshot.fingerprint;
    piece.progress = snapshot.progress;
    piece.punct_high_water = snapshot.punct_high_water;
    if (s == 0) {
      piece.num_results = snapshot.num_results;
      piece.results = snapshot.results;
      piece.tuple_high_water = snapshot.tuple_high_water;
    }
  }
  for (size_t i = 0; i < snapshot.operators.size(); ++i) {
    std::vector<OperatorStateSnapshot> parts = SplitOperatorSnapshot(
        snapshot.operators[i], pieces,
        [&](size_t input, const Tuple& t, size_t n) {
          return shard_of(i, input, t, n);
        });
    for (size_t s = 0; s < pieces; ++s) {
      out[s].operators.push_back(std::move(parts[s]));
    }
  }
  return out;
}

}  // namespace punctsafe
