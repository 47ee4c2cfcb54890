// Typed scalar values carried by stream tuples and punctuation
// patterns. The paper's model only needs equality comparison on join
// attributes, but we keep a small typed repr (int64 / double / string
// / null) so workloads can carry realistic payloads.

#ifndef PUNCTSAFE_STREAM_VALUE_H_
#define PUNCTSAFE_STREAM_VALUE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace punctsafe {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

const char* ValueTypeToString(ValueType type);

/// \brief A dynamically-typed scalar. Equality is type-strict: an
/// int64 never equals a double, which keeps equi-join semantics
/// unambiguous.
///
/// The hash is computed once at construction and cached: join keys are
/// built when a tuple arrives but hashed at every index insert, probe,
/// and punctuation lookup afterwards, so Hash() on the hot path must
/// not re-walk string bytes (docs/PERF.md).
///
/// Storage is a tagged union instead of std::variant so string
/// payloads can live in three modes:
///   * inline  — up to kInlineStringCap bytes inside the Value (the
///     short-string common case costs no allocation anywhere);
///   * owned   — a heap buffer this Value frees;
///   * external — a non-owning view of bytes whose lifetime somebody
///     else manages (an arena block; see exec/arena.h). Copying an
///     external Value always materializes an owning copy, so a Value
///     that escapes its arena's epoch (index keys, result tuples)
///     never dangles.
class Value {
 public:
  /// Longest string stored inline (no heap, no arena payload bytes).
  static constexpr uint32_t kInlineStringCap = 16;

  Value() : mode_(Mode::kNull), len_(0), hash_(HashNull()) {}
  // NOLINTBEGIN(google-explicit-constructor): literal-friendly by design.
  Value(int64_t v) : mode_(Mode::kInt64), len_(0), hash_(HashInt64(v)) {
    payload_.i = v;
  }
  Value(int v) : Value(static_cast<int64_t>(v)) {}
  Value(double v) : mode_(Mode::kDouble), len_(0), hash_(HashDouble(v)) {
    payload_.d = v;
  }
  Value(const std::string& v) : Value(std::string_view(v)) {}
  Value(std::string_view v) {
    SetString(v.data(), static_cast<uint32_t>(v.size()), HashString(v));
  }
  Value(const char* v) : Value(std::string_view(v)) {}
  // NOLINTEND(google-explicit-constructor)

  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { MoveFrom(other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }

  /// \brief A non-owning string view of externally managed bytes with
  /// a precomputed hash (the arena-copy path: the source Value already
  /// paid for hashing, so the copy must not re-walk the bytes).
  /// Strings short enough for the inline buffer are stored inline
  /// instead — the caller need not special-case them.
  static Value ExternalString(const char* data, uint32_t len, size_t hash);

  ValueType type() const {
    switch (mode_) {
      case Mode::kNull:
        return ValueType::kNull;
      case Mode::kInt64:
        return ValueType::kInt64;
      case Mode::kDouble:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }
  bool is_null() const { return mode_ == Mode::kNull; }
  /// \brief True for string Values whose bytes this Value does not own
  /// (arena-resident). Copies of such Values own their bytes again.
  bool is_external() const { return mode_ == Mode::kExternalStr; }

  /// \brief Bytes of arena payload a stored copy of this Value needs
  /// beyond sizeof(Value) — the string length when it exceeds the
  /// inline buffer, else 0 (scalars and short strings are
  /// self-contained).
  size_t ExternalBytes() const {
    return (type() == ValueType::kString && len_ > kInlineStringCap) ? len_
                                                                     : 0;
  }

  /// \brief Typed accessors; calling the wrong one is a programming
  /// error (checked).
  int64_t AsInt64() const;
  double AsDouble() const;
  std::string_view AsString() const;

  /// Equal reprs always hash equally (same hash recipe), so comparing
  /// the cached hashes first rejects mismatches in one word compare —
  /// the common case in join predicate verification — before the
  /// typed (and possibly string) comparison runs.
  bool operator==(const Value& other) const {
    if (hash_ != other.hash_) return false;
    ValueType t = type();
    if (t != other.type()) return false;
    switch (t) {
      case ValueType::kNull:
        return true;
      case ValueType::kInt64:
        return payload_.i == other.payload_.i;
      case ValueType::kDouble:
        return payload_.d == other.payload_.d;
      case ValueType::kString:
        return string_view() == other.string_view();
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// \brief Total order (by type index, then value) so values can key
  /// ordered containers and be sorted deterministically.
  bool operator<(const Value& other) const {
    ValueType t = type();
    ValueType ot = other.type();
    if (t != ot) return t < ot;
    switch (t) {
      case ValueType::kNull:
        return false;
      case ValueType::kInt64:
        return payload_.i < other.payload_.i;
      case ValueType::kDouble:
        return payload_.d < other.payload_.d;
      case ValueType::kString:
        return string_view() < other.string_view();
    }
    return false;
  }

  /// \brief The cached hash (computed at construction, O(1) here).
  size_t Hash() const { return hash_; }

  /// \brief Appends the rendering ToString() returns: int64 and
  /// double as an ostream prints them by default (doubles as %g with
  /// six significant digits), strings double-quoted with their raw
  /// bytes, null as `null`. Allocation-free apart from growing `out`
  /// (the server formats every RESULT value through here).
  void AppendTo(std::string* out) const;
  std::string ToString() const;

 private:
  enum class Mode : uint8_t {
    kNull = 0,
    kInt64 = 1,
    kDouble = 2,
    kInlineStr = 3,
    kOwnedStr = 4,
    kExternalStr = 5,
  };

  union Payload {
    int64_t i;
    double d;
    char inline_str[kInlineStringCap];
    char* owned_str;
    const char* external_str;
  };

  // Per-type hash seeds and mixing match the historical recipe: seed
  // the type index with a golden-ratio multiple, then fold in the
  // payload hash boost-combine style. Equal values hash equally across
  // all storage modes because string hashing runs over the bytes
  // (std::hash<std::string_view> hashes bytes, mode-independent).
  // Inline: these run in every Value constructor — the default ctor's
  // HashNull in particular is a constant and must compile to one.
  static size_t TypeSeed(ValueType type) {
    return static_cast<size_t>(type) * 0x9E3779B97F4A7C15ULL;
  }
  static size_t Mix(size_t seed, size_t payload_hash) {
    return seed ^ (payload_hash + 0x9E3779B9u + (seed << 6) + (seed >> 2));
  }
  static size_t HashNull() { return TypeSeed(ValueType::kNull); }
  static size_t HashInt64(int64_t v) {
    return Mix(TypeSeed(ValueType::kInt64), std::hash<int64_t>{}(v));
  }
  static size_t HashDouble(double v) {
    return Mix(TypeSeed(ValueType::kDouble), std::hash<double>{}(v));
  }
  static size_t HashString(std::string_view v) {
    return Mix(TypeSeed(ValueType::kString), std::hash<std::string_view>{}(v));
  }

  std::string_view string_view() const {
    switch (mode_) {
      case Mode::kInlineStr:
        return {payload_.inline_str, len_};
      case Mode::kOwnedStr:
        return {payload_.owned_str, len_};
      default:
        return {payload_.external_str, len_};
    }
  }

  /// Stores string bytes: inline when they fit, else an owned heap
  /// copy. All string-copy paths funnel here, which is what guarantees
  /// "copying an external Value materializes ownership".
  void SetString(const char* data, uint32_t len, size_t hash);

  // Inline fast path: everything except owned/external strings is a
  // plain member copy (scalars and inline strings carry their whole
  // payload in the union), and Value copies are the per-row unit of
  // work in batch staging, arena insertion, and result emission. Only
  // the string deep-copy leaves the header.
  void CopyFrom(const Value& other) {
    if (other.mode_ == Mode::kOwnedStr || other.mode_ == Mode::kExternalStr) {
      // Deep-copy: an external (arena-resident) source must not leak
      // its non-owning pointer into the copy.
      SetString(other.string_view().data(), other.len_, other.hash_);
    } else {
      payload_ = other.payload_;
      mode_ = other.mode_;
      len_ = other.len_;
      hash_ = other.hash_;
    }
  }
  void MoveFrom(Value& other) noexcept {
    payload_ = other.payload_;
    mode_ = other.mode_;
    len_ = other.len_;
    hash_ = other.hash_;
    if (other.mode_ == Mode::kOwnedStr) {
      // Ownership transferred; neuter the source.
      other.mode_ = Mode::kNull;
      other.len_ = 0;
      other.hash_ = HashNull();
    }
  }
  // Out of line: keeps GCC's -Wfree-nonheap-object from firing on the
  // (never-taken) delete branch when it const-propagates an
  // inline-string Value through the union.
  void FreeOwned() noexcept;
  void Release() {
    if (mode_ == Mode::kOwnedStr) FreeOwned();
  }

  Payload payload_;
  Mode mode_;
  uint32_t len_;  // string byte length (all string modes); 0 otherwise
  size_t hash_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_STREAM_VALUE_H_
