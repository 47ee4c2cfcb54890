// The punctuation store of one operator input.
//
// Punctuations must be retained after use: they purge not only the
// tuples currently stored but also matching *future* tuples (paper
// Section 5.1). Retaining them forever is itself an unbounded-memory
// hazard, so the store supports the paper's two practical remedies:
//  * lifespans — a punctuation expires `lifespan` time units after its
//    arrival timestamp (the TCP sequence-number example);
//  * retirement (punctuation purgeability) — the owning operator calls
//    Retire once nothing can join on a value any more (exec/mjoin.h).
//
// Lookup is organized by constrained-attribute signature: the chained
// purge test "is subspace {attrs = values} closed?" probes each
// signature that is a subset of `attrs` with the projected values —
// O(#signatures) hash lookups. Probes are heterogeneous (C++20
// transparent unordered lookup): the projection is a reused vector of
// Value pointers that hashes exactly like the equivalent Tuple via
// the shared kTupleHashSeed/TupleHashStep chain over the Values'
// cached hashes, so a probe constructs no Tuple and copies no Value.

#ifndef PUNCTSAFE_EXEC_PUNCTUATION_STORE_H_
#define PUNCTSAFE_EXEC_PUNCTUATION_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "stream/punctuation.h"
#include "stream/tuple.h"

namespace punctsafe {

class PunctuationStore {
 public:
  /// \param lifespan expiry horizon in timestamp units; nullopt keeps
  ///        punctuations forever.
  explicit PunctuationStore(std::optional<int64_t> lifespan = std::nullopt)
      : lifespan_(lifespan) {}

  /// \brief Stores a punctuation observed at `now`; returns false for
  /// duplicates (which refresh the timestamp instead).
  bool Add(const Punctuation& punctuation, int64_t now);

  /// \brief True iff some stored, unexpired punctuation excludes every
  /// future tuple of the subspace {attrs[i] = values[i], rest = *}.
  bool CoversSubspace(const std::vector<size_t>& attrs,
                      std::span<const Value> values, int64_t now) const;
  // std::span has no initializer_list constructor; keep brace-list
  // call sites working.
  bool CoversSubspace(const std::vector<size_t>& attrs,
                      std::initializer_list<Value> values,
                      int64_t now) const {
    return CoversSubspace(
        attrs, std::span<const Value>(values.begin(), values.size()), now);
  }

  /// \brief CoversSubspace over values held elsewhere: `values[i]`
  /// points at the value of attrs[i] (the chained purge's joinable
  /// rows, probed without copying a Value).
  bool CoversSubspace(const std::vector<size_t>& attrs,
                      std::span<const Value* const> values,
                      int64_t now) const;

  /// \brief True iff a stored, unexpired punctuation matches the tuple
  /// (i.e. the tuple was promised never to arrive — contract
  /// violation, or a late arrival the operator may drop).
  bool ExcludesTuple(const Tuple& tuple, int64_t now) const;

  /// \brief Drops punctuations whose lifespan ended before `now`;
  /// returns how many were dropped. No-op without a lifespan.
  size_t ExpireBefore(int64_t now);

  /// \brief Removes every stored punctuation constraining `attr` to
  /// `value`; returns how many went. Only groups constraining other
  /// attributes too are scanned; the {attr} group is probed by key.
  size_t Retire(size_t attr, const Value& value);

  /// \brief Stored punctuations constraining `attr` (expired included,
  /// like size()); O(#signatures).
  size_t CountConstraining(size_t attr) const;

  size_t size() const { return size_; }

  /// \brief Calls fn for every stored punctuation (expired included)
  /// with its arrival timestamp — the checkpoint capture path
  /// (exec/checkpoint.h) needs it so lifespan expiry keeps working
  /// after a restore (re-adding with the original arrival via
  /// Add(p, arrival)). The punctuation is rebuilt per entry and handed
  /// over by value, so the callback can keep it without another copy.
  void ForEachEntry(
      const std::function<void(Punctuation, int64_t)>& fn) const;

 private:
  // A stored punctuation is its group's signature plus the key's
  // constants (wildcards elsewhere), so an entry keeps only its
  // arrival; the punctuation is rebuilt on the cold path that needs it
  // (ForEachEntry). The per-entry footprint is what a store grows by
  // between retirements.
  struct Entry {
    int64_t arrival = 0;
  };

  // Non-owning projection of Values used as a heterogeneous map key.
  // Hash/equality agree exactly with the Tuple holding the same
  // values (same seed, same step, same type-strict Value equality).
  struct ProjectedKey {
    const std::vector<const Value*>* parts;
  };
  struct TupleKeyHash {
    using is_transparent = void;
    size_t operator()(const Tuple& t) const { return t.Hash(); }
    size_t operator()(const ProjectedKey& k) const {
      size_t seed = kTupleHashSeed;
      for (const Value* v : *k.parts) seed = TupleHashStep(seed, v->Hash());
      return seed;
    }
  };
  struct TupleKeyEq {
    using is_transparent = void;
    bool operator()(const Tuple& a, const Tuple& b) const { return a == b; }
    bool operator()(const ProjectedKey& k, const Tuple& t) const {
      if (k.parts->size() != t.size()) return false;
      for (size_t i = 0; i < t.size(); ++i) {
        if (!(*(*k.parts)[i] == t.at(i))) return false;
      }
      return true;
    }
    bool operator()(const Tuple& t, const ProjectedKey& k) const {
      return (*this)(k, t);
    }
  };

  // Signature = sorted constrained-attr offsets (and the arity of the
  // punctuations carrying it); per signature, a map from the constant
  // projection (as a Tuple) to the entry.
  struct Group {
    std::vector<size_t> attrs;
    size_t arity = 0;
    std::unordered_map<Tuple, Entry, TupleKeyHash, TupleKeyEq> by_values;
  };

  static Punctuation Materialize(const Group& group, const Tuple& key);

  // Shared body of the CoversSubspace overloads; value(i) yields the
  // Value of attrs[i].
  template <typename ValueAt>
  bool CoversSubspaceImpl(const std::vector<size_t>& attrs, ValueAt value,
                          int64_t now) const;

  bool Expired(const Entry& e, int64_t now) const {
    return lifespan_.has_value() && e.arrival + *lifespan_ <= now;
  }

  std::optional<int64_t> lifespan_;
  std::vector<Group> groups_;
  // Reused projection scratch (single-threaded store; mutable because
  // lookups are const): probes must not allocate in steady state.
  mutable std::vector<const Value*> key_scratch_;
  size_t size_ = 0;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PUNCTUATION_STORE_H_
