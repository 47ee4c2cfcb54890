#include "exec/partition_router.h"

#include <algorithm>

#include "util/string_util.h"

namespace punctsafe {

namespace {

constexpr size_t kOutside = static_cast<size_t>(-1);

// Finalizer of splitmix64: Value::Hash for int64 keys is close to the
// identity on common stdlibs, so without mixing, sequential keys land
// on shards in lockstep patterns (k % K). One round of mixing makes
// the shard choice insensitive to key structure.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

size_t ShardOfValue(const Value& key, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return Mix64(key.Hash()) % num_shards;
}

// The shard owning the constant `p` pins on the first of `offsets` it
// pins, or kAllShards when it pins none of them.
size_t OwnerOfPinned(const std::vector<size_t>& offsets,
                     const Punctuation& p, size_t num_shards) {
  for (size_t offset : offsets) {
    const Pattern& pattern = p.pattern(offset);
    if (!pattern.is_wildcard()) {
      return ShardOfValue(pattern.constant(), num_shards);
    }
  }
  return PartitionSpec::kAllShards;
}

}  // namespace

size_t PartitionSpec::ShardOf(size_t input, const Tuple& tuple,
                              size_t num_shards) const {
  if (num_shards <= 1) return 0;
  return ShardOfValue(tuple.at(hash_offsets[input]), num_shards);
}

size_t PartitionSpec::PunctuationShard(size_t input,
                                       const Punctuation& punctuation,
                                       size_t num_shards) const {
  if (num_shards <= 1) return 0;
  // With one key member per input, pinning it means pinning the key.
  return routes_punctuations ? PendingShard(input, punctuation, num_shards)
                             : kAllShards;
}

size_t PartitionSpec::OutputPunctuationShard(const Punctuation& punctuation,
                                             size_t num_shards) const {
  if (num_shards <= 1) return 0;
  return OwnerOfPinned(output_key_offsets, punctuation, num_shards);
}

size_t PartitionSpec::PendingShard(size_t input,
                                   const Punctuation& punctuation,
                                   size_t num_shards) const {
  if (num_shards <= 1) return 0;
  return OwnerOfPinned(key_members[input], punctuation, num_shards);
}

PartitionSpec ComputePartitionSpec(const ContinuousJoinQuery& query,
                                   const std::vector<LocalInput>& inputs) {
  PartitionSpec spec;
  const size_t m = inputs.size();
  const std::vector<std::vector<JoinAttr>> classes =
      JoinAttrClasses(query, inputs);
  if (classes.empty()) {
    spec.detail = "not partitionable: no cross-input equi-join predicate";
    return spec;
  }

  // The first class with a member in every input; its first member per
  // input is the key. With three or more inputs, exactness also needs
  // every predicate inside the class, i.e. one class (see
  // partition_router.h); a binary operator verifies all predicates on
  // expansion, so any covering class is exact there.
  std::vector<size_t> chosen_offsets;
  const std::vector<JoinAttr>* chosen_class = nullptr;
  for (const std::vector<JoinAttr>& members : classes) {
    if (m > 2 && classes.size() > 1) break;
    std::vector<size_t> offsets(m, kOutside);
    size_t covered = 0;
    for (const JoinAttr& attr : members) {
      if (offsets[attr.input] == kOutside) {
        offsets[attr.input] = attr.offset;
        ++covered;
      }
    }
    if (covered == m) {
      chosen_offsets = std::move(offsets);
      chosen_class = &members;
      break;
    }
  }

  if (chosen_offsets.empty()) {
    spec.detail = StrCat("not partitionable: no equi-join attribute class ",
                         "covers all ", m, " inputs",
                         m > 2 ? " with every predicate inside it" : "");
    return spec;
  }
  spec.partitionable = true;
  spec.hash_offsets = std::move(chosen_offsets);
  spec.routes_punctuations = chosen_class->size() == m;
  spec.key_members.resize(m);
  for (const JoinAttr& attr : *chosen_class) {
    spec.key_members[attr.input].push_back(attr.offset);
  }

  // The output row concatenates the covered streams' schemas in
  // ascending stream order; an input's composite does the same over
  // its own streams. Map each class member through its stream.
  std::vector<size_t> out_base(query.num_streams(), kOutside);
  std::vector<size_t> covered_streams;
  for (const LocalInput& input : inputs) {
    covered_streams.insert(covered_streams.end(), input.streams.begin(),
                           input.streams.end());
  }
  std::sort(covered_streams.begin(), covered_streams.end());
  size_t width = 0;
  for (size_t s : covered_streams) {
    out_base[s] = width;
    width += query.schema(s).num_attributes();
  }
  for (const JoinAttr& attr : *chosen_class) {
    size_t offset = attr.offset;
    for (size_t s : inputs[attr.input].streams) {
      const size_t w = query.schema(s).num_attributes();
      if (offset < w) {
        spec.output_key_offsets.push_back(out_base[s] + offset);
        break;
      }
      offset -= w;
    }
  }
  std::string offsets_str;
  for (size_t k = 0; k < m; ++k) {
    offsets_str += (k ? "," : "") + std::to_string(spec.hash_offsets[k]);
  }
  spec.detail = StrCat("partition key offsets [", offsets_str, "]");
  return spec;
}

bool PunctuationAligner::Arrive(size_t shard, const Punctuation& p,
                                int64_t ts, size_t expected,
                                int64_t* forward_ts) {
  if (expected != PartitionSpec::kAllShards) {
    // One voter: its vote is the whole round, anyone else's is moot.
    if (shard != expected) return false;
    *forward_ts = ts;
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[p];
  if (entry.seen.empty()) entry.seen.assign(num_shards_, false);
  if (!entry.seen[shard]) {
    entry.seen[shard] = true;
    ++entry.seen_count;
  }
  entry.max_ts = std::max(entry.max_ts, ts);
  pending_high_water_ = std::max(pending_high_water_, entries_.size());
  if (entry.seen_count < num_shards_) return false;
  *forward_ts = entry.max_ts;
  entries_.erase(p);
  return true;
}

size_t PunctuationAligner::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PunctuationAligner::pending_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_high_water_;
}

}  // namespace punctsafe
