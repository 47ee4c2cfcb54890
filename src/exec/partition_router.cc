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

}  // namespace

size_t PartitionSpec::ShardOf(size_t input, const Tuple& tuple,
                              size_t num_shards) const {
  if (num_shards <= 1) return 0;
  return Mix64(tuple.at(hash_offsets[input]).Hash()) % num_shards;
}

void ScatterBatch(const PartitionSpec& spec, size_t input,
                  const TupleBatch& batch, size_t num_shards,
                  std::vector<TupleBatch>* out) {
  if (out->size() < num_shards) out->resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) (*out)[s].Clear();
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    const Tuple& t = batch.tuple(i);
    (*out)[spec.ShardOf(input, t, num_shards)].Append(t, batch.timestamp(i));
  }
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
  std::string offsets_str;
  for (size_t k = 0; k < m; ++k) {
    offsets_str += (k ? "," : "") + std::to_string(spec.hash_offsets[k]);
  }
  spec.detail = StrCat("partition key offsets [", offsets_str, "]");
  return spec;
}

bool PunctuationAligner::Arrive(size_t shard, const Punctuation& p,
                                int64_t ts, int64_t* forward_ts) {
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
