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

struct UnionFind {
  explicit UnionFind(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i) parent[i] = i;
  }
  size_t Find(size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent[Find(a)] = Find(b); }
  std::vector<size_t> parent;
};

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

  // Composite layouts, matching MJoinOperator: an input's row is its
  // covered streams' schemas concatenated in ascending stream order.
  std::vector<size_t> input_of(query.num_streams(), kOutside);
  std::vector<size_t> base(m, 0);  // node-id base per input
  size_t num_nodes = 0;
  std::vector<std::vector<std::pair<size_t, size_t>>> stream_base(m);
  for (size_t k = 0; k < m; ++k) {
    base[k] = num_nodes;
    size_t offset = 0;
    for (size_t s : inputs[k].streams) {
      input_of[s] = k;
      stream_base[k].push_back({s, offset});
      offset += query.schema(s).num_attributes();
    }
    num_nodes += offset;
  }
  auto composite_offset = [&](size_t input, size_t stream, size_t attr) {
    for (const auto& [s, start] : stream_base[input]) {
      if (s == stream) return start + attr;
    }
    return kOutside;
  };

  // Localize the cross-input equi-join predicates and union their
  // endpoint attributes into equivalence classes.
  struct LocalPred {
    size_t node_a, node_b;
  };
  std::vector<LocalPred> preds;
  UnionFind uf(num_nodes);
  for (const ResolvedPredicate& p : query.predicates()) {
    size_t ia = input_of[p.left_stream];
    size_t ib = input_of[p.right_stream];
    if (ia == kOutside || ib == kOutside || ia == ib) continue;
    size_t na = base[ia] + composite_offset(ia, p.left_stream, p.left_attr);
    size_t nb = base[ib] + composite_offset(ib, p.right_stream, p.right_attr);
    preds.push_back({na, nb});
    uf.Union(na, nb);
  }
  if (preds.empty()) {
    spec.detail = "not partitionable: no cross-input equi-join predicate";
    return spec;
  }

  // Candidate classes: one representative attribute in every input.
  // Iterating node ids ascending makes the choice deterministic.
  std::vector<size_t> chosen_offsets;
  size_t chosen_root = kOutside;
  for (size_t root = 0; root < num_nodes && chosen_root == kOutside; ++root) {
    if (uf.Find(root) != root) continue;
    std::vector<size_t> offsets(m, kOutside);
    size_t covered = 0;
    for (size_t node = 0; node < num_nodes; ++node) {
      if (uf.Find(node) != root) continue;
      // Node -> (input, offset); inputs are contiguous id ranges.
      size_t k = m - 1;
      while (base[k] > node) --k;
      if (offsets[k] == kOutside) {
        offsets[k] = node - base[k];
        ++covered;
      }
    }
    if (covered != m) continue;
    // With three or more inputs, exactness additionally needs every
    // predicate inside the class (see partition_router.h); a binary
    // operator always verifies all its predicates on expansion, so
    // any covering class is exact there.
    if (m > 2) {
      bool all_in_class = std::all_of(
          preds.begin(), preds.end(), [&](const LocalPred& p) {
            return uf.Find(p.node_a) == root && uf.Find(p.node_b) == root;
          });
      if (!all_in_class) continue;
    }
    chosen_root = root;
    chosen_offsets = std::move(offsets);
  }

  if (chosen_root == kOutside) {
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
