#include "exec/mjoin.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "exec/simd.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

Result<std::unique_ptr<MJoinOperator>> MJoinOperator::Create(
    const ContinuousJoinQuery& query, std::vector<LocalInput> inputs,
    MJoinConfig config) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("an MJoin needs at least two inputs");
  }
  if (inputs.size() > kMaxInputs) {
    return Status::InvalidArgument("an MJoin takes at most " +
                                   std::to_string(kMaxInputs) + " inputs");
  }
  std::vector<bool> covered(query.num_streams(), false);
  for (const LocalInput& in : inputs) {
    if (in.streams.empty()) {
      return Status::InvalidArgument("an MJoin input must cover >= 1 stream");
    }
    if (!std::is_sorted(in.streams.begin(), in.streams.end())) {
      return Status::InvalidArgument("input stream covers must be sorted");
    }
    for (size_t s : in.streams) {
      if (s >= query.num_streams() || covered[s]) {
        return Status::InvalidArgument(
            "input covers must be disjoint subsets of the query streams");
      }
      covered[s] = true;
    }
  }

  // Operator-local edges, per-input purgeability and the input this
  // operator exposes to a parent (covered streams ascending).
  OperatorCheck check = CheckOperator(query, inputs);

  auto op = std::unique_ptr<MJoinOperator>(new MJoinOperator());
  op->config_ = config;
  op->inputs_ = std::move(inputs);
  op->output_ = std::move(check.output);
  op->input_purgeable_ = std::move(check.input_purgeable);
  const size_t m = op->inputs_.size();

  // Composite layouts: per input, (stream, attr) -> offset.
  op->widths_.resize(m);
  op->offset_keys_.resize(m);
  op->offset_values_.resize(m);
  for (size_t k = 0; k < m; ++k) {
    size_t offset = 0;
    for (size_t s : op->inputs_[k].streams) {
      for (size_t a = 0; a < query.schema(s).num_attributes(); ++a) {
        op->offset_keys_[k].push_back({s, a});
        op->offset_values_[k].push_back(offset + a);
      }
      offset += query.schema(s).num_attributes();
    }
    op->widths_[k] = offset;
  }

  // Output layout: covered streams ascending; copy plan per stream.
  size_t out = 0;
  for (size_t s : op->output_.streams) {
    // Locate the input covering s and the segment start within it.
    for (size_t k = 0; k < m; ++k) {
      size_t from = 0;
      bool found = false;
      for (size_t cs : op->inputs_[k].streams) {
        if (cs == s) {
          found = true;
          break;
        }
        from += query.schema(cs).num_attributes();
      }
      if (found) {
        size_t len = query.schema(s).num_attributes();
        op->copy_plan_.push_back({k, from, len, out});
        out += len;
        break;
      }
    }
  }
  op->output_width_ = out;

  // Localized predicates.
  constexpr size_t kOutside = static_cast<size_t>(-1);
  std::vector<size_t> input_of(query.num_streams(), kOutside);
  for (size_t k = 0; k < m; ++k) {
    for (size_t s : op->inputs_[k].streams) input_of[s] = k;
  }
  for (const ResolvedPredicate& p : query.predicates()) {
    size_t ia = input_of[p.left_stream];
    size_t ib = input_of[p.right_stream];
    if (ia == kOutside || ib == kOutside || ia == ib) continue;
    LocalPredicate lp;
    lp.input_a = ia;
    lp.offset_a = op->OffsetOf(ia, p.left_stream, p.left_attr);
    lp.input_b = ib;
    lp.offset_b = op->OffsetOf(ib, p.right_stream, p.right_attr);
    op->predicates_.push_back(lp);
  }
  op->predicates_of_input_.resize(m);
  for (size_t i = 0; i < op->predicates_.size(); ++i) {
    op->predicates_of_input_[op->predicates_[i].input_a].push_back(i);
    op->predicates_of_input_[op->predicates_[i].input_b].push_back(i);
  }

  // Expansion orders, one per arrival input: BFS over the predicate
  // graph from the input, then any unreached inputs (cross-product
  // components). Depends only on the graph, so computed once here.
  op->expand_orders_.resize(m);
  for (size_t start = 0; start < m; ++start) {
    std::vector<size_t>& order = op->expand_orders_[start];
    std::vector<bool> seen(m, false);
    std::deque<size_t> queue{start};
    seen[start] = true;
    while (!queue.empty()) {
      size_t u = queue.front();
      queue.pop_front();
      order.push_back(u);
      for (size_t pi : op->predicates_of_input_[u]) {
        const LocalPredicate& p = op->predicates_[pi];
        size_t v = (p.input_a == u) ? p.input_b : p.input_a;
        if (!seen[v]) {
          seen[v] = true;
          queue.push_back(v);
        }
      }
    }
    for (size_t k = 0; k < m; ++k) {
      if (!seen[k]) order.push_back(k);
    }
  }

  // Join-attribute classes; their members are the join offsets.
  op->join_offsets_.resize(m);
  op->class_of_.resize(m);
  for (size_t k = 0; k < m; ++k) op->class_of_[k].resize(op->widths_[k]);
  for (const std::vector<JoinAttr>& members :
       JoinAttrClasses(query, op->inputs_)) {
    std::vector<ClassMember>& cls = op->class_members_.emplace_back();
    for (const JoinAttr& a : members) {
      cls.push_back({a.input, {a.offset}});
      op->class_of_[a.input][a.offset] = op->class_members_.size() - 1;
      op->join_offsets_[a.input].push_back(a.offset);
    }
  }

  // Stores, indexed on the join offsets.
  for (size_t k = 0; k < m; ++k) {
    std::sort(op->join_offsets_[k].begin(), op->join_offsets_[k].end());
    op->states_.push_back(std::make_unique<TupleStore>(op->join_offsets_[k]));
    op->punct_stores_.push_back(
        std::make_unique<PunctuationStore>(config.punctuation_lifespan));
  }

  // Scheme signatures per input (composite constrained offsets).
  op->scheme_signatures_.resize(m);
  for (size_t k = 0; k < m; ++k) {
    for (const AvailableScheme& scheme : op->inputs_[k].schemes) {
      std::vector<size_t> signature;
      for (size_t attr : scheme.attrs) {
        signature.push_back(op->OffsetOf(k, scheme.origin_stream, attr));
      }
      std::sort(signature.begin(), signature.end());
      op->scheme_signatures_[k].push_back(std::move(signature));
    }
  }

  // All generalized edges from the operator-local graph, localized to
  // composite offsets; removability checks run a fixpoint over them.
  for (const LocalGpgEdge& e : check.edges) {
    RuntimeEdge edge;
    edge.target_input = e.target_input;
    edge.source_inputs = e.source_inputs;
    for (const LocalGpgEdge::Binding& b : e.bindings) {
      edge.target_offsets.push_back(op->OffsetOf(
          e.target_input, e.scheme.origin_stream, b.target_attr));
      edge.sources.push_back(
          {b.source_input,
           op->OffsetOf(b.source_input, b.source_stream, b.source_attr)});
    }
    for (size_t s : edge.source_inputs) edge.source_mask |= uint64_t{1} << s;
    op->runtime_edges_.push_back(std::move(edge));
  }

  op->queues_.resize(m);
  return op;
}

size_t MJoinOperator::OffsetOf(size_t input, size_t stream,
                               size_t attr) const {
  for (size_t i = 0; i < offset_keys_[input].size(); ++i) {
    if (offset_keys_[input][i] == std::make_pair(stream, attr)) {
      return offset_values_[input][i];
    }
  }
  PUNCTSAFE_LOG(Fatal) << "attribute (" << stream << "," << attr
                       << ") not covered by input " << input;
  return 0;
}

void MJoinOperator::PushTuple(size_t input, const Tuple& tuple, int64_t ts) {
  // One arrival path: the tuple enters as a one-row view batch (no
  // copy; the store copies what it keeps). The view is read only
  // during this call; the next PushTuple rebinds the slot.
  arrival_batch_.Clear();
  arrival_batch_.AppendView(tuple.begin(), tuple.size(), ts);
  PushBatch(input, arrival_batch_);
}

void MJoinOperator::PushBatch(size_t input, TupleBatch& batch) {
  PUNCTSAFE_CHECK(input < num_inputs());
  if (batch.empty()) return;
  for (size_t i = 0; i < batch.size(); ++i) {
    PUNCTSAFE_CHECK(batch.tuple(i).size() == widths_[input])
        << "tuple arity " << batch.tuple(i).size() << " != input width "
        << widths_[input];
  }
  if (obs_ != nullptr) {
    // One watermark fold per batch (NoteTupleTs is an atomic max, so
    // folding the batch max is equivalent to per-row notes).
    obs_->NoteTupleTs(batch.max_timestamp());
  }

  batch.SelectAll();
  // Punctuation-exclusion filtering over the selection vector,
  // amortized to the batch boundary: the store cannot change
  // mid-batch, so an empty store skips the whole scan.
  if (punct_stores_[input]->size() > 0) {
    std::vector<uint32_t>& sel = *batch.mutable_selection();
    size_t keep = 0;
    for (uint32_t row : sel) {
      if (punct_stores_[input]->ExcludesTuple(batch.tuple(row),
                                              batch.timestamp(row))) {
        states_[input]->CountDroppedArrival();
      } else {
        sel[keep++] = row;
      }
    }
    sel.resize(keep);
  }
  if (batch.selection().empty()) return;

  // Result production, batch-at-a-time: the whole selection becomes
  // the initial frontier and every expansion hop runs over it at once
  // — one bucket resolution per same-key run *across* the batch, SIMD
  // equal-hash prefilter on the verification predicates, one staged
  // output batch per push (docs/PERF.md, "Batched expansion").
  // Frontier rows stay source-row-major through every hop, so the
  // emission sequence equals pushing the rows one at a time.
  const size_t scratch_before = ExpandScratchCapacity();
  const std::vector<size_t>& order = expand_orders_[input];
  BatchFrontier* cur = &expand_bufs_[0];
  BatchFrontier* nxt = &expand_bufs_[1];
  cur->Reset(num_inputs());
  cur->SeedFromBatch(batch, input);
  for (size_t idx = 1; idx < order.size() && !cur->empty(); ++idx) {
    Expand(order[idx], *cur, nxt);
    std::swap(cur, nxt);
  }
  EmitFrontier(*cur, batch);

  // Eager removability amortized the same way: with no punctuation
  // stored anywhere the chained purge plan cannot close any input
  // (CoversSubspace over an empty store is false), so the whole
  // fixpoint is skipped. Probing never touches states_[input] and
  // expansion never walks through the arrival input, so running all
  // probes before any insert is result-identical to the interleaved
  // per-row order.
  // Rows stored unchecked are queued for the next purge pass.
  const bool check_removable =
      config_.purge_policy == PurgePolicy::kEager &&
      input_purgeable_[input] && TotalLivePunctuations() > 0;
  if (check_removable) {
    for (uint32_t row : batch.selection()) {
      const Check outcome =
          Removable(input, batch.tuple(row), batch.timestamp(row));
      if (outcome == Check::kRemovable) {
        states_[input]->CountDroppedArrival();
      } else {
        Park(input, states_[input]->Insert(batch.tuple(row)), outcome);
      }
    }
  } else {
    const size_t first = states_[input]->num_slots();
    QueueUnchecked(input, first, states_[input]->InsertBatch(batch));
  }
  if (ExpandScratchCapacity() > scratch_before) {
    states_[input]->CountExpandAllocs(1);
  }
}

void MJoinOperator::Expand(size_t v, const BatchFrontier& in,
                           BatchFrontier* out) const {
  out->Reset(in.width());
  if (in.empty()) return;
  // Predicates between v and covered inputs, split into one probe
  // predicate (index lookup) and verification predicates. Which
  // inputs are covered is identical for every row of `in` (expansion
  // fills inputs uniformly), so split once per call, not per row.
  long probe_pred = -1;
  verify_scratch_.clear();
  for (size_t pi : predicates_of_input_[v]) {
    const LocalPredicate& p = predicates_[pi];
    size_t other = (p.input_a == v) ? p.input_b : p.input_a;
    if (in.cell(0, other) == nullptr) continue;
    if (probe_pred < 0) {
      probe_pred = static_cast<long>(pi);
    } else {
      verify_scratch_.push_back(pi);
    }
  }
  const size_t rows = in.size();
  if (probe_pred >= 0) {
    const LocalPredicate& p = predicates_[probe_pred];
    const size_t v_off = (p.input_a == v) ? p.offset_a : p.offset_b;
    const size_t o_in = (p.input_a == v) ? p.input_b : p.input_a;
    const size_t o_off = (p.input_a == v) ? p.offset_b : p.offset_a;
    const TupleStore& store = *states_[v];
    // One gather pass builds the probe-key hash column over the whole
    // frontier (cached Value hashes, no re-hashing); SIMD run
    // detection then finds same-key runs spanning source rows —
    // consecutive rows frequently carry the same probe key (all
    // children of one parent row do, and so do key-clustered batch
    // rows), so the bucket is resolved and its live members filtered
    // once per run, not per row. The bucket pointer stays valid across
    // the run because only FindBucket can trigger index compaction —
    // ForBucketLive never mutates the index.
    probe_hashes_.clear();
    for (size_t r = 0; r < rows; ++r) {
      probe_hashes_.push_back(
          static_cast<uint64_t>(in.cell(r, o_in)->HashAt(o_off)));
    }
    size_t k = 0;
    while (k < rows) {
      const Value& key = in.cell(k, o_in)->at(o_off);
      // Exact key equality guards hash collisions inside the hash run.
      const size_t hash_run =
          simd::HashRunLength(probe_hashes_.data() + k, rows - k);
      size_t same_key = 1;
      while (same_key < hash_run &&
             in.cell(k + same_key, o_in)->at(o_off) == key) {
        ++same_key;
      }
      const TupleStore::Bucket* bucket = store.FindBucket(v_off, key);
      store.NoteProbeRun(same_key);
      run_cands_.clear();
      store.ForBucketLive(bucket, [&](size_t, const Tuple& candidate) {
        run_cands_.push_back(&candidate);
      });
      if (run_cands_.empty()) {
        k += same_key;
        continue;
      }
      if (verify_scratch_.empty()) {
        // Every (row, candidate) pair of the run is a result.
        // Row-major product append keeps the frontier in
        // per-source-row DFS order — the emission-order invariant —
        // while writing each column as one segment.
        out->AppendProduct(in, k, same_key, v, run_cands_.data(),
                           run_cands_.size());
      } else {
        pair_rows_.clear();
        pair_cands_.clear();
        for (size_t r = k; r < k + same_key; ++r) {
          for (const Tuple* cand : run_cands_) {
            pair_rows_.push_back(static_cast<uint32_t>(r));
            pair_cands_.push_back(cand);
          }
        }
        VerifyPairs(v, in);
        for (size_t i = 0; i < pair_rows_.size(); ++i) {
          out->AppendExtended(in, pair_rows_[i], v, pair_cands_[i]);
        }
      }
      k += same_key;
    }
  } else {
    // No predicate to covered inputs: cross product of the whole
    // frontier with v's live state (one state walk, not per row). No
    // index probe is counted: nothing is probed.
    run_cands_.clear();
    states_[v]->ForEachLive([&](size_t, const Tuple& candidate) {
      run_cands_.push_back(&candidate);
    });
    if (run_cands_.empty()) return;
    if (verify_scratch_.empty()) {
      out->AppendProduct(in, 0, rows, v, run_cands_.data(),
                         run_cands_.size());
      return;
    }
    pair_rows_.clear();
    pair_cands_.clear();
    for (size_t r = 0; r < rows; ++r) {
      for (const Tuple* cand : run_cands_) {
        pair_rows_.push_back(static_cast<uint32_t>(r));
        pair_cands_.push_back(cand);
      }
    }
    VerifyPairs(v, in);
    for (size_t i = 0; i < pair_rows_.size(); ++i) {
      out->AppendExtended(in, pair_rows_[i], v, pair_cands_[i]);
    }
  }
}

void MJoinOperator::VerifyPairs(size_t v, const BatchFrontier& in) const {
  size_t n = pair_rows_.size();
  for (size_t pi : verify_scratch_) {
    if (n == 0) break;
    const LocalPredicate& vp = predicates_[pi];
    const size_t vv_off = (vp.input_a == v) ? vp.offset_a : vp.offset_b;
    const size_t vo_in = (vp.input_a == v) ? vp.input_b : vp.input_a;
    const size_t vo_off = (vp.input_a == v) ? vp.offset_b : vp.offset_a;
    // Gather both sides' cached hashes into contiguous columns, SIMD
    // prefilter, exact Value equality only on the survivors (a hash
    // collision survives the filter and dies here — false positives,
    // never false negatives).
    verify_hashes_a_.clear();
    verify_hashes_b_.clear();
    for (size_t i = 0; i < n; ++i) {
      verify_hashes_a_.push_back(
          static_cast<uint64_t>(pair_cands_[i]->HashAt(vv_off)));
      verify_hashes_b_.push_back(static_cast<uint64_t>(
          in.cell(pair_rows_[i], vo_in)->HashAt(vo_off)));
    }
    filter_scratch_.resize(n);
    const size_t maybe =
        simd::FilterEqualHashes(verify_hashes_a_.data(),
                                verify_hashes_b_.data(), n,
                                filter_scratch_.data());
    // In-place stable compaction (filter indices ascend, so the write
    // cursor never passes a pending read), preserving pair order — and
    // with it emission order.
    size_t kept = 0;
    for (size_t j = 0; j < maybe; ++j) {
      const uint32_t i = filter_scratch_[j];
      if (pair_cands_[i]->at(vv_off) ==
          in.cell(pair_rows_[i], vo_in)->at(vo_off)) {
        pair_rows_[kept] = pair_rows_[i];
        pair_cands_[kept] = pair_cands_[i];
        ++kept;
      }
    }
    n = kept;
  }
  pair_rows_.resize(n);
  pair_cands_.resize(n);
}

void MJoinOperator::EmitFrontier(const BatchFrontier& frontier,
                                 const TupleBatch& src) {
  const size_t n = frontier.size();
  if (n == 0) return;
  // Stage every output row into one flat Value area via the copy plan.
  // ALL rows are built before any view Tuple points into out_values_ —
  // the vector must not grow once views exist. Grow-only warm buffer
  // (the TupleBatch pooling discipline): rows are overwritten by
  // copy-assign, so slots past `needed` are just retained scratch —
  // a clear+resize would default-construct and destroy every slot on
  // every emit.
  const size_t needed = n * output_width_;
  if (out_values_.size() < needed) out_values_.resize(needed);
  // Segment-major staging: one frontier column is walked sequentially
  // per copy segment (its base pointer and the segment bounds stay in
  // registers across the row loop), instead of re-resolving every
  // input's cell for every row.
  for (const CopySegment& seg : copy_plan_) {
    const Tuple* const* col = frontier.column(seg.input);
    Value* out = out_values_.data() + seg.to;
    for (size_t r = 0; r < n; ++r, out += output_width_) {
      const Tuple* part = col[r];
      for (size_t i = 0; i < seg.len; ++i) {
        out[i] = part->at(seg.from + i);
      }
    }
  }
  // View tuples only (never owning rows) through out_batch_, so its
  // pooled slots stay capacity-free; consumers copy what they keep
  // (EmitBatch contract).
  out_batch_.Clear();
  for (size_t r = 0; r < n; ++r) {
    out_batch_.AppendView(out_values_.data() + r * output_width_,
                          output_width_,
                          src.timestamp(frontier.src_row(r)));
  }
  EmitBatch(out_batch_);
  out_batch_.Clear();
}

size_t MJoinOperator::ExpandScratchCapacity() const {
  size_t total =
      expand_bufs_[0].CapacitySum() + expand_bufs_[1].CapacitySum();
  total += verify_scratch_.capacity() + probe_hashes_.capacity() +
           run_cands_.capacity() + pair_rows_.capacity() +
           pair_cands_.capacity() + verify_hashes_a_.capacity() +
           verify_hashes_b_.capacity() + filter_scratch_.capacity();
  total += combo_values_.capacity() + combo_hashes_.capacity() +
           combo_order_.capacity() + stalled_.capacity() +
           wait_keys_.capacity() + sweep_scratch_.capacity();
  total += out_values_.capacity() + out_batch_.TupleCapacity();
  return total;
}

size_t MJoinOperator::WaitIndex::Mix(const WaitKey& key) {
  uint64_t h = key.hash ^ ((uint64_t{key.owner} << 32 | key.signature) *
                           0x9E3779B97F4A7C15ULL);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 29;
  return static_cast<size_t>(h);
}

size_t MJoinOperator::WaitIndex::Find(const WaitKey& key) const {
  if (live_ == 0) return static_cast<size_t>(-1);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.state == SlotState::kFree) return static_cast<size_t>(-1);
    if (slot.state == SlotState::kUsed && slot.key == key) return i;
  }
}

void MJoinOperator::WaitIndex::File(const WaitKey& key,
                                    const Waiter& waiter) {
  if (2 * (used_ + 1) > slots_.size()) Rehash(live_ + 1);
  const size_t mask = slots_.size() - 1;
  size_t i = Mix(key) & mask;
  size_t reuse = static_cast<size_t>(-1);
  for (;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.state == SlotState::kUsed && slot.key == key) break;
    if (slot.state == SlotState::kErased && reuse == static_cast<size_t>(-1)) {
      reuse = i;
    }
    if (slot.state == SlotState::kFree) {
      if (reuse != static_cast<size_t>(-1)) {
        i = reuse;
      } else {
        ++used_;
      }
      slots_[i] = {key, kNil, SlotState::kUsed};
      ++live_;
      break;
    }
  }
  uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
  } else {
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({});
  }
  nodes_[node] = {waiter, slots_[i].head};
  slots_[i].head = node;
  ++entries_;
}

template <typename Fn>
void MJoinOperator::WaitIndex::TakeSlot(size_t i, Fn&& fn) {
  Slot& slot = slots_[i];
  for (uint32_t node = slot.head; node != kNil;) {
    const uint32_t next = nodes_[node].next;
    fn(nodes_[node].waiter);
    nodes_[node].next = free_;
    free_ = node;
    --entries_;
    node = next;
  }
  slot.head = kNil;
  slot.state = SlotState::kErased;
  --live_;
}

template <typename Fn>
void MJoinOperator::WaitIndex::Take(const WaitKey& key, Fn&& fn) {
  const size_t i = Find(key);
  if (i != static_cast<size_t>(-1)) TakeSlot(i, fn);
}

template <typename Fn>
void MJoinOperator::WaitIndex::TakePunctuationKeys(uint32_t owner, Fn&& fn) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.state == SlotState::kUsed && slot.key.owner == owner &&
        slot.key.signature != kPartnerKey) {
      TakeSlot(i, fn);
    }
  }
}

template <typename Keep>
size_t MJoinOperator::WaitIndex::Compact(Keep&& keep) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.state != SlotState::kUsed) continue;
    uint32_t kept = kNil;
    for (uint32_t node = slot.head; node != kNil;) {
      const uint32_t next = nodes_[node].next;
      if (keep(nodes_[node].waiter)) {
        nodes_[node].next = kept;
        kept = node;
      } else {
        nodes_[node].next = free_;
        free_ = node;
        --entries_;
      }
      node = next;
    }
    slot.head = kept;
    if (kept == kNil) {
      slot.state = SlotState::kErased;
      --live_;
    }
  }
  Rehash(live_);
  return entries_;
}

void MJoinOperator::WaitIndex::Rehash(size_t live) {
  size_t capacity = 16;
  while (capacity < 4 * live) capacity *= 2;
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  used_ = live_;
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.state != SlotState::kUsed) continue;
    size_t i = Mix(slot.key) & mask;
    while (slots_[i].state != SlotState::kFree) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

MJoinOperator::Check MJoinOperator::Removable(size_t input,
                                              const Tuple& tuple,
                                              int64_t now) {
  wait_keys_.clear();
  if (!input_purgeable_[input]) return Check::kBlocked;
  ++metrics_.removability_checks;
  max_check_ts_ = std::max(max_check_ts_, now);
  const size_t m = num_inputs();
  const uint64_t all = m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;

  BatchFrontier* joinable = &expand_bufs_[0];
  BatchFrontier* scratch = &expand_bufs_[1];
  joinable->Reset(m);
  joinable->SeedSingle(&tuple, input);

  // Fixpoint over the generalized edges: an input counts as closed as
  // soon as ANY edge whose sources are already closed has all its
  // value combinations excluded by the target's punctuation store —
  // the existential reading of the chained purge strategy. The edges
  // are visited cyclically until a full cycle closes nothing, so each
  // edge is tested once per joinable set; stalled_ keeps the
  // ready-but-open edges seen since the last closure, i.e. those of the
  // final joinable set.
  uint64_t covered = uint64_t{1} << input;
  const size_t num_edges = runtime_edges_.size();
  stalled_.clear();
  for (size_t e = 0, idle = 0; idle < num_edges && covered != all;
       e = e + 1 == num_edges ? 0 : e + 1) {
    ++idle;
    const RuntimeEdge& edge = runtime_edges_[e];
    const uint64_t target = uint64_t{1} << edge.target_input;
    if ((covered & target) != 0 || (edge.source_mask & ~covered) != 0) {
      continue;
    }
    size_t blocking_row = 0;
    if (!CombosExcluded(edge, *joinable, now, &blocking_row)) {
      stalled_.push_back({e, blocking_row});
      continue;  // maybe another edge closes it
    }
    // Extend T_t[Υ] through the newly closed input.
    Expand(edge.target_input, *joinable, scratch);
    std::swap(joinable, scratch);
    if (joinable->size() > kMaxJoinableSet) {
      if (!warned_joinable_cap_) {
        warned_joinable_cap_ = true;
        PUNCTSAFE_LOG(Warning)
            << "removability check aborted: joinable set exceeded "
            << kMaxJoinableSet << " (such tuples are re-checked on every "
            << "purge pass; logged once per operator)";
      }
      return Check::kAborted;  // conservative
    }
    covered |= target;
    idle = 0;
    stalled_.clear();
  }
  if (covered == all) return Check::kRemovable;
  CollectWaitKeys(input, covered, *joinable);
  return Check::kBlocked;
}

bool MJoinOperator::CombosExcluded(const RuntimeEdge& edge,
                                   const BatchFrontier& joinable, int64_t now,
                                   size_t* blocking_row) {
  const size_t rows = joinable.size();
  if (rows == 0) return true;  // nothing joins: vacuously closed
  const PunctuationStore& store = *punct_stores_[edge.target_input];
  if (store.size() == 0) {
    *blocking_row = 0;
    return false;
  }
  // The distinct value combinations the target's punctuations must
  // exclude: δ_PA(T_t[Υ]) of the generalized chained purge. Each row's
  // combination is a span of pointers into the joinable tuples; rows
  // are ordered by the combination's hash so duplicates sit together
  // and each distinct combination is probed once.
  const size_t width = edge.sources.size();
  combo_values_.resize(rows * width);
  combo_hashes_.resize(rows);
  combo_order_.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const Value** combo = combo_values_.data() + r * width;
    size_t hash = kTupleHashSeed;
    for (size_t j = 0; j < width; ++j) {
      const RuntimeEdge::Source& src = edge.sources[j];
      combo[j] = &joinable.cell(r, src.input)->at(src.offset);
      hash = TupleHashStep(hash, combo[j]->Hash());
    }
    combo_hashes_[r] = hash;
    combo_order_[r] = static_cast<uint32_t>(r);
  }
  if (rows > 1) {
    std::sort(combo_order_.begin(), combo_order_.end(),
              [&](uint32_t a, uint32_t b) {
                return combo_hashes_[a] != combo_hashes_[b]
                           ? combo_hashes_[a] < combo_hashes_[b]
                           : a < b;
              });
  }
  auto same_combo = [&](size_t a, size_t b) {
    for (size_t j = 0; j < width; ++j) {
      if (!(*combo_values_[a * width + j] == *combo_values_[b * width + j])) {
        return false;
      }
    }
    return true;
  };
  size_t prev = rows;
  for (uint32_t r : combo_order_) {
    if (prev != rows && combo_hashes_[r] == combo_hashes_[prev] &&
        same_combo(r, prev)) {
      continue;
    }
    prev = r;
    if (!store.CoversSubspace(
            edge.target_offsets,
            std::span<const Value* const>(combo_values_.data() + r * width,
                                          width),
            now)) {
      *blocking_row = r;
      return false;
    }
  }
  return true;
}

void MJoinOperator::CollectWaitKeys(size_t input, uint64_t covered,
                                    const BatchFrontier& joinable) {
  const uint64_t partners = covered & ~(uint64_t{1} << input);
  for (const auto& [e, blocking_row] : stalled_) {
    const RuntimeEdge& edge = runtime_edges_[e];
    auto value = [&](size_t row, size_t j) -> const Value& {
      const RuntimeEdge::Source& src = edge.sources[j];
      return joinable.cell(row, src.input)->at(src.offset);
    };
    // A punctuation closing the blocking combination, under each
    // scheme signature of the target it may arrive with: those within
    // the edge's target offsets, the combination projected onto them.
    const auto& signatures = scheme_signatures_[edge.target_input];
    for (size_t sig = 0; sig < signatures.size(); ++sig) {
      size_t hash = kTupleHashSeed;
      bool within = true;
      for (size_t offset : signatures[sig]) {
        auto it = std::find(edge.target_offsets.begin(),
                            edge.target_offsets.end(), offset);
        if (it == edge.target_offsets.end()) {
          within = false;
          break;
        }
        hash = TupleHashStep(
            hash, value(blocking_row, it - edge.target_offsets.begin()).Hash());
      }
      if (within) {
        wait_keys_.push_back({static_cast<uint32_t>(edge.target_input),
                              static_cast<uint32_t>(sig), hash});
      }
    }
    // The purge of any partner tuple in a row carrying the blocking
    // combination: once all such rows are gone, so is the combination.
    if (partners == 0) continue;
    for (size_t r = 0; r < joinable.size(); ++r) {
      bool same = true;
      for (size_t j = 0; same && j < edge.sources.size(); ++j) {
        same = value(r, j) == value(blocking_row, j);
      }
      if (!same) continue;
      for (uint64_t left = partners; left != 0; left &= left - 1) {
        const size_t k = static_cast<size_t>(std::countr_zero(left));
        wait_keys_.push_back({static_cast<uint32_t>(k), kPartnerKey,
                              PartnerHash(k, *joinable.cell(r, k))});
      }
    }
  }
  std::sort(wait_keys_.begin(), wait_keys_.end());
  wait_keys_.erase(std::unique(wait_keys_.begin(), wait_keys_.end()),
                   wait_keys_.end());
}

uint64_t MJoinOperator::JoinHash(size_t input, const Tuple& tuple) const {
  size_t hash = kTupleHashSeed;
  for (size_t offset : join_offsets_[input]) {
    hash = TupleHashStep(hash, tuple.HashAt(offset));
  }
  return hash;
}

bool MJoinOperator::SameJoinValues(size_t input, const Tuple& a,
                                   const Tuple& b) const {
  for (size_t offset : join_offsets_[input]) {
    if (!(a.at(offset) == b.at(offset))) return false;
  }
  return true;
}

uint64_t MJoinOperator::PartnerHash(size_t input, const Tuple& tuple) const {
  const std::vector<size_t>& offsets = join_offsets_[input];
  return offsets.empty() ? tuple.Hash() : tuple.HashAt(offsets.front());
}

void MJoinOperator::QueueUnchecked(size_t input, size_t first, size_t count) {
  if (full_sweep_reference_ || !input_purgeable_[input]) return;
  for (size_t slot = first; slot < first + count; ++slot) {
    queues_[input].pending.push_back(slot);
  }
}

void MJoinOperator::Park(size_t input, size_t slot, Check outcome) {
  if (full_sweep_reference_ || !input_purgeable_[input]) return;
  PurgeQueues& queues = queues_[input];
  std::vector<uint32_t>& gens = queues.park_gen;
  if (gens.size() <= slot) gens.resize(states_[input]->num_slots());
  const uint32_t gen = ++gens[slot];
  if (outcome == Check::kAborted) {
    queues.recheck.push_back(slot);
    return;
  }
  // Local reachability from a purgeable input guarantees a ready edge
  // out of any closed set short of all inputs, so a stall has a key.
  PUNCTSAFE_DCHECK(!wait_keys_.empty());
  const Waiter waiter{slot, static_cast<uint32_t>(input), gen};
  for (const WaitKey& key : wait_keys_) waits_.File(key, waiter);
  MaybeCompactWaits();
}

bool MJoinOperator::Current(const Waiter& waiter) const {
  return states_[waiter.input]->IsLive(waiter.slot) &&
         queues_[waiter.input].park_gen[waiter.slot] == waiter.gen;
}

void MJoinOperator::Wake(const Waiter& waiter) {
  if (Current(waiter)) queues_[waiter.input].pending.push_back(waiter.slot);
}

void MJoinOperator::WakeKey(const WaitKey& key) {
  waits_.Take(key, [&](const Waiter& waiter) { Wake(waiter); });
}

size_t MJoinOperator::SignatureOf(size_t input,
                                  const Punctuation& punctuation) const {
  size_t constrained = 0;
  for (const Pattern& pattern : punctuation.patterns()) {
    constrained += pattern.is_wildcard() ? 0 : 1;
  }
  const auto& signatures = scheme_signatures_[input];
  for (size_t sig = 0; sig < signatures.size(); ++sig) {
    if (signatures[sig].size() == constrained &&
        std::none_of(signatures[sig].begin(), signatures[sig].end(),
                     [&](size_t a) {
                       return punctuation.pattern(a).is_wildcard();
                     })) {
      return sig;
    }
  }
  return static_cast<size_t>(-1);
}

void MJoinOperator::WakeOnPunctuation(size_t input,
                                      const Punctuation& punctuation,
                                      size_t sig) {
  if (sig == static_cast<size_t>(-1)) {
    // Not an instance of a declared scheme: it may still close keys
    // filed under any signature containing its constrained attributes,
    // so wake every punctuation waiter on this input.
    waits_.TakePunctuationKeys(static_cast<uint32_t>(input),
                               [&](const Waiter& waiter) { Wake(waiter); });
    return;
  }
  size_t hash = kTupleHashSeed;
  for (size_t a : scheme_signatures_[input][sig]) {
    hash = TupleHashStep(hash, punctuation.pattern(a).constant().Hash());
  }
  WakeKey({static_cast<uint32_t>(input), static_cast<uint32_t>(sig), hash});
}

void MJoinOperator::WakeAll() {
  for (size_t k = 0; k < num_inputs(); ++k) {
    if (!input_purgeable_[k]) continue;
    states_[k]->ForEachLive(
        [&](size_t slot, const Tuple&) { queues_[k].pending.push_back(slot); });
  }
}

void MJoinOperator::MaybeCompactWaits() {
  if (waits_.entries() < std::max(kWaitCompactMin, wait_compact_at_)) return;
  // Entries of purged tuples and of superseded parks pile up under keys
  // that never fire; drop them once they could outnumber the current
  // ones (amortized O(1) per park).
  wait_compact_at_ =
      2 * waits_.Compact([&](const Waiter& w) { return Current(w); });
}

void MJoinOperator::PushPunctuation(size_t input,
                                    const Punctuation& punctuation,
                                    int64_t ts) {
  PUNCTSAFE_CHECK(input < num_inputs());
  PUNCTSAFE_CHECK(punctuation.arity() == widths_[input])
      << "punctuation arity " << punctuation.arity() << " != input width "
      << widths_[input];
  ++metrics_.punctuations_received;
  if (obs_ != nullptr) obs_->RecordPunctuation(ts);

  if (config_.punctuation_lifespan.has_value()) {
    for (auto& store : punct_stores_) {
      metrics_.punctuations_expired += store->ExpireBefore(ts);
    }
  }

  if (punct_stores_[input]->Add(punctuation, ts)) {
    ++metrics_.punctuations_stored;
  }
  NotePunctuationsLive();
  // A duplicate still wakes: it refreshes the arrival a lifespan counts
  // from.
  const size_t sig = SignatureOf(input, punctuation);
  if (!full_sweep_reference_) {
    WakeOnPunctuation(input, punctuation, sig);
    // It can finish the values it constrains join attributes to; an
    // all-wildcard one covers every value, so it schedules a scan.
    const std::vector<Pattern>& patterns = punctuation.patterns();
    retire_scan_pending_ |=
        std::all_of(patterns.begin(), patterns.end(),
                    [](const Pattern& p) { return p.is_wildcard(); });
    for (size_t offset : join_offsets_[input]) {
      const Pattern& pattern = punctuation.pattern(offset);
      if (!pattern.is_wildcard()) {
        RetireIfFinished(class_of_[input][offset], pattern.constant(), ts);
      }
    }
  }

  // Queue propagation if this instantiates a propagatable scheme and a
  // parent listens (see the file comment).
  if (emitter_ && input_purgeable_[input] && sig != static_cast<size_t>(-1)) {
    bool already = std::any_of(
        pending_propagations_.begin(), pending_propagations_.end(),
        [&](const PendingPropagation& p) {
          return p.input == input && p.punctuation == punctuation;
        });
    if (!already) pending_propagations_.push_back({input, punctuation});
  }

  switch (config_.purge_policy) {
    case PurgePolicy::kEager:
      Sweep(ts);
      break;
    case PurgePolicy::kLazy:
      if (++punctuations_since_sweep_ >= config_.lazy_batch) Sweep(ts);
      break;
    case PurgePolicy::kNone:
      break;
  }
  TryPropagate(ts, uint64_t{1} << input);
}

void MJoinOperator::Sweep(int64_t now) {
  ++metrics_.purge_sweeps;
  punctuations_since_sweep_ = 0;
  const bool observing = obs_ != nullptr;
  const int64_t sweep_start = observing ? obs::NowNs() : 0;
  const uint64_t changed =
      full_sweep_reference_ ? FullSweepPass(now) : WakePass(now);
  TryPropagate(now, changed);
  if (full_sweep_reference_ || retire_scan_pending_) RetireFinishedScan(now);
  // Epoch boundary: no probe results from this sweep are in flight
  // anymore, so purged payloads can be released and all-dead arena
  // blocks reclaimed wholesale.
  for (auto& state : states_) state->AdvanceEpoch();
  if (observing) obs_->RecordSweep(obs::NowNs() - sweep_start);
}

uint64_t MJoinOperator::WakePass(int64_t now) {
  if (config_.punctuation_lifespan.has_value() && now < max_check_ts_) {
    WakeAll();
  }
  uint64_t changed = 0;
  // Aborted checks re-run in the first round and after every round that
  // purged something (the only rounds that can change their outcome).
  bool recheck = true;
  for (;;) {
    if (recheck) {
      for (size_t k = 0; k < num_inputs(); ++k) {
        PurgeQueues& queues = queues_[k];
        queues.pending.insert(queues.pending.end(), queues.recheck.begin(),
                              queues.recheck.end());
        queues.recheck.clear();
      }
    }
    bool checked = false;
    recheck = false;
    for (size_t k = 0; k < num_inputs(); ++k) {
      std::vector<size_t>& pending = queues_[k].pending;
      if (pending.empty()) continue;
      checked = true;
      TupleStore& state = *states_[k];
      // A check reads its tuple only through the join attributes, and
      // nothing it depends on changes before the purges below, so the
      // batch is ordered by join values and each run of equal values is
      // checked once. (Purges below only wake tuples of other inputs,
      // so `pending` stays empty while this batch runs.)
      pass_rows_.clear();
      for (size_t slot : pending) {
        if (state.IsLive(slot)) {
          pass_rows_.push_back({JoinHash(k, state.At(slot)), slot});
        }
      }
      pending.clear();
      std::sort(pass_rows_.begin(), pass_rows_.end());
      pass_rows_.erase(std::unique(pass_rows_.begin(), pass_rows_.end()),
                       pass_rows_.end());
      const size_t scratch_before = ExpandScratchCapacity();
      sweep_scratch_.clear();
      const Tuple* checked_tuple = nullptr;
      uint64_t checked_hash = 0;
      Check outcome = Check::kBlocked;
      for (const auto& [hash, slot] : pass_rows_) {
        const Tuple& tuple = state.At(slot);
        if (checked_tuple == nullptr || hash != checked_hash ||
            !SameJoinValues(k, tuple, *checked_tuple)) {
          outcome = Removable(k, tuple, now);  // refills wait_keys_
          checked_tuple = &tuple;
          checked_hash = hash;
        }
        if (outcome == Check::kRemovable) {
          sweep_scratch_.push_back(slot);
        } else {
          Park(k, slot, outcome);
        }
      }
      if (!sweep_scratch_.empty()) {
        changed |= uint64_t{1} << k;
        recheck = true;
        state.PurgeSlots(sweep_scratch_);
        // Payloads stay addressable until AdvanceEpoch. Equal join
        // values are adjacent (pass_rows_ order): one finish test each.
        const Tuple* prev = nullptr;
        for (size_t slot : sweep_scratch_) {
          const Tuple& tuple = state.At(slot);
          WakeKey({static_cast<uint32_t>(k), kPartnerKey,
                   PartnerHash(k, tuple)});
          if (prev == nullptr || !SameJoinValues(k, tuple, *prev)) {
            for (size_t offset : join_offsets_[k]) {
              RetireIfFinished(class_of_[k][offset], tuple.at(offset), now);
            }
          }
          prev = &tuple;
        }
      }
      if (ExpandScratchCapacity() > scratch_before) {
        state.CountExpandAllocs(1);
      }
    }
    if (!checked) break;
  }
  return changed;
}

uint64_t MJoinOperator::FullSweepPass(int64_t now) {
  uint64_t changed = 0;
  for (size_t k = 0; k < num_inputs(); ++k) {
    if (!input_purgeable_[k]) continue;
    const size_t scratch_before = ExpandScratchCapacity();
    sweep_scratch_.clear();
    states_[k]->ForEachLive([&](size_t slot, const Tuple& t) {
      if (Removable(k, t, now) == Check::kRemovable) {
        sweep_scratch_.push_back(slot);
      }
    });
    if (!sweep_scratch_.empty()) changed |= uint64_t{1} << k;
    states_[k]->PurgeSlots(sweep_scratch_);
    if (ExpandScratchCapacity() > scratch_before) {
      states_[k]->CountExpandAllocs(1);
    }
  }
  return changed;
}

void MJoinOperator::RetireIfFinished(size_t cls, const Value& value,
                                     int64_t now) {
  const std::vector<ClassMember>& members = class_members_[cls];
  for (const ClassMember& member : members) {
    if (!punct_stores_[member.input]->CoversSubspace(
            member.attr, std::span<const Value>(&value, 1), now) ||
        states_[member.input]->HoldsLive(member.attr[0], value)) {
      return;
    }
  }
  for (const ClassMember& member : members) {
    punctuations_purged_ +=
        punct_stores_[member.input]->Retire(member.attr[0], value);
  }
  NotePunctuationsLive();
}

void MJoinOperator::RetireFinishedScan(int64_t now) {
  retire_scan_pending_ = false;
  // Every (class, value) a stored punctuation constrains, collected
  // first: retiring edits the stores being walked.
  std::vector<std::pair<size_t, Value>> candidates;
  for (size_t k = 0; k < num_inputs(); ++k) {
    punct_stores_[k]->ForEachEntry([&](Punctuation p, int64_t) {
      for (size_t offset : join_offsets_[k]) {
        const Pattern& pattern = p.pattern(offset);
        if (!pattern.is_wildcard()) {
          candidates.push_back({class_of_[k][offset], pattern.constant()});
        }
      }
    });
  }
  for (const auto& [cls, value] : candidates) RetireIfFinished(cls, value, now);
}

void MJoinOperator::TryPropagate(int64_t now, uint64_t changed_inputs) {
  // Without an element emitter no parent consumes output punctuations;
  // restored pending entries stay inert.
  if (!emitter_) return;
  for (auto it = pending_propagations_.begin();
       it != pending_propagations_.end();) {
    if ((changed_inputs >> it->input & 1) == 0) {
      ++it;  // nothing changed for this input since the last check
      continue;
    }
    // A pending punctuation is blocked while a stored tuple still
    // matches it; probe the state via an index where possible.
    const Punctuation& p = it->punctuation;
    const TupleStore& store = *states_[it->input];
    bool blocked = false;
    size_t probe_attr = static_cast<size_t>(-1);
    for (size_t a = 0; a < p.arity(); ++a) {
      if (!p.pattern(a).is_wildcard() && store.HasIndexOn(a)) {
        probe_attr = a;
        break;
      }
    }
    if (probe_attr != static_cast<size_t>(-1)) {
      blocked = store.AnyMatch(probe_attr, p.pattern(probe_attr).constant(),
                               [&](const Tuple& t) { return p.Matches(t); });
    } else {
      blocked = store.AnyLive([&](const Tuple& t) { return p.Matches(t); });
    }
    if (blocked) {
      ++it;
      continue;
    }
    Emit(StreamElement::OfPunctuation(RebaseToOutput(it->input, p), now));
    ++metrics_.punctuations_propagated;
    it = pending_propagations_.erase(it);
  }
}

Punctuation MJoinOperator::RebaseToOutput(size_t input,
                                          const Punctuation& p) const {
  std::vector<Pattern> patterns(output_width_);
  for (const CopySegment& seg : copy_plan_) {
    if (seg.input != input) continue;
    for (size_t i = 0; i < seg.len; ++i) {
      patterns[seg.to + i] = p.pattern(seg.from + i);
    }
  }
  return Punctuation(std::move(patterns));
}

OperatorStateSnapshot MJoinOperator::CaptureState() const {
  OperatorStateSnapshot snap;
  snap.inputs.resize(num_inputs());
  for (size_t k = 0; k < num_inputs(); ++k) {
    InputStateSnapshot& in = snap.inputs[k];
    in.tuples.reserve(states_[k]->live_count());
    // Copying out of ForEachLive materializes owning tuples, so the
    // snapshot stays valid past any arena epoch.
    states_[k]->ForEachLive(
        [&](size_t, const Tuple& t) { in.tuples.push_back(t); });
    punct_stores_[k]->ForEachEntry([&](Punctuation p, int64_t arrival) {
      in.punctuations.push_back({std::move(p), arrival});
    });
    in.state_metrics = states_[k]->metrics().Snapshot();
  }
  snap.pending.reserve(pending_propagations_.size());
  for (const PendingPropagation& p : pending_propagations_) {
    snap.pending.push_back({static_cast<uint32_t>(p.input), p.punctuation});
  }
  snap.op_metrics = metrics_.Snapshot();
  snap.punctuations_purged = punctuations_purged_;
  snap.punctuations_since_sweep = punctuations_since_sweep_;
  return snap;
}

Status MJoinOperator::RestoreState(const OperatorStateSnapshot& snapshot) {
  if (snapshot.inputs.size() != num_inputs()) {
    return Status::InvalidArgument(
        "snapshot has " + std::to_string(snapshot.inputs.size()) +
        " inputs but the operator has " + std::to_string(num_inputs()));
  }
  if (TotalLiveTuples() != 0 || TotalLivePunctuations() != 0 ||
      !pending_propagations_.empty()) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly created operator");
  }
  for (size_t k = 0; k < num_inputs(); ++k) {
    const InputStateSnapshot& in = snapshot.inputs[k];
    for (const PunctuationEntry& e : in.punctuations) {
      if (e.punctuation.arity() != widths_[k]) {
        return Status::InvalidArgument(
            "snapshot punctuation arity does not match input " +
            std::to_string(k));
      }
      punct_stores_[k]->Add(e.punctuation, e.arrival);
    }
    for (const Tuple& t : in.tuples) {
      if (t.size() != widths_[k]) {
        return Status::InvalidArgument(
            "snapshot tuple width does not match input " +
            std::to_string(k));
      }
      QueueUnchecked(k, states_[k]->Insert(t), 1);
    }
    states_[k]->RestoreMetrics(in.state_metrics);
  }
  for (const PendingPropagationSnapshot& p : snapshot.pending) {
    if (p.input >= num_inputs()) {
      return Status::InvalidArgument(
          "snapshot pending propagation names input " +
          std::to_string(p.input));
    }
    pending_propagations_.push_back({p.input, p.punctuation});
  }
  metrics_.RestoreFrom(snapshot.op_metrics);
  // The live gauges describe this operator's own stores: a split
  // restore hands a shard its key-routed punctuations plus every
  // replicated one, which need not be the count the piece carried. The
  // high water stays as restored.
  metrics_.punctuations_live.store(TotalLivePunctuations(),
                                   std::memory_order_relaxed);
  metrics_.punctuations_keyed_live.store(KeyedLivePunctuations(),
                                         std::memory_order_relaxed);
  punctuations_purged_ = snapshot.punctuations_purged;
  punctuations_since_sweep_ =
      static_cast<size_t>(snapshot.punctuations_since_sweep);
  // A split restore replicates the punctuations that were broadcast,
  // values a shard had already finished included.
  retire_scan_pending_ = true;
  return Status::OK();
}

void MJoinOperator::RecheckPropagations(int64_t now) {
  // The recheck reconstructs transient coordination state (a sharded
  // restore re-emits punctuations whose aligner votes the crash
  // discarded); the restored counters already account for the original
  // probes and emissions, so the pass must not double-count them —
  // capture -> restore -> capture stays byte-identical.
  std::vector<StateMetricsSnapshot> saved;
  saved.reserve(num_inputs());
  for (const auto& s : states_) saved.push_back(s->metrics().Snapshot());
  const uint64_t propagated =
      metrics_.punctuations_propagated.load(std::memory_order_relaxed);

  TryPropagate(now, ~uint64_t{0});

  for (size_t k = 0; k < num_inputs(); ++k) {
    states_[k]->RestoreMetrics(saved[k]);
  }
  metrics_.punctuations_propagated.store(propagated,
                                         std::memory_order_relaxed);
}

StateMetricsSnapshot MJoinOperator::AggregateStateSnapshot() const {
  StateMetricsSnapshot total;
  for (const auto& s : states_) total += s->metrics().Snapshot();
  return total;
}

size_t MJoinOperator::TotalLiveTuples() const {
  size_t total = 0;
  for (const auto& s : states_) total += s->live_count();
  return total;
}

void MJoinOperator::SetPartitionKey(std::vector<size_t> key_offsets) {
  PUNCTSAFE_CHECK(key_offsets.size() == num_inputs());
  partition_key_ = std::move(key_offsets);
}

void MJoinOperator::NotePunctuationsLive() {
  metrics_.OnPunctuationsLive(TotalLivePunctuations());
  if (!partition_key_.empty()) {
    metrics_.punctuations_keyed_live.store(KeyedLivePunctuations(),
                                           std::memory_order_relaxed);
  }
}

size_t MJoinOperator::KeyedLivePunctuations() const {
  size_t total = 0;
  for (size_t k = 0; k < partition_key_.size(); ++k) {
    total += punct_stores_[k]->CountConstraining(partition_key_[k]);
  }
  return total;
}

size_t MJoinOperator::TotalLivePunctuations() const {
  size_t total = 0;
  for (const auto& s : punct_stores_) total += s->size();
  return total;
}

}  // namespace punctsafe
