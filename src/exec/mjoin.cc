#include "exec/mjoin.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

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

  auto op = std::unique_ptr<MJoinOperator>(new MJoinOperator());
  op->config_ = config;
  op->inputs_ = std::move(inputs);
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
  for (size_t s = 0; s < query.num_streams(); ++s) {
    if (covered[s]) op->output_streams_.push_back(s);
  }
  size_t out = 0;
  for (size_t s : op->output_streams_) {
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

  // Localized predicates + per-input join offsets for indexing.
  constexpr size_t kOutside = static_cast<size_t>(-1);
  std::vector<size_t> input_of(query.num_streams(), kOutside);
  for (size_t k = 0; k < m; ++k) {
    for (size_t s : op->inputs_[k].streams) input_of[s] = k;
  }
  std::vector<std::vector<size_t>> indexed(m);
  for (const ResolvedPredicate& p : query.predicates()) {
    size_t ia = input_of[p.left_stream];
    size_t ib = input_of[p.right_stream];
    if (ia == kOutside || ib == kOutside || ia == ib) continue;
    LocalPredicate lp;
    lp.input_a = ia;
    lp.offset_a = op->OffsetOf(ia, p.left_stream, p.left_attr);
    lp.input_b = ib;
    lp.offset_b = op->OffsetOf(ib, p.right_stream, p.right_attr);
    indexed[ia].push_back(lp.offset_a);
    indexed[ib].push_back(lp.offset_b);
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

  // Stores.
  for (size_t k = 0; k < m; ++k) {
    std::sort(indexed[k].begin(), indexed[k].end());
    indexed[k].erase(std::unique(indexed[k].begin(), indexed[k].end()),
                     indexed[k].end());
    op->states_.push_back(std::make_unique<TupleStore>(indexed[k]));
    op->punct_stores_.push_back(
        std::make_unique<PunctuationStore>(config.punctuation_lifespan));
  }

  // All generalized edges from the operator-local graph, localized to
  // composite offsets; removability checks run a fixpoint over them.
  std::vector<LocalGpgEdge> edges = BuildLocalEdges(query, op->inputs_);
  for (const LocalGpgEdge& e : edges) {
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
    op->runtime_edges_.push_back(std::move(edge));
  }
  op->input_purgeable_.resize(m);
  for (size_t k = 0; k < m; ++k) {
    op->input_purgeable_[k] = LocalInputPurgeable(k, m, edges);
  }

  // Propagatable scheme signatures (inputs with purgeable state only).
  op->propagatable_signatures_.resize(m);
  for (size_t k = 0; k < m; ++k) {
    if (!op->input_purgeable_[k]) continue;
    for (const AvailableScheme& scheme : op->inputs_[k].schemes) {
      std::vector<size_t> signature;
      for (size_t attr : scheme.attrs) {
        signature.push_back(op->OffsetOf(k, scheme.origin_stream, attr));
      }
      std::sort(signature.begin(), signature.end());
      op->propagatable_signatures_[k].push_back(std::move(signature));
    }
  }
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
  PUNCTSAFE_CHECK(input < num_inputs());
  PUNCTSAFE_CHECK(tuple.size() == widths_[input])
      << "tuple arity " << tuple.size() << " != input width "
      << widths_[input];
  if (obs::kCompiled && obs_ != nullptr) obs_->NoteTupleTs(ts);

  if (config_.drop_excluded_arrivals &&
      punct_stores_[input]->ExcludesTuple(tuple, ts)) {
    // Promised never to arrive: late or contract-violating; ignore.
    states_[input]->CountDroppedArrival();
    return;
  }

  // The kTupleIn ring event is recorded by the executors (serial leaf
  // push / parallel Deliver), which already hold a fresh NowNs for the
  // latency sample — keeping this path down to one clock-free hook.
  const size_t scratch_before = ExpandScratchCapacity();
  ProduceResults(input, tuple, ts);

  // Under the eager policy, test the chained purge plan before
  // storing: if the stores already close every continuation, the
  // tuple never occupies state.
  const bool drop = config_.purge_policy == PurgePolicy::kEager &&
                    Removable(input, tuple, ts);
  // Any scratch-capacity growth across this push is one expansion
  // allocation event; steady state stays pinned at zero.
  if (ExpandScratchCapacity() > scratch_before) {
    states_[input]->CountExpandAllocs(1);
  }
  if (drop) {
    states_[input]->CountDroppedArrival();
    return;
  }
  states_[input]->Insert(tuple);
}

void MJoinOperator::PushBatch(size_t input, TupleBatch& batch) {
  PUNCTSAFE_CHECK(input < num_inputs());
  if (batch.empty()) return;
  for (size_t i = 0; i < batch.size(); ++i) {
    PUNCTSAFE_CHECK(batch.tuple(i).size() == widths_[input])
        << "tuple arity " << batch.tuple(i).size() << " != input width "
        << widths_[input];
  }
  if (obs::kCompiled && obs_ != nullptr) {
    // One watermark fold per batch (NoteTupleTs is an atomic max, so
    // folding the batch max is equivalent to per-row notes).
    obs_->NoteTupleTs(batch.max_timestamp());
  }

  batch.SelectAll();
  // Punctuation-exclusion filtering over the selection vector,
  // amortized to the batch boundary: the store cannot change
  // mid-batch, so an empty store skips the whole scan.
  if (config_.drop_excluded_arrivals && punct_stores_[input]->size() > 0) {
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
  // emission sequence matches a per-row ProduceResults loop exactly.
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
  EmitFrontier(*cur, &batch, 0);

  // Eager removability amortized the same way: with no punctuation
  // stored anywhere the chained purge plan cannot close any input
  // (CoversSubspace over an empty store is false), so the whole
  // fixpoint is skipped. Probing never touches states_[input] and
  // expansion never walks through the arrival input, so running all
  // probes before any insert is result-identical to the interleaved
  // per-row order.
  const bool check_removable =
      config_.purge_policy == PurgePolicy::kEager &&
      input_purgeable_[input] && TotalLivePunctuations() > 0;
  if (check_removable) {
    for (uint32_t row : batch.selection()) {
      if (Removable(input, batch.tuple(row), batch.timestamp(row))) {
        states_[input]->CountDroppedArrival();
      } else {
        states_[input]->Insert(batch.tuple(row));
      }
    }
  } else {
    states_[input]->InsertBatch(batch);
  }
  if (ExpandScratchCapacity() > scratch_before) {
    states_[input]->CountExpandAllocs(1);
  }
}

void MJoinOperator::ProduceResults(size_t input, const Tuple& tuple,
                                   int64_t ts) {
  const std::vector<size_t>& order = expand_orders_[input];

  BatchFrontier* cur = &expand_bufs_[0];
  BatchFrontier* nxt = &expand_bufs_[1];
  cur->Reset(num_inputs());
  cur->SeedSingle(&tuple, input);

  for (size_t idx = 1; idx < order.size() && !cur->empty(); ++idx) {
    Expand(order[idx], *cur, nxt);
    std::swap(cur, nxt);
  }
  EmitFrontier(*cur, nullptr, ts);
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
    // index probe is counted, matching the per-row ForEachLive path.
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
                                 const TupleBatch* src, int64_t single_ts) {
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
    out_batch_.AppendView(
        out_values_.data() + r * output_width_, output_width_,
        src != nullptr ? src->timestamp(frontier.src_row(r)) : single_ts);
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
  total += combos_scratch_.capacity() + sweep_scratch_.capacity();
  total += out_values_.capacity() + out_batch_.TupleCapacity();
  return total;
}

bool MJoinOperator::Removable(size_t input, const Tuple& tuple, int64_t now) {
  if (!input_purgeable_[input]) return false;
  ++metrics_.removability_checks;
  const size_t m = num_inputs();

  BatchFrontier* joinable = &expand_bufs_[0];
  BatchFrontier* scratch = &expand_bufs_[1];
  joinable->Reset(m);
  joinable->SeedSingle(&tuple, input);

  // Fixpoint over the generalized edges: an input counts as closed as
  // soon as ANY edge whose sources are already closed has all its
  // value combinations excluded by the target's punctuation store —
  // the existential reading of the chained purge strategy.
  std::vector<bool> covered(m, false);
  covered[input] = true;
  size_t covered_count = 1;
  bool progress = true;
  while (progress && covered_count < m) {
    progress = false;
    for (const RuntimeEdge& edge : runtime_edges_) {
      if (covered[edge.target_input]) continue;
      bool sources_ready =
          std::all_of(edge.source_inputs.begin(), edge.source_inputs.end(),
                      [&](size_t s) { return covered[s]; });
      if (!sources_ready) continue;
      // The distinct value combinations the target's punctuations must
      // exclude: δ_PA(T_t[Υ]) of the generalized chained purge.
      // Dedup via sort+unique on a reused scratch vector — the old
      // per-punctuation std::unordered_set allocated a node per combo.
      combos_scratch_.clear();
      for (size_t r = 0; r < joinable->size(); ++r) {
        std::vector<Value> combo;
        combo.reserve(edge.sources.size());
        for (const RuntimeEdge::Source& src : edge.sources) {
          combo.push_back(joinable->cell(r, src.input)->at(src.offset));
        }
        combos_scratch_.push_back(Tuple(std::move(combo)));
      }
      std::sort(combos_scratch_.begin(), combos_scratch_.end());
      combos_scratch_.erase(
          std::unique(combos_scratch_.begin(), combos_scratch_.end()),
          combos_scratch_.end());
      bool all_excluded = true;
      for (const Tuple& combo : combos_scratch_) {
        if (!punct_stores_[edge.target_input]->CoversSubspace(
                edge.target_offsets, combo.values(), now)) {
          all_excluded = false;
          break;
        }
      }
      if (!all_excluded) continue;  // maybe another edge closes it
      // Extend T_t[Υ] through the newly closed input.
      Expand(edge.target_input, *joinable, scratch);
      std::swap(joinable, scratch);
      if (joinable->size() > kMaxJoinableSet) {
        PUNCTSAFE_LOG(Warning)
            << "removability check aborted: joinable set exceeded "
            << kMaxJoinableSet;
        return false;  // conservative
      }
      covered[edge.target_input] = true;
      ++covered_count;
      progress = true;
    }
  }
  return covered_count == m;
}

void MJoinOperator::PushPunctuation(size_t input,
                                    const Punctuation& punctuation,
                                    int64_t ts) {
  PUNCTSAFE_CHECK(input < num_inputs());
  PUNCTSAFE_CHECK(punctuation.arity() == widths_[input])
      << "punctuation arity " << punctuation.arity() << " != input width "
      << widths_[input];
  ++metrics_.punctuations_received;
  if (obs::kCompiled && obs_ != nullptr) obs_->RecordPunctuation(input, ts);

  if (config_.punctuation_lifespan.has_value()) {
    for (auto& store : punct_stores_) {
      metrics_.punctuations_expired += store->ExpireBefore(ts);
    }
  }

  if (punct_stores_[input]->Add(punctuation, ts)) {
    ++metrics_.punctuations_stored;
  }
  metrics_.OnPunctuationsLive(TotalLivePunctuations());

  // Queue propagation if this instantiates a propagatable scheme.
  if (config_.propagate_punctuations) {
    std::vector<size_t> signature = punctuation.ConstrainedAttrs();
    for (const auto& prop : propagatable_signatures_[input]) {
      if (prop != signature) continue;
      bool already = std::any_of(
          pending_propagations_.begin(), pending_propagations_.end(),
          [&](const PendingPropagation& p) {
            return p.input == input && p.punctuation == punctuation;
          });
      if (!already) pending_propagations_.push_back({input, punctuation});
      break;
    }
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
  std::vector<bool> changed(num_inputs(), false);
  changed[input] = true;
  TryPropagate(ts, changed);
}

void MJoinOperator::OnObserverSet() {
  for (auto& state : states_) state->SetObserver(obs_);
}

void MJoinOperator::Sweep(int64_t now) {
  ++metrics_.purge_sweeps;
  punctuations_since_sweep_ = 0;
  const bool observing = obs::kCompiled && obs_ != nullptr;
  const int64_t sweep_start = observing ? obs::NowNs() : 0;
  uint64_t purged_total = 0;
  std::vector<bool> changed(num_inputs(), false);
  for (size_t k = 0; k < num_inputs(); ++k) {
    if (!input_purgeable_[k]) continue;
    const size_t scratch_before = ExpandScratchCapacity();
    sweep_scratch_.clear();
    states_[k]->ForEachLive([&](size_t slot, const Tuple& t) {
      if (Removable(k, t, now)) sweep_scratch_.push_back(slot);
    });
    if (!sweep_scratch_.empty()) changed[k] = true;
    purged_total += sweep_scratch_.size();
    states_[k]->PurgeSlots(sweep_scratch_);
    if (ExpandScratchCapacity() > scratch_before) {
      states_[k]->CountExpandAllocs(1);
    }
  }
  TryPropagate(now, changed);
  if (config_.purge_punctuations) PurgeObsoletePunctuations(now);
  // Epoch boundary: no probe results from this sweep are in flight
  // anymore, so purged payloads can be released and all-dead arena
  // blocks reclaimed wholesale.
  for (auto& state : states_) state->AdvanceEpoch();
  if (observing) obs_->RecordSweep(obs::NowNs() - sweep_start, purged_total);
}

void MJoinOperator::PurgeObsoletePunctuations(int64_t now) {
  // A punctuation p on input v exists to close join values that
  // partner inputs wait on. Once every predicate (u.x = v.y) with y
  // constrained by p has (a) u's own punctuation store excluding
  // {x = p[y]} — no future u tuple will wait on it — and (b) no live
  // u tuple with x = p[y] — nothing stored waits on it — p carries no
  // information the system still needs (paper Section 5.1; the binary
  // case is the paper's (*, b1)-retires-(b1, *) example). Punctuations
  // whose constrained attributes include a non-join attribute are
  // kept: they still deduplicate late arrivals on their own input.
  //
  // Conditions are evaluated against a snapshot and the removals
  // applied afterwards: two punctuations that justify each other's
  // retirement both go — exclusion is a property of the stream
  // contract, not of the store that recorded it.
  auto retirable = [&](size_t v, const Punctuation& p) {
    bool touches_join = false;
    for (size_t y : p.ConstrainedAttrs()) {
      for (size_t pi : predicates_of_input_[v]) {
        const LocalPredicate& pred = predicates_[pi];
        size_t v_off = (pred.input_a == v) ? pred.offset_a : pred.offset_b;
        if (v_off != y) continue;
        touches_join = true;
        size_t u = (pred.input_a == v) ? pred.input_b : pred.input_a;
        size_t u_off = (pred.input_a == v) ? pred.offset_b : pred.offset_a;
        const Value& value = p.pattern(y).constant();
        if (!punct_stores_[u]->CoversSubspace(
                {u_off}, std::span<const Value>(&value, 1), now)) {
          return false;  // future u tuples may still need p
        }
        if (states_[u]->AnyMatch(u_off, value,
                                 [](const Tuple&) { return true; })) {
          return false;  // a stored u tuple still waits on p
        }
      }
      // A constrained non-join attribute neither helps nor blocks:
      // the join-attribute conditions decide.
    }
    return touches_join;
  };

  std::vector<std::unordered_set<Punctuation, PunctuationHash>> to_remove(
      num_inputs());
  for (size_t v = 0; v < num_inputs(); ++v) {
    punct_stores_[v]->ForEach([&](const Punctuation& p) {
      if (retirable(v, p)) to_remove[v].insert(p);
    });
  }
  for (size_t v = 0; v < num_inputs(); ++v) {
    punctuations_purged_ += punct_stores_[v]->RemoveIf(
        [&](const Punctuation& p) { return to_remove[v].count(p) > 0; });
  }
  metrics_.OnPunctuationsLive(TotalLivePunctuations());
}

void MJoinOperator::TryPropagate(int64_t now,
                                 const std::vector<bool>& changed_inputs) {
  if (!config_.propagate_punctuations) return;
  for (auto it = pending_propagations_.begin();
       it != pending_propagations_.end();) {
    if (!changed_inputs[it->input]) {
      ++it;  // nothing changed for this input since the last check
      continue;
    }
    // A pending punctuation is blocked while a stored tuple still
    // matches it; probe the state via an index where possible.
    const Punctuation& p = it->punctuation;
    const TupleStore& store = *states_[it->input];
    bool blocked = false;
    size_t probe_attr = static_cast<size_t>(-1);
    for (size_t a : p.ConstrainedAttrs()) {
      if (store.HasIndexOn(a)) {
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
    if (obs::kCompiled && obs_ != nullptr) {
      obs_->Note(obs::TraceKind::kPunctOut, it->input);
    }
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
    punct_stores_[k]->ForEachEntry(
        [&](const Punctuation& p, int64_t arrival) {
          in.punctuations.push_back({p, arrival});
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
      states_[k]->Insert(t);
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
  punctuations_purged_ = snapshot.punctuations_purged;
  punctuations_since_sweep_ =
      static_cast<size_t>(snapshot.punctuations_since_sweep);
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

  std::vector<bool> changed(num_inputs(), true);
  TryPropagate(now, changed);

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

size_t MJoinOperator::TotalLivePunctuations() const {
  size_t total = 0;
  for (const auto& s : punct_stores_) total += s->size();
  return total;
}

}  // namespace punctsafe
