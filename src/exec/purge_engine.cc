#include "exec/purge_engine.h"

#include <algorithm>

#include "core/plan_safety.h"
#include "exec/simd.h"
#include "util/logging.h"

namespace punctsafe {

Result<std::unique_ptr<PurgeEngine>> PurgeEngine::Create(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    PurgeEngineConfig config) {
  auto engine = std::unique_ptr<PurgeEngine>(new PurgeEngine());
  engine->query_ = query;
  engine->config_ = config;

  // Query-level graph: one "input" per raw stream.
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < query.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(query, schemes, s)});
  }
  engine->edges_ = BuildLocalEdges(engine->query_, inputs);
  for (const LocalGpgEdge& edge : engine->edges_) {
    std::vector<size_t> target_attrs;
    for (const LocalGpgEdge::Binding& b : edge.bindings) {
      target_attrs.push_back(b.target_attr);
    }
    engine->edge_target_attrs_.push_back(std::move(target_attrs));
  }
  for (size_t s = 0; s < query.num_streams(); ++s) {
    engine->stream_purgeable_.push_back(
        LocalInputPurgeable(s, query.num_streams(), engine->edges_));
    engine->states_.push_back(
        std::make_unique<TupleStore>(engine->query_.JoinAttrsOf(s)));
    engine->punct_stores_.push_back(
        std::make_unique<PunctuationStore>(config.punctuation_lifespan));
  }
  return engine;
}

size_t PurgeEngine::AddTuple(size_t stream, const Tuple& tuple,
                             int64_t ts) {
  PUNCTSAFE_CHECK(stream < states_.size());
  if (obs::kCompiled && obs_ != nullptr) {
    obs_->NoteTupleTs(ts);
    obs_->Note(obs::TraceKind::kTupleIn, stream, 0);
  }
  return states_[stream]->Insert(tuple);
}

void PurgeEngine::AddTupleBatch(size_t stream, TupleBatch& batch) {
  PUNCTSAFE_CHECK(stream < states_.size());
  if (batch.empty()) return;
  if (obs::kCompiled && obs_ != nullptr) {
    // Per-batch sampling: one watermark fold and one ring event for
    // the whole batch instead of two notes per row.
    obs_->NoteTupleTs(batch.max_timestamp());
    obs_->Note(obs::TraceKind::kTupleIn, stream, 0);
  }
  batch.SelectAll();
  states_[stream]->InsertBatch(batch);
}

void PurgeEngine::AddPunctuation(size_t stream,
                                 const Punctuation& punctuation,
                                 int64_t ts) {
  PUNCTSAFE_CHECK(stream < punct_stores_.size());
  if (obs::kCompiled && obs_ != nullptr) obs_->RecordPunctuation(stream, ts);
  if (config_.punctuation_lifespan.has_value()) {
    for (auto& store : punct_stores_) store->ExpireBefore(ts);
  }
  punct_stores_[stream]->Add(punctuation, ts);
}

void PurgeEngine::Expand(size_t v, const BatchFrontier& in,
                         BatchFrontier* out) const {
  out->Reset(in.width());
  if (in.empty()) return;
  // Probe one predicate to a covered stream, verify the rest. The
  // covered-stream pattern is identical for every row of `in` (the
  // fixpoint fills streams uniformly), so split once per call.
  long probe_pred = -1;
  verify_scratch_.clear();
  for (size_t pi = 0; pi < query_.predicates().size(); ++pi) {
    const ResolvedPredicate& p = query_.predicates()[pi];
    if (!p.Involves(v)) continue;
    if (in.cell(0, p.OtherStream(v)) == nullptr) continue;
    if (probe_pred < 0) {
      probe_pred = static_cast<long>(pi);
    } else {
      verify_scratch_.push_back(pi);
    }
  }
  if (probe_pred < 0) return;  // chained edges always imply one
  const ResolvedPredicate& probe = query_.predicates()[probe_pred];
  size_t probe_other = probe.OtherStream(v);
  const size_t rows = in.size();
  const size_t probe_attr = probe.AttrOn(v);
  const size_t probe_other_attr = probe.AttrOn(probe_other);
  const TupleStore& store = *states_[v];
  // Batch-aware probing over the columnar frontier (same shape as
  // MJoinOperator::Expand): one probe-hash gather, SIMD run detection,
  // one bucket resolution + live filter per same-key run. Only
  // FindBucket can invalidate the bucket pointer, and each run
  // re-resolves it.
  probe_hashes_.clear();
  for (size_t r = 0; r < rows; ++r) {
    probe_hashes_.push_back(static_cast<uint64_t>(
        in.cell(r, probe_other)->HashAt(probe_other_attr)));
  }
  size_t k = 0;
  while (k < rows) {
    const Value& key = in.cell(k, probe_other)->at(probe_other_attr);
    const size_t hash_run =
        simd::HashRunLength(probe_hashes_.data() + k, rows - k);
    size_t same_key = 1;
    while (same_key < hash_run &&
           in.cell(k + same_key, probe_other)->at(probe_other_attr) == key) {
      ++same_key;
    }
    const TupleStore::Bucket* bucket = store.FindBucket(probe_attr, key);
    store.NoteProbeRun(same_key);
    run_cands_.clear();
    store.ForBucketLive(bucket, [&](size_t, const Tuple& candidate) {
      run_cands_.push_back(&candidate);
    });
    // Per-pair exact verification without the SIMD hash prefilter:
    // chained-purge frontiers are capped small (max_joinable_set), so
    // the gather passes would cost more than they save.
    for (size_t r = k; r < k + same_key; ++r) {
      for (const Tuple* cand : run_cands_) {
        bool ok = true;
        for (size_t pi : verify_scratch_) {
          const ResolvedPredicate& p = query_.predicates()[pi];
          size_t other = p.OtherStream(v);
          if (!(cand->at(p.AttrOn(v)) ==
                in.cell(r, other)->at(p.AttrOn(other)))) {
            ok = false;
            break;
          }
        }
        if (ok) out->AppendExtended(in, r, v, cand);
      }
    }
    k += same_key;
  }
}

bool PurgeEngine::Removable(size_t stream, const Tuple& tuple,
                            int64_t now) const {
  if (!stream_purgeable_[stream]) return false;
  const size_t n = query_.num_streams();

  BatchFrontier* joinable = &expand_bufs_[0];
  BatchFrontier* scratch = &expand_bufs_[1];
  joinable->Reset(n);
  joinable->SeedSingle(&tuple, stream);

  std::vector<bool> covered(n, false);
  covered[stream] = true;
  size_t covered_count = 1;
  bool progress = true;
  while (progress && covered_count < n) {
    progress = false;
    for (size_t ei = 0; ei < edges_.size(); ++ei) {
      const LocalGpgEdge& edge = edges_[ei];
      if (covered[edge.target_input]) continue;
      bool ready =
          std::all_of(edge.source_inputs.begin(), edge.source_inputs.end(),
                      [&](size_t s) { return covered[s]; });
      if (!ready) continue;
      // Distinct value combinations the target's punctuations must
      // exclude; sort+unique on reused scratch instead of a
      // per-check std::unordered_set.
      combos_scratch_.clear();
      for (size_t r = 0; r < joinable->size(); ++r) {
        std::vector<Value> combo;
        combo.reserve(edge.bindings.size());
        for (const LocalGpgEdge::Binding& b : edge.bindings) {
          combo.push_back(
              joinable->cell(r, b.source_input)->at(b.source_attr));
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
                edge_target_attrs_[ei], combo.values(), now)) {
          all_excluded = false;
          break;
        }
      }
      if (!all_excluded) continue;
      Expand(edge.target_input, *joinable, scratch);
      std::swap(joinable, scratch);
      if (joinable->size() > config_.max_joinable_set) return false;
      covered[edge.target_input] = true;
      ++covered_count;
      progress = true;
    }
  }
  return covered_count == n;
}

void PurgeEngine::SetObserver(obs::OperatorObs* observer) {
  obs_ = observer;
  for (auto& state : states_) state->SetObserver(observer);
}

std::vector<std::pair<size_t, size_t>> PurgeEngine::Sweep(int64_t now) {
  const bool observing = obs::kCompiled && obs_ != nullptr;
  const int64_t sweep_start = observing ? obs::NowNs() : 0;
  std::vector<std::pair<size_t, size_t>> released;
  for (size_t s = 0; s < states_.size(); ++s) {
    if (!stream_purgeable_[s]) continue;
    sweep_scratch_.clear();
    states_[s]->ForEachLive([&](size_t slot, const Tuple& t) {
      if (Removable(s, t, now)) sweep_scratch_.push_back(slot);
    });
    for (size_t slot : sweep_scratch_) released.emplace_back(s, slot);
    states_[s]->PurgeSlots(sweep_scratch_);
  }
  // Epoch boundary: release purged payloads and reclaim all-dead
  // arena blocks.
  for (auto& state : states_) state->AdvanceEpoch();
  if (observing) {
    obs_->RecordSweep(obs::NowNs() - sweep_start, released.size());
  }
  return released;
}

size_t PurgeEngine::TotalLiveTuples() const {
  size_t total = 0;
  for (const auto& s : states_) total += s->live_count();
  return total;
}

}  // namespace punctsafe
