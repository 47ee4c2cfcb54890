#include "exec/plan_executor.h"

#include <algorithm>

#include "exec/operator_tree.h"
#include "exec/simd.h"
#include "util/string_util.h"

namespace punctsafe {

std::string PlanFingerprint(const ContinuousJoinQuery& query,
                            const PlanShape& shape) {
  return StrCat(query.ToString(), " | ", shape.ToString(query));
}

Result<std::unique_ptr<PlanExecutor>> PlanExecutor::Create(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    const PlanShape& shape, ExecutorConfig config) {
  PUNCTSAFE_ASSIGN_OR_RETURN(PlanSafetyReport safety,
                             CheckPlanSafety(query, schemes, shape));

  auto exec = std::unique_ptr<PlanExecutor>(new PlanExecutor());
  exec->query_ = query;
  exec->shape_ = shape;
  if (config.batch_size == 0) config.batch_size = 1;
  exec->config_ = config;
  exec->safety_ = std::move(safety);
  exec->pending_batch_ = TupleBatch(config.batch_size);

  PUNCTSAFE_ASSIGN_OR_RETURN(
      OperatorTree tree,
      BuildOperatorTree(exec->query_, schemes, shape, config.mjoin));

  // Serial wiring: child outputs call straight into the parent input.
  // Batched executors also wire the batch-granular channel, so a
  // child's staged result batch becomes one parent PushBatch (the
  // parent's InsertBatch copies what it stores — the views die with
  // the call, per the EmitBatch contract). batch_size == 1 leaves the
  // channel unset: EmitBatch then falls back per element and the
  // wiring is bit-identical to tuple-at-a-time.
  for (size_t j = 0; j < tree.operators.size(); ++j) {
    const OperatorTree::ParentEdge& edge = tree.parents[j];
    if (edge.parent_op == OperatorTree::ParentEdge::kNoParent) continue;
    MJoinOperator* parent = tree.operators[edge.parent_op].get();
    size_t k = edge.parent_input;
    tree.operators[j]->SetEmitter([parent, k](const StreamElement& e) {
      if (e.is_tuple()) {
        parent->PushTuple(k, e.tuple, e.timestamp);
      } else {
        parent->PushPunctuation(k, e.punctuation, e.timestamp);
      }
    });
    if (config.batch_size > 1) {
      tree.operators[j]->SetBatchEmitter(
          [parent, k](TupleBatch& b) { parent->PushBatch(k, b); });
    }
  }

  exec->progress_.resize(query.num_streams());
  exec->leaf_route_.assign(query.num_streams(), {nullptr, 0});
  for (size_t s = 0; s < query.num_streams(); ++s) {
    auto [op_index, input] = tree.leaf_route[s];
    if (op_index != OperatorTree::ParentEdge::kNoParent) {
      exec->leaf_route_[s] = {tree.operators[op_index].get(), input};
    }
  }

  PlanExecutor* raw = exec.get();
  tree.root()->SetEmitter([raw](const StreamElement& e) {
    if (!e.is_tuple()) return;  // root punctuations reach the consumer app
    ++raw->num_results_;
    if (raw->config_.keep_results) raw->kept_results_.push_back(e.tuple);
  });
  if (config.batch_size > 1) {
    tree.root()->SetBatchEmitter([raw](TupleBatch& b) {
      raw->num_results_ += b.size();
      if (raw->config_.keep_results) {
        // The rows are views over operator scratch; the push_back copy
        // re-owns them (same as the per-element path's e.tuple copy).
        for (size_t i = 0; i < b.size(); ++i) {
          raw->kept_results_.push_back(b.tuple(i));
        }
      }
    });
  }
  exec->operators_ = std::move(tree.operators);

  if (obs::kCompiled && config.observe.enabled) {
    exec->obs_ = std::make_unique<obs::Observability>(config.observe);
    for (size_t j = 0; j < exec->operators_.size(); ++j) {
      exec->operators_[j]->SetObserver(
          exec->obs_->AddOperator(static_cast<uint16_t>(j), 0));
    }
  }
  return exec;
}

Status PlanExecutor::Push(const TraceEvent& event) {
  auto idx = query_.StreamIndex(event.stream);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("stream '", event.stream, "' not part of ", query_.ToString()));
  }
  if (event.element.is_tuple()) {
    PushTuple(*idx, event.element.tuple, event.element.timestamp);
  } else {
    PushPunctuation(*idx, event.element.punctuation,
                    event.element.timestamp);
  }
  return Status::OK();
}

void PlanExecutor::PushTuple(size_t stream, const Tuple& tuple, int64_t ts) {
  NoteProgress(stream, ts);
  if (config_.batch_size > 1) {
    // Batched ingestion: accumulate consecutive same-stream tuples
    // and deliver them as one PushBatch. A stream change flushes —
    // batches never mix inputs — so per-stream runs in the trace
    // become whole batches.
    if (!pending_batch_.empty() && pending_stream_ != stream) FlushIngest();
    pending_stream_ = stream;
    pending_batch_.Append(tuple, ts);
    if (pending_batch_.full()) FlushIngest();
    return;
  }
  auto [op, input] = leaf_route_[stream];
  // Under serial execution the push runs the whole synchronous
  // cascade (probes, result emission, parent pushes), so the latency
  // recorded at the leaf covers arrival -> last emit.
  if (obs::kCompiled && op->observer() != nullptr) {
    const uint64_t results_before =
        op->metrics().results_emitted.load(std::memory_order_relaxed);
    const int64_t start = obs::NowNs();
    op->PushTuple(input, tuple, ts);
    const int64_t end = obs::NowNs();
    op->observer()->RecordLatencyNs(end - start);
    op->observer()->NoteAt(
        end, obs::TraceKind::kTupleIn, input,
        op->metrics().results_emitted.load(std::memory_order_relaxed) -
            results_before);
  } else {
    op->PushTuple(input, tuple, ts);
  }
  RecordHighWater();
}

void PlanExecutor::FlushIngest() {
  if (pending_batch_.empty()) return;
  auto [op, input] = leaf_route_[pending_stream_];
  const int64_t n = static_cast<int64_t>(pending_batch_.size());
  // Per-batch observation sampling: two clock reads for the whole
  // batch, a mean per-tuple latency sample, and one kTupleIn ring
  // event carrying the batch's result count.
  if (obs::kCompiled && op->observer() != nullptr) {
    const uint64_t results_before =
        op->metrics().results_emitted.load(std::memory_order_relaxed);
    const int64_t start = obs::NowNs();
    op->PushBatch(input, pending_batch_);
    const int64_t end = obs::NowNs();
    op->observer()->RecordLatencyNs((end - start) / n);
    op->observer()->NoteAt(
        end, obs::TraceKind::kTupleIn, input,
        op->metrics().results_emitted.load(std::memory_order_relaxed) -
            results_before);
  } else {
    op->PushBatch(input, pending_batch_);
  }
  pending_batch_.Clear();
  RecordHighWater();
}

void PlanExecutor::PushPunctuation(size_t stream,
                                   const Punctuation& punctuation,
                                   int64_t ts) {
  // Batch-boundary ordering: results from buffered tuples must be
  // emitted before the punctuation is forwarded.
  FlushIngest();
  NoteProgress(stream, ts);
  auto [op, input] = leaf_route_[stream];
  op->PushPunctuation(input, punctuation, ts);
  RecordHighWater();
  MaybeAutoCheckpoint();
}

void PlanExecutor::NoteProgress(size_t stream, int64_t ts) {
  InputProgress& p = progress_[stream];
  ++p.events_consumed;
  p.watermark_ts = std::max(p.watermark_ts, ts);
}

void PlanExecutor::MaybeAutoCheckpoint() {
  if (config_.checkpoint.interval_punctuations == 0) return;
  if (++punctuations_since_checkpoint_ <
      config_.checkpoint.interval_punctuations) {
    return;
  }
  punctuations_since_checkpoint_ = 0;
  if (config_.checkpoint.path.empty()) return;
  Status status = WriteSnapshotFile(Checkpoint(), config_.checkpoint.path);
  if (!status.ok()) {
    PUNCTSAFE_LOG(Warning) << "automatic checkpoint to '"
                           << config_.checkpoint.path
                           << "' failed: " << status.ToString();
  }
}

StateSnapshot PlanExecutor::Checkpoint() const {
  PUNCTSAFE_CHECK(pending_batch_.empty())
      << "snapshots are taken at batch boundaries: call FlushIngest() "
         "before Checkpoint()";
  StateSnapshot snap;
  snap.fingerprint = PlanFingerprint(query_, shape_);
  snap.progress = progress_;
  snap.num_results = num_results_;
  snap.results = kept_results_;
  snap.tuple_high_water = tuple_high_water_;
  snap.punct_high_water = punct_high_water_;
  snap.operators.reserve(operators_.size());
  for (const auto& op : operators_) {
    snap.operators.push_back(op->CaptureState());
  }
  CanonicalizeSnapshot(&snap);
  return snap;
}

Status PlanExecutor::RestoreState(const StateSnapshot& snapshot) {
  if (snapshot.fingerprint != PlanFingerprint(query_, shape_)) {
    return Status::InvalidArgument(
        StrCat("snapshot fingerprint '", snapshot.fingerprint,
               "' does not match this plan '",
               PlanFingerprint(query_, shape_), "'"));
  }
  if (snapshot.operators.size() != operators_.size()) {
    return Status::InvalidArgument(
        StrCat("snapshot has ", snapshot.operators.size(),
               " operators but the plan has ", operators_.size()));
  }
  for (size_t j = 0; j < operators_.size(); ++j) {
    PUNCTSAFE_RETURN_IF_ERROR(
        operators_[j]->RestoreState(snapshot.operators[j]));
  }
  progress_ = snapshot.progress;
  progress_.resize(query_.num_streams());
  num_results_ = snapshot.num_results;
  kept_results_ = snapshot.results;
  tuple_high_water_ = snapshot.tuple_high_water;
  punct_high_water_ = snapshot.punct_high_water;
  // Pending propagations were captured as "blocked at snapshot time";
  // under serial execution the recheck is a no-op safety pass, but it
  // keeps the restore contract identical to the sharded path (where it
  // reconstructs discarded aligner votes — see docs/RECOVERY.md).
  int64_t now = 0;
  for (const InputProgress& p : progress_) {
    now = std::max(now, p.watermark_ts);
  }
  for (auto& op : operators_) op->RecheckPropagations(now);
  return Status::OK();
}

void PlanExecutor::SweepAll(int64_t now) {
  FlushIngest();
  for (auto& op : operators_) op->Sweep(now);
  RecordHighWater();
}

size_t PlanExecutor::TotalLiveTuples() const {
  size_t total = 0;
  for (const auto& op : operators_) total += op->TotalLiveTuples();
  return total;
}

size_t PlanExecutor::TotalLivePunctuations() const {
  size_t total = 0;
  for (const auto& op : operators_) total += op->TotalLivePunctuations();
  return total;
}

void PlanExecutor::RecordHighWater() {
  tuple_high_water_ = std::max(tuple_high_water_, TotalLiveTuples());
  punct_high_water_ = std::max(punct_high_water_, TotalLivePunctuations());
}

obs::ObsSnapshot PlanExecutor::ObservabilitySnapshot() const {
  obs::ObsSnapshot snap;
  snap.executor = "serial";
  snap.simd_dispatch = simd::kDispatchName;
  snap.batch_size = config_.batch_size;
  snap.results = num_results_;
  snap.live_tuples = TotalLiveTuples();
  snap.live_punctuations = TotalLivePunctuations();
  snap.tuple_high_water = tuple_high_water_;
  snap.punctuation_high_water = punct_high_water_;
  if (obs_ == nullptr) return snap;
  snap.operators.reserve(operators_.size());
  for (size_t j = 0; j < operators_.size(); ++j) {
    obs::OperatorObsEntry entry;
    entry.CaptureFrom(obs_->at(j));
    entry.state = operators_[j]->AggregateStateSnapshot();
    entry.op_metrics = operators_[j]->metrics().Snapshot();
    snap.operators.push_back(std::move(entry));
  }
  return snap;
}

Status FeedTrace(PlanExecutor* executor, const Trace& trace) {
  for (const TraceEvent& event : trace) {
    PUNCTSAFE_RETURN_IF_ERROR(executor->Push(event));
  }
  return Status::OK();
}

}  // namespace punctsafe
