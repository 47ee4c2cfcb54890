#include "exec/parallel_executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "exec/bounded_queue.h"
#include "exec/operator_tree.h"
#include "exec/simd.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

}  // namespace

// One message on a shard's input queue: a whole tuple batch OR a
// single stream element tagged with the input it belongs to, or a
// barrier marker (drain / checkpoint / recheck — processed after
// everything queued before it; the pushing thread guarantees all
// producers are quiescent first). Batches are the first-class hand-off
// unit (ExecutorConfig::batch_size): one queue operation moves the
// whole batch, and batches of one travel as plain elements so
// batch_size == 1 reproduces per-tuple execution exactly.
struct OpMessage {
  PipelineMarker marker = PipelineMarker::kNone;
  size_t input = 0;
  StreamElement element;
  // Whole-batch payload; when set, `element` is unused and the merge
  // ordering key is the batch's first row timestamp. shared_ptr keeps
  // the message copyable for the reorder deques; a batch still has
  // exactly one consumer at a time.
  std::shared_ptr<TupleBatch> batch;
  // Steady-clock stamp taken when the element entered the pipeline
  // edge (enqueue or emit-staging flush). Only populated while
  // observability is on; Deliver turns it into the consumer's latency
  // sample, so the measured latency covers queue wait + reorder
  // buffering + processing — for a batch, one stamp and one sample
  // (the per-tuple mean) cover every row. 0 when observability is off.
  int64_t enqueue_ns = 0;
};

namespace {

// Merge-ordering key: batches order by their first row's timestamp.
int64_t OrderTs(const OpMessage& m) {
  return m.batch != nullptr ? m.batch->first_timestamp()
                            : m.element.timestamp;
}

}  // namespace

// One shard worker: exclusive owner of one MJoinOperator replica.
struct ParallelExecutor::Worker {
  explicit Worker(size_t queue_capacity) : queue(queue_capacity) {}

  MJoinOperator* op = nullptr;
  BoundedQueue<OpMessage> queue;
  // Per-input FIFO reorder buffers for the timestamp merge (whole
  // messages, so the enqueue stamp survives buffering and the latency
  // sample charges reorder wait to this shard).
  std::vector<std::deque<OpMessage>> pending;
  std::thread thread;

  // This shard's observation point (null when observability is off).
  // The worker thread is the trace ring's single producer; producers
  // on other threads (router stalls) touch only its atomic counters.
  obs::OperatorObs* obs = nullptr;

  // Owning group index, and the downstream emit staging: result
  // tuples this shard produces are staged into one TupleBatch per
  // *parent* shard and flushed as one queue message per batch once
  // ExecutorConfig::batch_size rows are staged (the former hard-coded
  // kEmitFlushBatch = 128). Touched only by this worker's thread
  // (emits run inside op->Push*, on this thread); root-group workers
  // keep it empty. Flush-before-punctuation and flush-before-drain-ack
  // preserve the per-queue FIFO invariant that a punctuation never
  // overtakes the tuples it covers.
  size_t group = 0;
  std::vector<TupleBatch> emit_buf;
  size_t emit_buffered = 0;

  // Barrier handshake (drain / checkpoint / recheck markers all share
  // it). `drains_requested` is touched only by the driver thread;
  // `drains_done` is the worker's ack, published under `mu`.
  uint64_t drains_requested = 0;
  std::mutex mu;
  std::condition_variable drained_cv;
  uint64_t drains_done = 0;
};

// One logical operator: K contiguous shard workers behind a
// partitioning router, plus the output-punctuation merge barrier.
struct ParallelExecutor::OpGroup {
  OpGroup(size_t num_shards_in, PartitionSpec spec_in)
      : num_shards(num_shards_in),
        spec(std::move(spec_in)),
        aligner(num_shards_in) {}

  size_t first_worker = 0;  // index into workers_/operators_
  size_t num_shards = 1;
  PartitionSpec spec;
  // Serializes punctuation/drain broadcasts into this group so every
  // shard observes the same punctuation order (keeps the per-shard
  // punctuation stores identical; see docs/CONCURRENCY.md).
  std::mutex broadcast_mu;
  // Merge barrier for this group's *output* punctuations.
  PunctuationAligner aligner;
  // Parent wiring (kNone for the root group).
  size_t parent_group = kNone;
  size_t parent_input = 0;
};

Result<std::unique_ptr<ParallelExecutor>> ParallelExecutor::Create(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    const PlanShape& shape, ExecutorConfig config) {
  PUNCTSAFE_ASSIGN_OR_RETURN(PlanSafetyReport safety,
                             CheckPlanSafety(query, schemes, shape));
  if (config.shards == 0) config.shards = 1;
  if (config.batch_size == 0) config.batch_size = 1;

  auto exec = std::unique_ptr<ParallelExecutor>(new ParallelExecutor());
  exec->query_ = query;
  exec->shape_ = shape;
  exec->config_ = config;
  exec->safety_ = std::move(safety);
  exec->ingest_batch_ = TupleBatch(config.batch_size);

  PUNCTSAFE_ASSIGN_OR_RETURN(
      OperatorTree tree,
      BuildOperatorTree(exec->query_, schemes, exec->shape_, config.mjoin));

  ParallelExecutor* raw = exec.get();
  const size_t num_groups = tree.operators.size();
  for (size_t j = 0; j < num_groups; ++j) {
    PartitionSpec spec =
        ComputePartitionSpec(exec->query_, tree.node_inputs[j]);
    size_t shards = spec.partitionable ? config.shards : 1;
    auto group = std::make_unique<OpGroup>(shards, std::move(spec));
    group->first_worker = exec->workers_.size();
    for (size_t s = 0; s < shards; ++s) {
      std::unique_ptr<MJoinOperator> op;
      if (s == 0) {
        op = std::move(tree.operators[j]);
      } else {
        // Shard replicas: same inputs + config, so identical layouts,
        // purge plans, and propagatable signatures — only the stored
        // tuples differ (a key-disjoint slice each).
        PUNCTSAFE_ASSIGN_OR_RETURN(
            op, MJoinOperator::Create(exec->query_, tree.node_inputs[j],
                                      config.mjoin));
      }
      auto worker = std::make_unique<Worker>(config.queue_capacity);
      worker->op = op.get();
      worker->pending.resize(op->num_inputs());
      exec->operators_.push_back(std::move(op));
      exec->workers_.push_back(std::move(worker));
    }
    exec->groups_.push_back(std::move(group));
  }

  // Wiring: every shard emits through EmitFromShard, which hashes
  // result tuples into the parent group's shard queues and funnels
  // output punctuations through the group's aligner. (Executed on the
  // emitting shard's worker thread; the root's results land in the
  // executor's sink.)
  for (size_t j = 0; j < num_groups; ++j) {
    const OperatorTree::ParentEdge& edge = tree.parents[j];
    if (edge.parent_op != OperatorTree::ParentEdge::kNoParent) {
      exec->groups_[j]->parent_group = edge.parent_op;
      exec->groups_[j]->parent_input = edge.parent_input;
    }
    OpGroup& group = *exec->groups_[j];
    for (size_t s = 0; s < group.num_shards; ++s) {
      Worker& worker = *exec->workers_[group.first_worker + s];
      worker.group = j;
      if (group.parent_group != kNone) {
        worker.emit_buf.assign(exec->groups_[group.parent_group]->num_shards,
                               TupleBatch(config.batch_size));
      }
      exec->operators_[group.first_worker + s]->SetEmitter(
          [raw, j, s](const StreamElement& e) { raw->EmitFromShard(j, s, e); });
      if (config.batch_size > 1) {
        // Batch-granular result channel; batch_size == 1 leaves it
        // unset so EmitBatch falls back per element and the wiring is
        // bit-identical to tuple-at-a-time delivery.
        exec->operators_[group.first_worker + s]->SetBatchEmitter(
            [raw, j, s](TupleBatch& b) { raw->EmitBatchFromShard(j, s, b); });
      }
    }
  }

  exec->progress_.resize(query.num_streams());
  exec->leaf_route_.assign(query.num_streams(), {kNone, 0});
  for (size_t s = 0; s < query.num_streams(); ++s) {
    exec->leaf_route_[s] = tree.leaf_route[s];
  }

  // Observation points: one per shard worker, registered before any
  // worker thread starts (the registry is append-only afterwards).
  if (obs::kCompiled && config.observe.enabled) {
    exec->obs_ = std::make_unique<obs::Observability>(config.observe);
    for (size_t j = 0; j < num_groups; ++j) {
      OpGroup& group = *exec->groups_[j];
      for (size_t s = 0; s < group.num_shards; ++s) {
        obs::OperatorObs* point = exec->obs_->AddOperator(
            static_cast<uint16_t>(j), static_cast<uint32_t>(s));
        exec->workers_[group.first_worker + s]->obs = point;
        exec->operators_[group.first_worker + s]->SetObserver(point);
      }
    }
  }

  for (size_t i = 0; i < exec->workers_.size(); ++i) {
    exec->workers_[i]->thread =
        std::thread([raw, i] { raw->WorkerLoop(i); });
  }
  return exec;
}

ParallelExecutor::~ParallelExecutor() { Stop(); }

void ParallelExecutor::EmitFromShard(size_t group_idx, size_t shard,
                                     const StreamElement& element) {
  OpGroup& group = *groups_[group_idx];
  if (group.parent_group == kNone) {
    // Root: tuples are results; punctuations reach the consumer app.
    if (!element.is_tuple()) return;
    num_results_.fetch_add(1, std::memory_order_relaxed);
    if (config_.keep_results) {
      std::lock_guard<std::mutex> lock(results_mu_);
      kept_results_.push_back(element.tuple);
    }
    return;
  }
  OpGroup& parent = *groups_[group.parent_group];
  Worker& self = *workers_[group.first_worker + shard];
  if (element.is_tuple()) {
    // Stage into the per-parent-shard batch; the flush moves each
    // staged batch with one queue operation instead of one per tuple.
    // This re-hash onto the parent's partition key repartitions
    // between operators: child and parent may shard on different
    // equivalence classes. A failed flush means Stop() closed the
    // pipeline; elements are dropped (the non-graceful path).
    size_t target = RouteShard(parent, group.parent_input, element.tuple);
    self.emit_buf[target].Append(element.tuple, element.timestamp);
    if (++self.emit_buffered >= config_.batch_size) FlushEmits(self);
    return;
  }
  // Output punctuation: flush this shard's staged tuples first so the
  // punctuation cannot overtake them in the parent queues. Every shard
  // flushes before its aligner arrival, and arrivals happen-before the
  // completing shard's broadcast, so all covered tuples of all shards
  // are queued ahead of the forwarded punctuation.
  FlushEmits(self);
  // The punctuation is valid for the merged output only once every
  // shard of this group has emitted it — until then another shard may
  // still hold (and later emit results from) matching tuples.
  int64_t forward_ts = element.timestamp;
  if (group.num_shards > 1 &&
      !group.aligner.Arrive(shard, element.punctuation, element.timestamp,
                            &forward_ts)) {
    return;
  }
  Broadcast(parent, group.parent_input,
            StreamElement::OfPunctuation(element.punctuation, forward_ts));
}

void ParallelExecutor::EmitBatchFromShard(size_t group_idx, size_t shard,
                                          TupleBatch& batch) {
  OpGroup& group = *groups_[group_idx];
  if (group.parent_group == kNone) {
    // Root: the whole batch is results. One atomic add and (when
    // results are kept) one lock section per batch instead of per row.
    num_results_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (config_.keep_results) {
      std::lock_guard<std::mutex> lock(results_mu_);
      for (size_t i = 0; i < batch.size(); ++i) {
        kept_results_.push_back(batch.tuple(i));  // copy re-owns the view
      }
    }
    return;
  }
  // Interior: route and stage row by row (rows of one result batch
  // generally scatter across parent shards), flushing at the same
  // threshold as the per-element path so queue granularity and
  // batch-boundary ordering are unchanged.
  OpGroup& parent = *groups_[group.parent_group];
  Worker& self = *workers_[group.first_worker + shard];
  for (size_t i = 0; i < batch.size(); ++i) {
    size_t target = RouteShard(parent, group.parent_input, batch.tuple(i));
    self.emit_buf[target].Append(batch.tuple(i), batch.timestamp(i));
    if (++self.emit_buffered >= config_.batch_size) FlushEmits(self);
  }
}

void ParallelExecutor::FlushEmits(Worker& worker) {
  if (worker.emit_buffered == 0) return;
  const size_t input = groups_[worker.group]->parent_input;
  OpGroup& parent = *groups_[groups_[worker.group]->parent_group];
  // One clock read covers the whole flush (per-batch sampling); the
  // consumer's latency sample then charges queue wait from here.
  const int64_t now =
      (obs::kCompiled && obs_ != nullptr) ? obs::NowNs() : 0;
  for (size_t s = 0; s < worker.emit_buf.size(); ++s) {
    TupleBatch& staged = worker.emit_buf[s];
    if (staged.empty()) continue;
    Worker& target = *workers_[parent.first_worker + s];
    if (obs::kCompiled && obs_ != nullptr) {
      target.obs->IncRouted(staged.size());
    }
    OpMessage message;
    message.input = input;
    message.enqueue_ns = now;
    if (staged.size() == 1) {
      // Batches of one travel as plain elements: batch_size == 1
      // reproduces the per-tuple delivery path exactly.
      message.element =
          StreamElement::OfTuple(staged.tuple(0), staged.timestamp(0));
    } else {
      message.batch = std::make_shared<TupleBatch>(std::move(staged));
    }
    staged.Clear();  // moved-from state resets to a valid empty batch
    target.queue.Push(std::move(message));
  }
  worker.emit_buffered = 0;
}

size_t ParallelExecutor::RouteShard(const OpGroup& group, size_t input,
                                    const Tuple& tuple) const {
  return group.spec.ShardOf(input, tuple, group.num_shards);
}

bool ParallelExecutor::RouteTuple(OpGroup& group, size_t input,
                                  const StreamElement& element) {
  size_t shard = RouteShard(group, input, element.tuple);
  Worker& target = *workers_[group.first_worker + shard];
  OpMessage message{PipelineMarker::kNone, input, element, 0};
  if (obs::kCompiled && obs_ != nullptr) {
    message.enqueue_ns = obs::NowNs();
    target.obs->IncRouted();
    // Stall heuristic: the size check is racy against the consumer,
    // but a full reading here means the blocking Push below almost
    // certainly waited — good enough for a backpressure counter.
    if (target.queue.size() >= target.queue.capacity()) {
      target.obs->IncStall();
    }
  }
  return target.queue.Push(std::move(message));
}

bool ParallelExecutor::Broadcast(OpGroup& group, size_t input,
                                 const StreamElement& element) {
  // Holding broadcast_mu across the (possibly blocking) pushes is
  // deadlock-free: consumers of these queues never take this mutex —
  // they only take their *parent* group's, and the plan is a tree, so
  // the wait chain ends at the root sink, which always accepts.
  std::lock_guard<std::mutex> lock(group.broadcast_mu);
  bool ok = true;
  for (size_t s = 0; s < group.num_shards; ++s) {
    Worker& target = *workers_[group.first_worker + s];
    OpMessage message{PipelineMarker::kNone, input, element, 0};
    if (obs::kCompiled && obs_ != nullptr) {
      message.enqueue_ns = obs::NowNs();
      if (target.queue.size() >= target.queue.capacity()) {
        target.obs->IncStall();
      }
    }
    ok &= target.queue.Push(std::move(message));
  }
  return ok;
}

void ParallelExecutor::WorkerLoop(size_t index) {
  Worker& worker = *workers_[index];
  while (true) {
    // Batched pop: one lock acquisition per burst (see
    // BoundedQueue::PopAll), and the timestamp merge below sees as
    // much context as possible.
    std::optional<std::deque<OpMessage>> batch = worker.queue.PopAll();
    if (!batch.has_value()) break;  // closed and fully drained
    if (obs::kCompiled && worker.obs != nullptr) {
      worker.obs->RecordQueueBatch(batch->size());
    }

    // Barriers in this batch. The handshake admits at most one
    // outstanding barrier per worker (the driver waits for acks before
    // issuing the next), but the counting stays general. All kinds
    // require processing everything queued before the marker; they
    // differ only in the action run before the ack: drains sweep,
    // rechecks re-evaluate pending propagations, checkpoints do
    // nothing (pure quiescence so the driver can observe state).
    size_t barriers = 0;
    size_t drains = 0;
    bool recheck = false;
    int64_t barrier_ts = 0;
    for (OpMessage& m : *batch) {
      if (m.marker != PipelineMarker::kNone) {
        ++barriers;
        barrier_ts = m.element.timestamp;
        if (m.marker == PipelineMarker::kDrain) ++drains;
        if (m.marker == PipelineMarker::kRecheck) recheck = true;
      } else {
        worker.pending[m.input].push_back(std::move(m));
      }
    }

    ProcessPending(worker);

    if (drains > 0) {
      worker.op->Sweep(barrier_ts);
      SampleHighWater();
      if (obs::kCompiled && worker.obs != nullptr) {
        worker.obs->Note(obs::TraceKind::kDrain, drains);
      }
    }
    if (recheck) {
      // Restore phase 2: runs on this worker thread so re-emitted
      // punctuations flow through the normal aligner/queue path.
      worker.op->RecheckPropagations(barrier_ts);
      SampleHighWater();
    }
    // Flush staged downstream emits at every batch boundary — and,
    // crucially, *before* acking a barrier: the barrier contract
    // promises that everything this shard will ever emit for the
    // barriered epoch is already in the parent's queues when the ack
    // lands.
    FlushEmits(worker);
    if (barriers > 0) {
      {
        std::lock_guard<std::mutex> lock(worker.mu);
        worker.drains_done += barriers;
      }
      worker.drained_cv.notify_all();
    }
  }
  // Shutdown: deliver what was already buffered locally (downstream
  // pushes may fail once their queues close; that is fine, Stop() is
  // the non-graceful path).
  ProcessPending(worker);
  FlushEmits(worker);
}

void ParallelExecutor::ProcessPending(Worker& worker) {
  // Deliver buffered elements in ascending timestamp order across
  // inputs (ties: lowest input index). Per-input order is preserved by
  // the FIFO buffers; the cross-input ordering is best-effort only —
  // an empty buffer is never waited on.
  while (true) {
    size_t best = kNone;
    int64_t best_ts = 0;
    for (size_t i = 0; i < worker.pending.size(); ++i) {
      if (worker.pending[i].empty()) continue;
      int64_t ts = OrderTs(worker.pending[i].front());
      if (best == kNone || ts < best_ts) {
        best = i;
        best_ts = ts;
      }
    }
    if (best == kNone) return;
    OpMessage message = std::move(worker.pending[best].front());
    worker.pending[best].pop_front();
    Deliver(worker, message);
  }
}

void ParallelExecutor::Deliver(Worker& worker, const OpMessage& message) {
  if (message.batch != nullptr) {
    // Whole-batch delivery: one PushBatch call, and per-batch
    // observation sampling — a single clock read closes the latency
    // sample for every row (recorded as the per-tuple mean) and one
    // ring event carries the batch's result count.
    TupleBatch& batch = *message.batch;
    if (obs::kCompiled && worker.obs != nullptr) {
      const uint64_t results_before =
          worker.op->metrics().results_emitted.load(std::memory_order_relaxed);
      worker.op->PushBatch(message.input, batch);
      const int64_t now = obs::NowNs();
      if (message.enqueue_ns != 0 && !batch.empty()) {
        worker.obs->RecordLatencyNs((now - message.enqueue_ns) /
                                    static_cast<int64_t>(batch.size()));
      }
      worker.obs->NoteAt(
          now, obs::TraceKind::kTupleIn, message.input,
          worker.op->metrics().results_emitted.load(
              std::memory_order_relaxed) -
              results_before);
    } else {
      worker.op->PushBatch(message.input, batch);
    }
    SampleHighWater();
    return;
  }
  const StreamElement& element = message.element;
  if (element.is_tuple()) {
    if (obs::kCompiled && worker.obs != nullptr) {
      const uint64_t results_before =
          worker.op->metrics().results_emitted.load(std::memory_order_relaxed);
      worker.op->PushTuple(message.input, element.tuple, element.timestamp);
      // Latency sample: pipeline-edge enqueue -> processed by this
      // shard (queue wait + reorder buffering + the operator's own
      // work). One clock read covers both the sample and the trace.
      const int64_t now = obs::NowNs();
      if (message.enqueue_ns != 0) {
        worker.obs->RecordLatencyNs(now - message.enqueue_ns);
      }
      worker.obs->NoteAt(
          now, obs::TraceKind::kTupleIn, message.input,
          worker.op->metrics().results_emitted.load(
              std::memory_order_relaxed) -
              results_before);
    } else {
      worker.op->PushTuple(message.input, element.tuple, element.timestamp);
    }
  } else {
    worker.op->PushPunctuation(message.input, element.punctuation,
                               element.timestamp);
  }
  SampleHighWater();
}

void ParallelExecutor::SampleHighWater() {
  size_t tuples = 0;
  size_t puncts = 0;
  for (const auto& group : groups_) {
    size_t group_puncts = 0;
    for (size_t s = 0; s < group->num_shards; ++s) {
      const MJoinOperator& op = *operators_[group->first_worker + s];
      for (size_t i = 0; i < op.num_inputs(); ++i) {
        tuples += op.state_metrics(i).live.load(std::memory_order_relaxed);
      }
      // Punctuations are broadcast: every shard holds the full store,
      // so the logical count is the max over shards, not the sum.
      group_puncts = std::max(
          group_puncts,
          op.metrics().punctuations_live.load(std::memory_order_relaxed));
    }
    puncts += group_puncts;
  }
  internal::AtomicMax(tuple_high_water_, tuples);
  internal::AtomicMax(punct_high_water_, puncts);
}

Status ParallelExecutor::Push(const TraceEvent& event) {
  auto idx = query_.StreamIndex(event.stream);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("stream '", event.stream, "' not part of ", query_.ToString()));
  }
  auto [group_idx, input] = leaf_route_[*idx];
  if (group_idx == kNone) {
    return Status::Internal(
        StrCat("stream '", event.stream, "' has no leaf route"));
  }
  OpGroup& group = *groups_[group_idx];
  if (event.element.is_tuple() && config_.batch_size > 1) {
    // Batched ingestion: accumulate the run, flush on stream change /
    // full batch. The tuple is accepted into the buffer now; a flush
    // that fails later means Stop() closed the pipeline.
    if (!ingest_batch_.empty() && ingest_stream_ != *idx) {
      if (!FlushIngest()) {
        return Status::FailedPrecondition("parallel executor is stopped");
      }
    }
    ingest_stream_ = *idx;
    ingest_batch_.Append(event.element.tuple, event.element.timestamp);
    NoteProgress(*idx, event.element.timestamp);
    if (ingest_batch_.full() && !FlushIngest()) {
      return Status::FailedPrecondition("parallel executor is stopped");
    }
    return Status::OK();
  }
  if (!event.element.is_tuple() && !FlushIngest()) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  bool ok = event.element.is_tuple()
                ? RouteTuple(group, input, event.element)
                : Broadcast(group, input, event.element);
  if (!ok) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  NoteProgress(*idx, event.element.timestamp);
  if (!event.element.is_tuple()) {
    MaybeAutoCheckpoint(event.element.timestamp);
  }
  return Status::OK();
}

bool ParallelExecutor::FlushIngest() {
  if (ingest_batch_.empty()) return true;
  auto [group_idx, input] = leaf_route_[ingest_stream_];
  OpGroup& group = *groups_[group_idx];
  bool ok = true;
  if (group.num_shards > 1) {
    // Single-pass scatter into per-shard sub-batches, then one queue
    // message per non-empty shard.
    ScatterBatch(group.spec, input, ingest_batch_, group.num_shards,
                 &scatter_scratch_);
    for (size_t s = 0; s < group.num_shards; ++s) {
      if (scatter_scratch_[s].empty()) continue;
      ok &= PushIngestBatch(group, s, input, &scatter_scratch_[s]);
    }
  } else {
    ok = PushIngestBatch(group, 0, input, &ingest_batch_);
  }
  ingest_batch_.Clear();
  return ok;
}

bool ParallelExecutor::PushIngestBatch(OpGroup& group, size_t shard,
                                       size_t input, TupleBatch* batch) {
  Worker& target = *workers_[group.first_worker + shard];
  OpMessage message;
  message.input = input;
  if (obs::kCompiled && obs_ != nullptr) {
    message.enqueue_ns = obs::NowNs();
    target.obs->IncRouted(batch->size());
    if (target.queue.size() >= target.queue.capacity()) {
      target.obs->IncStall();
    }
  }
  if (batch->size() == 1) {
    // Scatter can strand a single row on a shard; it rides as a plain
    // element message (same delivery path as batch_size == 1).
    message.element =
        StreamElement::OfTuple(batch->tuple(0), batch->timestamp(0));
  } else {
    message.batch = std::make_shared<TupleBatch>(std::move(*batch));
  }
  batch->Clear();
  return target.queue.Push(std::move(message));
}

void ParallelExecutor::PushTuple(size_t stream, const Tuple& tuple,
                                 int64_t ts) {
  if (config_.batch_size > 1) {
    if (!ingest_batch_.empty() && ingest_stream_ != stream) {
      if (!FlushIngest()) return;
    }
    ingest_stream_ = stream;
    ingest_batch_.Append(tuple, ts);
    NoteProgress(stream, ts);
    if (ingest_batch_.full()) FlushIngest();
    return;
  }
  auto [group_idx, input] = leaf_route_[stream];
  if (RouteTuple(*groups_[group_idx], input,
                 StreamElement::OfTuple(tuple, ts))) {
    NoteProgress(stream, ts);
  }
}

void ParallelExecutor::PushPunctuation(size_t stream,
                                       const Punctuation& punctuation,
                                       int64_t ts) {
  // Batch-boundary ordering: buffered tuples reach the shard queues
  // before the punctuation is broadcast.
  if (!FlushIngest()) return;
  auto [group_idx, input] = leaf_route_[stream];
  if (Broadcast(*groups_[group_idx], input,
                StreamElement::OfPunctuation(punctuation, ts))) {
    NoteProgress(stream, ts);
    MaybeAutoCheckpoint(ts);
  }
}

void ParallelExecutor::NoteProgress(size_t stream, int64_t ts) {
  InputProgress& p = progress_[stream];
  ++p.events_consumed;
  p.watermark_ts = std::max(p.watermark_ts, ts);
}

void ParallelExecutor::MaybeAutoCheckpoint(int64_t ts) {
  if (config_.checkpoint.interval_punctuations == 0) return;
  if (++punctuations_since_checkpoint_ <
      config_.checkpoint.interval_punctuations) {
    return;
  }
  punctuations_since_checkpoint_ = 0;
  if (config_.checkpoint.path.empty()) return;
  Result<StateSnapshot> snap = Checkpoint(ts);
  Status status = snap.ok()
                      ? WriteSnapshotFile(*snap, config_.checkpoint.path)
                      : snap.status();
  if (!status.ok()) {
    PUNCTSAFE_LOG(Warning) << "automatic checkpoint to '"
                           << config_.checkpoint.path
                           << "' failed: " << status.ToString();
  }
}

Status ParallelExecutor::BarrierAll(PipelineMarker marker, int64_t now) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  // The barrier contract covers everything pushed so far — including
  // tuples still sitting in the driver's ingest buffer.
  if (!FlushIngest()) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  // Leaves-first (groups_ is post-order, children before parents):
  // once every shard of operator j's children has acked its marker,
  // every element they will ever emit is already in j's shard queues,
  // so j's markers are provably last and their acks mean the whole
  // group is caught up (and swept / rechecked, per marker kind).
  // Markers go through Broadcast-style pushes under broadcast_mu so
  // they order consistently against punctuation broadcasts.
  for (size_t j = 0; j < groups_.size(); ++j) {
    OpGroup& group = *groups_[j];
    std::vector<uint64_t> targets(group.num_shards);
    for (size_t s = 0; s < group.num_shards; ++s) {
      targets[s] = ++workers_[group.first_worker + s]->drains_requested;
    }
    {
      std::lock_guard<std::mutex> lock(group.broadcast_mu);
      for (size_t s = 0; s < group.num_shards; ++s) {
        OpMessage message;
        message.marker = marker;
        message.element.timestamp = now;
        if (!workers_[group.first_worker + s]->queue.Push(
                std::move(message))) {
          return Status::FailedPrecondition("parallel executor is stopped");
        }
      }
    }
    for (size_t s = 0; s < group.num_shards; ++s) {
      Worker& worker = *workers_[group.first_worker + s];
      std::unique_lock<std::mutex> lock(worker.mu);
      worker.drained_cv.wait(
          lock, [&] { return worker.drains_done >= targets[s]; });
    }
  }
  return Status::OK();
}

Status ParallelExecutor::Drain(int64_t now) {
  return BarrierAll(PipelineMarker::kDrain, now);
}

Result<StateSnapshot> ParallelExecutor::Checkpoint(int64_t now) {
  // After the barrier every worker has processed everything queued
  // ahead of its marker and is parked on an empty queue; the ack under
  // worker.mu publishes its operator mutations to this thread, so the
  // driver can read shard state directly.
  PUNCTSAFE_RETURN_IF_ERROR(BarrierAll(PipelineMarker::kCheckpoint, now));
  StateSnapshot snap;
  snap.fingerprint = PlanFingerprint(query_, shape_);
  snap.progress = progress_;
  snap.num_results = num_results();
  snap.results = kept_results();
  snap.tuple_high_water = tuple_high_water();
  snap.punct_high_water = punctuation_high_water();
  snap.operators.reserve(groups_.size());
  for (const auto& group : groups_) {
    // Fold the shard captures into the logical operator's snapshot —
    // the same monoid the split/merge laws are stated over, so a
    // K-shard checkpoint equals the serial executor's byte-for-byte
    // once canonicalized.
    OperatorStateSnapshot merged =
        operators_[group->first_worker]->CaptureState();
    for (size_t s = 1; s < group->num_shards; ++s) {
      merged = MergeOperatorSnapshots(
          merged, operators_[group->first_worker + s]->CaptureState());
    }
    snap.operators.push_back(std::move(merged));
  }
  CanonicalizeSnapshot(&snap);
  return snap;
}

Status ParallelExecutor::RestoreState(const StateSnapshot& snapshot) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  if (snapshot.fingerprint != PlanFingerprint(query_, shape_)) {
    return Status::InvalidArgument(
        StrCat("snapshot fingerprint '", snapshot.fingerprint,
               "' does not match this plan '",
               PlanFingerprint(query_, shape_), "'"));
  }
  if (snapshot.operators.size() != groups_.size()) {
    return Status::InvalidArgument(
        StrCat("snapshot has ", snapshot.operators.size(),
               " operators but the plan has ", groups_.size()));
  }
  // Phase 1: rebuild each shard's state directly from the driver
  // thread. The fresh-executor contract means nothing has been queued,
  // so every worker is parked in PopAll and never touches its operator
  // concurrently; the phase-2 barrier's queue pushes publish these
  // writes to the worker threads.
  for (size_t j = 0; j < groups_.size(); ++j) {
    PUNCTSAFE_RETURN_IF_ERROR(
        RestoreGroupFromLogical(*groups_[j], snapshot.operators[j]));
  }
  progress_ = snapshot.progress;
  progress_.resize(query_.num_streams());
  num_results_.store(snapshot.num_results, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    kept_results_ = snapshot.results;
  }
  tuple_high_water_.store(snapshot.tuple_high_water,
                          std::memory_order_relaxed);
  punct_high_water_.store(snapshot.punct_high_water,
                          std::memory_order_relaxed);
  // Phase 2: pending propagations were replicated to every shard, but
  // a shard that had already cleared (and voted at the aligner) before
  // the snapshot must re-emit — the crash discarded its vote. The
  // recheck barrier runs on the worker threads, leaves-first, so those
  // re-emissions flow through the normal aligner/queue path and the
  // aligner completes exactly once when the last shard clears during
  // replay (docs/RECOVERY.md).
  int64_t now = 0;
  for (const InputProgress& p : progress_) {
    now = std::max(now, p.watermark_ts);
  }
  return BarrierAll(PipelineMarker::kRecheck, now);
}

Status ParallelExecutor::RestoreGroupFromLogical(
    OpGroup& group, const OperatorStateSnapshot& logical) {
  const size_t num_inputs = operators_[group.first_worker]->num_inputs();
  if (logical.inputs.size() != num_inputs) {
    return Status::InvalidArgument(
        StrCat("snapshot operator has ", logical.inputs.size(),
               " inputs but the operator has ", num_inputs));
  }
  // Split the logical snapshot across the group's shards: tuples by
  // PartitionSpec::ShardOf (the same route live tuples take, so
  // restored and replayed tuples agree on their shard), punctuations /
  // pending / sweep counters replicated (broadcast state — every shard
  // holds the full set), summed counters and result credits on shard 0
  // only.
  std::vector<OperatorStateSnapshot> pieces(group.num_shards);
  for (size_t s = 0; s < group.num_shards; ++s) {
    OperatorStateSnapshot& piece = pieces[s];
    piece.inputs.resize(num_inputs);
    piece.pending = logical.pending;
    piece.punctuations_purged = logical.punctuations_purged;
    piece.punctuations_since_sweep = logical.punctuations_since_sweep;
    piece.op_metrics = logical.op_metrics;
    if (s != 0) {
      piece.op_metrics.results_emitted = 0;
      piece.op_metrics.removability_checks = 0;
    }
    for (size_t k = 0; k < num_inputs; ++k) {
      piece.inputs[k].punctuations = logical.inputs[k].punctuations;
      if (s == 0) {
        piece.inputs[k].state_metrics = logical.inputs[k].state_metrics;
        piece.inputs[k].state_metrics.live = 0;  // recomputed below
      }
    }
  }
  for (size_t k = 0; k < num_inputs; ++k) {
    for (const Tuple& tuple : logical.inputs[k].tuples) {
      const size_t target = RouteShard(group, k, tuple);
      pieces[target].inputs[k].tuples.push_back(tuple);
      pieces[target].inputs[k].state_metrics.live += 1;
    }
    // Gauge drift (a hand-edited snapshot whose live gauge disagrees
    // with its tuple list) lands on shard 0, mirroring SplitSnapshot.
    const uint64_t listed = logical.inputs[k].tuples.size();
    if (logical.inputs[k].state_metrics.live > listed) {
      pieces[0].inputs[k].state_metrics.live +=
          logical.inputs[k].state_metrics.live - listed;
    }
  }
  for (size_t s = 0; s < group.num_shards; ++s) {
    PUNCTSAFE_RETURN_IF_ERROR(
        operators_[group.first_worker + s]->RestoreState(pieces[s]));
  }
  return Status::OK();
}

void ParallelExecutor::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

size_t ParallelExecutor::TotalLiveTuples() const {
  // Tuples partition across a group's shards (each stored exactly
  // once), so the plain sum is the logical total.
  size_t total = 0;
  for (const auto& op : operators_) {
    for (size_t i = 0; i < op->num_inputs(); ++i) {
      total += op->state_metrics(i).live.load(std::memory_order_relaxed);
    }
  }
  return total;
}

size_t ParallelExecutor::TotalLivePunctuations() const {
  size_t total = 0;
  for (const auto& group : groups_) {
    size_t group_puncts = 0;
    for (size_t s = 0; s < group->num_shards; ++s) {
      group_puncts = std::max(
          group_puncts, operators_[group->first_worker + s]
                            ->metrics()
                            .punctuations_live.load(std::memory_order_relaxed));
    }
    total += group_puncts;
  }
  return total;
}

std::vector<ParallelExecutor::OperatorGroupSnapshot>
ParallelExecutor::GroupSnapshots() const {
  std::vector<OperatorGroupSnapshot> out;
  out.reserve(groups_.size());
  for (const auto& group : groups_) {
    OperatorGroupSnapshot snap;
    snap.num_shards = group->num_shards;
    snap.partitioned = group->num_shards > 1;
    snap.partition_detail = group->spec.detail;
    for (size_t s = 0; s < group->num_shards; ++s) {
      const MJoinOperator& op = *operators_[group->first_worker + s];
      StateMetricsSnapshot shard = op.AggregateStateSnapshot();
      snap.aggregate += shard;
      snap.shard_live.push_back(shard.live);
      snap.shard_high_water.push_back(shard.high_water);
      snap.punctuations_live =
          std::max(snap.punctuations_live,
                   op.metrics().punctuations_live.load(
                       std::memory_order_relaxed));
    }
    out.push_back(std::move(snap));
  }
  return out;
}

obs::ObsSnapshot ParallelExecutor::ObservabilitySnapshot() const {
  obs::ObsSnapshot snap;
  snap.executor = "parallel";
  snap.simd_dispatch = simd::kDispatchName;
  snap.batch_size = config_.batch_size;
  snap.results = num_results();
  snap.live_tuples = TotalLiveTuples();
  snap.live_punctuations = TotalLivePunctuations();
  snap.tuple_high_water = tuple_high_water();
  snap.punctuation_high_water = punctuation_high_water();
  if (obs_ == nullptr) return snap;
  snap.operators.reserve(workers_.size());
  for (const auto& group : groups_) {
    const size_t aligner_pending = group->aligner.pending();
    const size_t aligner_hw = group->aligner.pending_high_water();
    for (size_t s = 0; s < group->num_shards; ++s) {
      const size_t w = group->first_worker + s;
      obs::OperatorObsEntry entry;
      entry.CaptureFrom(*workers_[w]->obs);
      entry.num_shards = group->num_shards;
      entry.partitioned = group->num_shards > 1;
      entry.partition_detail = group->spec.detail;
      entry.state = operators_[w]->AggregateStateSnapshot();
      entry.op_metrics = operators_[w]->metrics().Snapshot();
      // Group-level gauges, replicated onto each shard entry (the
      // aligner is per group; consumers should read shard 0's).
      entry.aligner_pending = aligner_pending;
      entry.aligner_pending_high_water = aligner_hw;
      snap.operators.push_back(std::move(entry));
    }
  }
  return snap;
}

std::vector<Tuple> ParallelExecutor::kept_results() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  return kept_results_;
}

std::vector<Tuple> ParallelExecutor::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<Tuple> out = std::move(kept_results_);
  kept_results_.clear();
  return out;
}

Status FeedTraceParallel(ParallelExecutor* executor, const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& event : trace) {
    PUNCTSAFE_RETURN_IF_ERROR(executor->Push(event));
    if (event.element.timestamp > max_ts) max_ts = event.element.timestamp;
  }
  return executor->Drain(max_ts + 1);
}

}  // namespace punctsafe
