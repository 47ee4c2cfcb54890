#include "exec/parallel_executor.h"

#include <algorithm>
#include <condition_variable>
#include <optional>
#include <thread>
#include <utility>

#include "exec/bounded_queue.h"
#include "exec/operator_tree.h"
#include "exec/simd.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

}  // namespace

// The one tuple transport between threads: rows bound for one shard,
// of any of its inputs, with the key-routed punctuations that ride
// between them, in the order they were staged. The driver stages one
// per leaf shard and each worker one per parent shard; it ships as one
// queue message weighing items(), and the destination worker hands it
// back to its own free list once delivered. Clear() keeps the pooled
// row and punctuation slots (TupleBatch's pooling), so a recycled
// buffer refills by copy-assignment into warm storage.
struct ShardBuffer {
  // A punctuation riding in front of row `at`.
  struct Riding {
    size_t at = 0;
    size_t input = 0;
    Punctuation punctuation;
    int64_t ts = 0;
  };

  size_t items() const { return rows.size() + num_riding; }
  // Row slots this buffer keeps once cleared (at least 1, so an empty
  // buffer still counts against the free list's budget).
  size_t slots() const { return std::max<size_t>(1, rows.TupleCapacity()); }

  void AppendRow(size_t input, const Tuple& tuple, int64_t ts) {
    rows.Append(tuple, ts);
    inputs.push_back(static_cast<uint32_t>(input));
  }

  void AppendPunctuation(size_t input, const Punctuation& p, int64_t ts) {
    if (num_riding == riding.size()) riding.emplace_back();
    Riding& r = riding[num_riding++];
    r.at = rows.size();
    r.input = input;
    r.punctuation = p;
    r.ts = ts;
  }

  // The first item's input and timestamp: the message's merge lane
  // and ordering key.
  bool punctuation_first() const { return num_riding > 0 && riding[0].at == 0; }
  size_t first_input() const {
    return punctuation_first() ? riding[0].input : inputs[0];
  }
  int64_t first_ts() const {
    return punctuation_first() ? riding[0].ts : rows.first_timestamp();
  }

  void Clear() {
    rows.Clear();
    inputs.clear();
    num_riding = 0;
  }

  // The staged rows, and the input each came from. Capacity 1 reserves
  // nothing up front: items(), not rows.full(), decides when a buffer
  // ships, and slots grow on demand, so a buffer only ever holds what
  // it has carried (a hand-off to a parked worker may carry one row).
  TupleBatch rows{1};
  std::vector<uint32_t> inputs;
  std::vector<Riding> riding;  // pooled; [0, num_riding) are live
  size_t num_riding = 0;
};

// One message on a shard's input queue: a shard buffer, a lone
// punctuation for `input` (broadcast, or forwarded by a child group),
// or a barrier marker (drain / checkpoint / recheck — processed after
// everything queued before it; the pushing thread guarantees all
// producers are quiescent first).
struct OpMessage {
  PipelineMarker marker = PipelineMarker::kNone;
  // The punctuation's input, or a buffer's first item's (which names
  // its merge lane).
  size_t input = 0;
  // Merge-ordering key: the punctuation's or marker's timestamp, or a
  // buffer's first item's.
  int64_t ts = 0;
  Punctuation punctuation;
  std::unique_ptr<ShardBuffer> buffer;
  // Steady-clock stamp taken when the message entered the pipeline
  // edge. Only populated while observability is on; Deliver turns it
  // into the consumer's latency sample, so the measured latency covers
  // queue wait + reorder buffering + processing — for a buffer, one
  // stamp and one sample (the per-row mean) cover every row. 0 when
  // observability is off.
  int64_t enqueue_ns = 0;
};

namespace {

OpMessage BufferMessage(std::unique_ptr<ShardBuffer> buffer,
                        int64_t enqueue_ns) {
  OpMessage message;
  message.input = buffer->first_input();
  message.ts = buffer->first_ts();
  message.buffer = std::move(buffer);
  message.enqueue_ns = enqueue_ns;
  return message;
}

}  // namespace

// One shard worker: exclusive owner of one MJoinOperator replica.
struct ParallelExecutor::Worker {
  // The free list keeps buffers while the row slots they hold total at
  // most 2 * (queue_capacity + batch_size): about the rows that can be
  // in flight to this shard at once (a queue's worth queued, a burst
  // being delivered, plus the staged ones). At batch_size 1 and the
  // default capacity that is 2,050 one-row buffers, so every buffer of
  // steady traffic comes back warm.
  explicit Worker(const ExecutorConfig& config)
      : queue(config.queue_capacity),
        free_slots_kept(2 * (config.queue_capacity + config.batch_size)) {}

  // A reorder buffer of the timestamp merge: the messages of one lane
  // in queue order, delivered from `head`.
  struct Lane {
    std::vector<OpMessage> messages;
    size_t head = 0;
  };

  // A buffer for this shard: a recycled one if any, else a new one.
  // Any producer thread.
  std::unique_ptr<ShardBuffer> TakeBuffer() {
    {
      std::lock_guard<std::mutex> lock(free_mu);
      if (!free_buffers.empty()) {
        std::unique_ptr<ShardBuffer> buffer = std::move(free_buffers.back());
        free_buffers.pop_back();
        free_slots -= buffer->slots();
        return buffer;
      }
    }
    return std::make_unique<ShardBuffer>();
  }
  // A delivered buffer goes back for reuse (this worker's thread)
  // unless its slots would take the free list past free_slots_kept;
  // each buffer keeps the slots it ever grew, so the surplus is freed.
  void ReturnBuffer(std::unique_ptr<ShardBuffer> buffer) {
    buffer->Clear();
    const size_t slots = buffer->slots();
    std::lock_guard<std::mutex> lock(free_mu);
    if (free_slots + slots <= free_slots_kept) {
      free_slots += slots;
      free_buffers.push_back(std::move(buffer));
    }
  }

  MJoinOperator* op = nullptr;
  BoundedQueue<OpMessage> queue;
  // The timestamp merge's reorder buffers, one lane per input fed by a
  // child group and one shared by every input the driver feeds (the
  // driver stages them in arrival order, which is the order to keep).
  // Whole messages, so the enqueue stamp survives buffering and the
  // latency sample charges reorder wait to this shard.
  std::vector<Lane> lanes;
  std::vector<size_t> lane_of;  // input -> index into lanes
  // The popped burst (PopAll swaps into it) and the view batch each
  // run of same-input rows is delivered through.
  std::vector<OpMessage> popped;
  TupleBatch run;
  std::thread thread;

  // Recycled buffers bound for this shard: every producer takes one
  // here, and this worker returns each one it has delivered.
  std::mutex free_mu;
  std::vector<std::unique_ptr<ShardBuffer>> free_buffers;
  size_t free_slots = 0;  // summed slots() of free_buffers
  const size_t free_slots_kept;

  // This shard's observation point (null when observability is off).
  // The worker thread is the only writer of its histograms; other
  // threads (the driver's routing, ingest and stall accounting) touch
  // only its atomic counters.
  obs::OperatorObs* obs = nullptr;

  // Owning group index, and the downstream emit staging: result
  // tuples this shard produces are staged into one buffer per *parent*
  // shard and flushed as one queue message per buffer once
  // ExecutorConfig::batch_size rows are staged. Touched only by this
  // worker's thread (emits run inside op->Push*, on this thread);
  // root-group workers keep it empty. Flush-before-punctuation and
  // flush-before-drain-ack preserve the per-queue FIFO invariant that
  // a punctuation never overtakes the tuples it covers.
  size_t group = 0;
  std::vector<std::unique_ptr<ShardBuffer>> emit_buf;
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
  // Serializes punctuation and marker sends into this group so every
  // shard observes the same order of the punctuations it receives (see
  // docs/CONCURRENCY.md).
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
      auto worker = std::make_unique<Worker>(config);
      worker->op = op.get();
      worker->lanes.resize(op->num_inputs());
      worker->lane_of.resize(op->num_inputs());
      for (size_t i = 0; i < op->num_inputs(); ++i) worker->lane_of[i] = i;
      // Key-routed punctuations live on one shard each: the operator
      // counts them apart so the logical total stays exact.
      if (shards > 1 && group->spec.routes_punctuations) {
        op->SetPartitionKey(group->spec.hash_offsets);
      }
      exec->operators_.push_back(std::move(op));
      exec->workers_.push_back(std::move(worker));
    }
    exec->groups_.push_back(std::move(group));
  }

  // Wiring: every shard's results go through EmitBatchFromShard, which
  // hashes them into the parent group's shard queues (the root's land
  // in the executor's sink). Only shards of non-root groups get the
  // element channel, EmitFromShard, which funnels their output
  // punctuations through the group's aligner; a root shard propagates
  // nothing. (Both run on the emitting shard's worker thread.)
  for (size_t j = 0; j < num_groups; ++j) {
    const OperatorTree::ParentEdge& edge = tree.parents[j];
    if (edge.parent_op != OperatorTree::ParentEdge::kNoParent) {
      exec->groups_[j]->parent_group = edge.parent_op;
      exec->groups_[j]->parent_input = edge.parent_input;
    }
    OpGroup& group = *exec->groups_[j];
    for (size_t s = 0; s < group.num_shards; ++s) {
      Worker& worker = *exec->workers_[group.first_worker + s];
      MJoinOperator& op = *exec->operators_[group.first_worker + s];
      worker.group = j;
      op.SetBatchEmitter(
          [raw, j, s](TupleBatch& b) { raw->EmitBatchFromShard(j, s, b); });
      if (group.parent_group == kNone) continue;
      worker.emit_buf.resize(exec->groups_[group.parent_group]->num_shards);
      op.SetEmitter(
          [raw, j, s](const StreamElement& e) { raw->EmitFromShard(j, s, e); });
    }
  }

  exec->progress_.resize(query.num_streams());
  exec->leaf_route_ = tree.leaf_route;
  exec->stage_.resize(exec->workers_.size());
  // Every input the driver feeds shares its shard's first such lane.
  std::vector<size_t> driver_lane(num_groups, kNone);
  for (const auto& [group_idx, input] : exec->leaf_route_) {
    driver_lane[group_idx] = std::min(driver_lane[group_idx], input);
  }
  for (const auto& [group_idx, input] : exec->leaf_route_) {
    const OpGroup& leaf = *exec->groups_[group_idx];
    for (size_t k = 0; k < leaf.num_shards; ++k) {
      exec->workers_[leaf.first_worker + k]->lane_of[input] =
          driver_lane[group_idx];
    }
  }

  // Observation points: one per shard worker, registered before any
  // worker thread starts (the registry is append-only afterwards).
  if (config.observe) {
    exec->obs_ = std::make_unique<obs::Observability>();
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
  // An output punctuation of a non-root shard (results travel through
  // EmitBatchFromShard). Flush this shard's staged tuples first so the
  // punctuation cannot overtake them in the parent queues. Every voting
  // shard flushes before its aligner arrival, and arrivals
  // happen-before the completing shard's send, so all covered tuples
  // are queued ahead of the forwarded punctuation.
  OpGroup& group = *groups_[group_idx];
  FlushEmits(*workers_[group.first_worker + shard]);
  // The punctuation is valid for the merged output only once every
  // shard that may still hold (and later emit results from) matching
  // tuples has emitted it: the key's owner for a key-pinned one, else
  // every shard.
  const Punctuation& p = element.punctuation;
  int64_t forward_ts = element.timestamp;
  if (group.num_shards > 1 &&
      !group.aligner.Arrive(shard, p, element.timestamp,
                            group.spec.OutputPunctuationShard(
                                p, group.num_shards),
                            &forward_ts)) {
    return;
  }
  OpGroup& parent = *groups_[group.parent_group];
  SendPunctuation(
      parent, group.parent_input, p, forward_ts,
      parent.spec.PunctuationShard(group.parent_input, p, parent.num_shards));
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
  // Interior: route and stage row by row into the per-parent-shard
  // buffers (rows of one result batch generally scatter across parent
  // shards), flushing every batch_size staged rows. This re-hash onto
  // the parent's partition key repartitions between operators: child
  // and parent may shard on different equivalence classes. A failed
  // flush means Stop() closed the pipeline; rows are dropped (the
  // non-graceful path).
  OpGroup& parent = *groups_[group.parent_group];
  Worker& self = *workers_[group.first_worker + shard];
  for (size_t i = 0; i < batch.size(); ++i) {
    const size_t target = parent.spec.ShardOf(
        group.parent_input, batch.tuple(i), parent.num_shards);
    std::unique_ptr<ShardBuffer>& staged = self.emit_buf[target];
    if (staged == nullptr) {
      staged = workers_[parent.first_worker + target]->TakeBuffer();
    }
    staged->AppendRow(group.parent_input, batch.tuple(i), batch.timestamp(i));
    if (++self.emit_buffered >= config_.batch_size) FlushEmits(self);
  }
}

void ParallelExecutor::FlushEmits(Worker& worker) {
  if (worker.emit_buffered == 0) return;
  OpGroup& parent = *groups_[groups_[worker.group]->parent_group];
  // One clock read covers the whole flush (per-batch sampling); the
  // consumer's latency sample then charges queue wait from here.
  const int64_t now = obs_ != nullptr ? obs::NowNs() : 0;
  for (size_t s = 0; s < worker.emit_buf.size(); ++s) {
    std::unique_ptr<ShardBuffer>& staged = worker.emit_buf[s];
    if (staged == nullptr) continue;
    Worker& target = *workers_[parent.first_worker + s];
    if (obs_ != nullptr) target.obs->IncRouted(staged->rows.size());
    const size_t weight = staged->items();
    target.queue.Push(BufferMessage(std::move(staged), now), weight);
  }
  worker.emit_buffered = 0;
}

bool ParallelExecutor::SendPunctuation(OpGroup& group, size_t input,
                                       const Punctuation& punctuation,
                                       int64_t ts, size_t target) {
  // Holding broadcast_mu across the (possibly blocking) pushes is
  // deadlock-free: consumers of these queues never take this mutex —
  // they only take their *parent* group's, and the plan is a tree, so
  // the wait chain ends at the root sink, which always accepts.
  const bool unicast = target != PartitionSpec::kAllShards;
  const size_t begin = unicast ? target : 0;
  const size_t end = unicast ? target + 1 : group.num_shards;
  std::lock_guard<std::mutex> lock(group.broadcast_mu);
  bool ok = true;
  for (size_t s = begin; s < end; ++s) {
    Worker& worker = *workers_[group.first_worker + s];
    OpMessage message;
    message.input = input;
    message.ts = ts;
    message.punctuation = punctuation;
    if (obs_ != nullptr) {
      message.enqueue_ns = obs::NowNs();
      worker.obs->NotePunctuationDelivery(unicast);
      if (worker.queue.weight() >= worker.queue.capacity()) {
        worker.obs->IncStall();
      }
    }
    ok &= worker.queue.Push(std::move(message));
  }
  return ok;
}

void ParallelExecutor::WorkerLoop(size_t index) {
  Worker& worker = *workers_[index];
  // Batched pop: one lock acquisition per burst (see
  // BoundedQueue::PopAll), and the timestamp merge below sees as much
  // context as possible.
  while (worker.queue.PopAll(&worker.popped)) {
    // Barriers in this burst. The handshake admits at most one
    // outstanding barrier per worker (the driver waits for acks before
    // issuing the next), but the counting stays general. All kinds
    // require processing everything queued before the marker; they
    // differ only in the action run before the ack: drains sweep,
    // rechecks re-evaluate pending propagations, checkpoints do
    // nothing (pure quiescence so the driver can observe state).
    size_t barriers = 0;
    bool drain = false;
    bool recheck = false;
    int64_t barrier_ts = 0;
    uint64_t elements = 0;
    for (OpMessage& m : worker.popped) {
      if (m.marker != PipelineMarker::kNone) {
        ++barriers;
        barrier_ts = m.ts;
        if (m.marker == PipelineMarker::kDrain) drain = true;
        if (m.marker == PipelineMarker::kRecheck) recheck = true;
      } else {
        elements += m.buffer != nullptr ? m.buffer->items() : 1;
        worker.lanes[worker.lane_of[m.input]].messages.push_back(std::move(m));
      }
    }
    if (worker.obs != nullptr) worker.obs->RecordQueueBatch(elements + barriers);

    ProcessPending(worker);

    if (drain) {
      worker.op->Sweep(barrier_ts);
      SampleHighWater();
    }
    if (recheck) {
      // Restore phase 2: runs on this worker thread so re-emitted
      // punctuations flow through the normal aligner/queue path.
      worker.op->RecheckPropagations(barrier_ts);
      SampleHighWater();
    }
    // Flush staged downstream emits at every burst boundary — and,
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
  // Closed and drained. Downstream pushes may fail once their queues
  // close; that is fine, Stop() is the non-graceful path.
  FlushEmits(worker);
}

void ParallelExecutor::ProcessPending(Worker& worker) {
  // Deliver buffered messages in ascending timestamp order across
  // lanes (ties: lowest lane). Per-lane order is preserved; the
  // cross-lane ordering is best-effort only — an empty lane is never
  // waited on. Every lane is drained before this returns.
  while (true) {
    Worker::Lane* best = nullptr;
    int64_t best_ts = 0;
    for (Worker::Lane& lane : worker.lanes) {
      if (lane.head == lane.messages.size()) continue;
      const int64_t ts = lane.messages[lane.head].ts;
      if (best == nullptr || ts < best_ts) {
        best = &lane;
        best_ts = ts;
      }
    }
    if (best == nullptr) break;
    Deliver(worker, best->messages[best->head++]);
  }
  for (Worker::Lane& lane : worker.lanes) {
    lane.messages.clear();
    lane.head = 0;
  }
}

void ParallelExecutor::Deliver(Worker& worker, OpMessage& message) {
  if (message.buffer == nullptr) {
    worker.op->PushPunctuation(message.input, message.punctuation,
                               message.ts);
    SampleHighWater();
    return;
  }
  // A buffer, in staging order: each run of same-input rows as one
  // view batch, each riding punctuation in place.
  const ShardBuffer& buffer = *message.buffer;
  const TupleBatch& rows = buffer.rows;
  size_t row = 0;
  for (size_t p = 0; p <= buffer.num_riding; ++p) {
    const size_t end = p < buffer.num_riding ? buffer.riding[p].at
                                             : rows.size();
    while (row < end) {
      const uint32_t input = buffer.inputs[row];
      worker.run.Clear();
      do {
        const Tuple& tuple = rows.tuple(row);
        worker.run.AppendView(tuple.begin(), tuple.size(), rows.timestamp(row));
        ++row;
      } while (row < end && buffer.inputs[row] == input);
      worker.op->PushBatch(input, worker.run);
      SampleHighWater();
    }
    if (p < buffer.num_riding) {
      const ShardBuffer::Riding& r = buffer.riding[p];
      worker.op->PushPunctuation(r.input, r.punctuation, r.ts);
      SampleHighWater();
    }
  }
  // Per-message observation sampling: the latency sample covers
  // pipeline-edge enqueue -> processed by this shard (queue wait +
  // reorder buffering + the operator's own work), recorded as the
  // per-row mean; one clock read closes it.
  if (worker.obs != nullptr && message.enqueue_ns != 0 && !rows.empty()) {
    worker.obs->RecordLatencyNs((obs::NowNs() - message.enqueue_ns) /
                                static_cast<int64_t>(rows.size()));
  }
  worker.ReturnBuffer(std::move(message.buffer));
}

void ParallelExecutor::SampleHighWater() {
  size_t tuples = 0;
  size_t puncts = 0;
  for (const auto& group : groups_) {
    for (size_t s = 0; s < group->num_shards; ++s) {
      const MJoinOperator& op = *operators_[group->first_worker + s];
      for (size_t i = 0; i < op.num_inputs(); ++i) {
        tuples += op.state_metrics(i).live.load(std::memory_order_relaxed);
      }
    }
    puncts += GroupLivePunctuations(*group);
  }
  internal::AtomicMax(tuple_high_water_, tuples);
  internal::AtomicMax(punct_high_water_, puncts);
}

size_t ParallelExecutor::GroupLivePunctuations(const OpGroup& group) const {
  // Key-routed punctuations partition across the shards (sum); the
  // broadcast rest is replicated minus each shard's retirements (max).
  size_t keyed = 0;
  size_t broadcast = 0;
  for (size_t s = 0; s < group.num_shards; ++s) {
    const OperatorMetrics& m = operators_[group.first_worker + s]->metrics();
    const size_t live = m.punctuations_live.load(std::memory_order_relaxed);
    const size_t own =
        std::min(live, m.punctuations_keyed_live.load(std::memory_order_relaxed));
    keyed += own;
    broadcast = std::max(broadcast, live - own);
  }
  return keyed + broadcast;
}

Status ParallelExecutor::Push(const TraceEvent& event) {
  auto idx = query_.StreamIndex(event.stream);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("stream '", event.stream, "' not part of ", query_.ToString()));
  }
  // Only Stop() closes the queues, and it runs on this (the driver)
  // thread, so checking first is exact.
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  if (event.element.is_tuple()) {
    PushTuple(*idx, event.element.tuple, event.element.timestamp);
  } else {
    PushPunctuation(*idx, event.element.punctuation,
                    event.element.timestamp);
  }
  return Status::OK();
}

ShardBuffer& ParallelExecutor::Stage(size_t w) {
  std::unique_ptr<ShardBuffer>& staged = stage_[w];
  if (staged == nullptr) {
    staged = workers_[w]->TakeBuffer();
    staged_.push_back(w);
  }
  return *staged;
}

bool ParallelExecutor::Ship(size_t w, obs::IngestCause cause) {
  Worker& target = *workers_[w];
  const size_t weight = stage_[w]->items();
  int64_t now = 0;
  if (obs_ != nullptr) {
    now = obs::NowNs();
    target.obs->IncRouted(stage_[w]->rows.size());
    target.obs->NoteIngest(cause, stage_[w]->rows.size());
    if (target.queue.weight() >= target.queue.capacity()) {
      target.obs->IncStall();
    }
  }
  return target.queue.Push(BufferMessage(std::move(stage_[w]), now), weight);
}

template <typename CauseOf>
bool ParallelExecutor::ShipStagedWhere(CauseOf cause_of) {
  bool ok = true;
  for (size_t i = 0; i < staged_.size();) {
    const size_t w = staged_[i];
    const std::optional<obs::IngestCause> cause = cause_of(w);
    if (!cause.has_value()) {
      ++i;
      continue;
    }
    staged_[i] = staged_.back();
    staged_.pop_back();
    ok &= Ship(w, *cause);
  }
  return ok;
}

bool ParallelExecutor::ShipStaged(obs::IngestCause cause, size_t begin,
                                  size_t end) {
  return ShipStagedWhere([&](size_t w) -> std::optional<obs::IngestCause> {
    if (w < begin || w >= end) return std::nullopt;
    return cause;
  });
}

void ParallelExecutor::ShipReady() {
  // The rest keeps accumulating while its shard is busy. A failed ship
  // means Stop() closed the pipeline.
  ShipStagedWhere([this](size_t w) -> std::optional<obs::IngestCause> {
    if (stage_[w]->items() >= config_.batch_size) return obs::IngestCause::kFull;
    if (workers_[w]->queue.consumer_idle()) return obs::IngestCause::kIdle;
    return std::nullopt;
  });
}

void ParallelExecutor::PushTuple(size_t stream, const Tuple& tuple,
                                 int64_t ts) {
  auto [group_idx, input] = leaf_route_[stream];
  const OpGroup& group = *groups_[group_idx];
  const size_t w =
      group.first_worker + group.spec.ShardOf(input, tuple, group.num_shards);
  Stage(w).AppendRow(input, tuple, ts);
  NoteProgress(stream, ts);
  ShipReady();
}

void ParallelExecutor::PushPunctuation(size_t stream,
                                       const Punctuation& punctuation,
                                       int64_t ts) {
  auto [group_idx, input] = leaf_route_[stream];
  OpGroup& group = *groups_[group_idx];
  const size_t target =
      group.spec.PunctuationShard(input, punctuation, group.num_shards);
  if (target != PartitionSpec::kAllShards) {
    // Key-routed: it rides in its shard's buffer behind the staged
    // tuples it may cover, so it ships nothing.
    const size_t w = group.first_worker + target;
    Stage(w).AppendPunctuation(input, punctuation, ts);
    if (obs_ != nullptr) workers_[w]->obs->NotePunctuationDelivery(true);
    NoteProgress(stream, ts);
    ShipReady();
    return;
  }
  // A broadcast must not overtake the staged tuples it covers on any
  // shard of the group: ship theirs first.
  if (!ShipStaged(obs::IngestCause::kPunctuation, group.first_worker,
                  group.first_worker + group.num_shards)) {
    return;
  }
  if (SendPunctuation(group, input, punctuation, ts, target)) {
    NoteProgress(stream, ts);
  }
}

void ParallelExecutor::NoteProgress(size_t stream, int64_t ts) {
  InputProgress& p = progress_[stream];
  ++p.events_consumed;
  p.watermark_ts = std::max(p.watermark_ts, ts);
}

Status ParallelExecutor::BarrierAll(PipelineMarker marker, int64_t now) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  // The barrier contract covers everything pushed so far — including
  // elements still staged driver-side.
  if (!ShipStaged(obs::IngestCause::kBarrier, 0, workers_.size())) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  // Leaves-first (groups_ is post-order, children before parents):
  // once every shard of operator j's children has acked its marker,
  // every element they will ever emit is already in j's shard queues,
  // so j's markers are provably last and their acks mean the whole
  // group is caught up (and swept / rechecked, per marker kind).
  // Markers are pushed under broadcast_mu so they order consistently
  // against punctuation sends.
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
        message.ts = now;
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
    // K-shard checkpoint restores into any shard count. A shard's copy of a pending propagation
    // whose round has another owner can never complete it (the owner
    // may have forwarded it already), so it is not captured.
    auto capture = [&](size_t s) {
      OperatorStateSnapshot shard =
          operators_[group->first_worker + s]->CaptureState();
      if (group->num_shards > 1) {
        std::erase_if(shard.pending, [&](const PendingPropagationSnapshot& p) {
          const size_t owner = group->spec.PendingShard(p.input, p.punctuation,
                                                        group->num_shards);
          return owner != PartitionSpec::kAllShards && owner != s;
        });
      }
      return shard;
    };
    OperatorStateSnapshot merged = capture(0);
    for (size_t s = 1; s < group->num_shards; ++s) {
      merged = MergeOperatorSnapshots(merged, capture(s));
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
  // Phase 2: a pending propagation went back to every shard whose
  // vote it feeds, but a shard that had already cleared (and voted at
  // the aligner) before the snapshot must re-emit — the crash
  // discarded its vote. The recheck barrier runs on the worker
  // threads, leaves-first, so those re-emissions flow through the
  // normal aligner/queue path and the aligner completes exactly once
  // when the last expected shard clears during replay
  // (docs/RECOVERY.md).
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
  // Tuples and punctuations go the routes live ones take
  // (PartitionSpec::ShardOf / PunctuationShard), so restored and
  // replayed state agree on their shard; a pending propagation goes to
  // the shard whose vote it feeds (PendingShard).
  std::vector<OperatorStateSnapshot> pieces = SplitOperatorSnapshot(
      logical, group.num_shards,
      [&group](size_t input, const Tuple& tuple, size_t n) {
        return group.spec.ShardOf(input, tuple, n);
      },
      [&group](size_t input, const Punctuation& p, size_t n) {
        return group.spec.PunctuationShard(input, p, n);
      },
      [&group](size_t input, const Punctuation& p, size_t n) {
        return group.spec.PendingShard(input, p, n);
      });
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
  for (const auto& group : groups_) total += GroupLivePunctuations(*group);
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
    }
    snap.punctuations_live = GroupLivePunctuations(*group);
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
