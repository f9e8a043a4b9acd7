#include "runtime/ingest_runtime.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/strutil.h"
#include "ode/database.h"
#include "seq/order_log.h"
#include "wal/checkpoint.h"

namespace ode {
namespace runtime {

IngestRuntime::IngestRuntime(Database* db, IngestOptions options)
    : db_(db), options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
}

IngestRuntime::~IngestRuntime() { (void)Stop(); }

Status IngestRuntime::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("ingest runtime cannot be restarted");
  }
  durable_ = options_.durability.enabled();
  wal::RecoveredState recovered;
  if (durable_) {
    ODE_RETURN_IF_ERROR(LoadDurability(&recovered));
  }

  Shard::Options shard_options;
  shard_options.queue_capacity = options_.queue_capacity;
  shard_options.max_batch = options_.max_batch;
  shard_options.backpressure = options_.backpressure;
  shard_options.error_policy = options_.error_policy;
  shard_options.dead_letter = options_.dead_letter;
  shard_options.record_latency = options_.record_latency;
  shard_options.on_wal_failure = [this](const Status& status) {
    DegradeWal("shard wal", status);
  };
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shard_options.wal = durable_ ? wal_writers_[i].get() : nullptr;
    shards_.push_back(std::make_unique<Shard>(i, db_, shard_options));
  }
  // Between building and starting the shards: recovered firings need their
  // inboxes, and workers must see the attached sequencer from their very
  // first posted event.
  ODE_RETURN_IF_ERROR(StartSequencer(recovered));
  // Replay dedup covers everything the workers publish until FinishReplay:
  // the recovered firings they run first republish on their firing lanes,
  // and replayed WAL events on their user lanes, with regenerated lane
  // sequences; the sequencer drops those at or below the order-log
  // watermark (already applied pre-crash) — exactly-once for the class
  // automata too.
  if (durable_) sequencer_->BeginReplayDedup();
  for (auto& shard : shards_) shard->Start();
  running_.store(true, std::memory_order_release);

  if (durable_) {
    // Replay through the normal shard/trigger path, then publish a fresh
    // baseline checkpoint: it captures pre-Start database state (objects
    // created before the runtime existed) even on a virgin directory, and
    // lets the old log files — orphans included — be retired.
    ODE_RETURN_IF_ERROR(ReplayRecovered(std::move(recovered)));
    ODE_RETURN_IF_ERROR(Drain());
    sequencer_->FinishReplay();
    ODE_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status IngestRuntime::StartSequencer(const wal::RecoveredState& recovered) {
  seq::Sequencer::Options seq_options;
  seq_options.queue_capacity = options_.seq_queue_capacity;
  // Per shard a user lane and a firing lane, plus the external lane for
  // unregistered threads (direct Database posts, tests).
  seq_options.num_lanes = 2 * static_cast<uint32_t>(options_.num_shards) + 1;
  // The object's owning shard runs each firing.
  seq_options.sink = [this](seq::Firing firing) {
    shards_[ShardOf(firing.oid)]->EnqueueFiring(std::move(firing));
  };
  if (durable_) {
    order_log_ = std::make_unique<wal::LogWriter>();
    ODE_RETURN_IF_ERROR(order_log_->Open(
        seq::OrderLogPath(options_.durability.dir), 0, options_.durability));
    seq_options.order_log = order_log_.get();
    seq_options.on_log_failure = [this](const Status& status) {
      DegradeWal("sequencer order log", status);
    };
  }
  sequencer_ = std::make_unique<seq::Sequencer>(db_, seq_options);

  if (durable_) {
    // Re-apply the order log: the exact class-scope apply order of the
    // pre-crash run, re-executed against the checkpoint's restored class
    // automaton states. Usable only when the lane layout survived the
    // restart — otherwise the log's (lane, lane_seq) keys are meaningless
    // and the class order is re-derived from the shard logs instead (a
    // valid order, not necessarily the original one).
    const std::vector<uint64_t>& seqlane = recovered.checkpoint.seqlane;
    bool use_order_log = true;
    std::string why;
    if (recovered.had_checkpoint && !seqlane.empty() &&
        seqlane.size() != seq_options.num_lanes) {
      use_order_log = false;
      why = StrFormat("checkpoint has %zu lanes, runtime has %u",
                      seqlane.size(), seq_options.num_lanes);
    }
    wal::LogContents<seq::SeqEvent> order;
    if (use_order_log) {
      Result<wal::LogContents<seq::SeqEvent>> read =
          seq::ReadOrderLog(seq::OrderLogPath(options_.durability.dir));
      if (!read.ok()) {
        use_order_log = false;
        why = read.status().message();
      } else {
        order = std::move(*read);
        for (const seq::SeqEvent& event : order.records) {
          if (event.lane >= seq_options.num_lanes) {
            use_order_log = false;
            why = StrFormat("record lane %u out of range", event.lane);
            break;
          }
        }
      }
    }
    if (use_order_log) {
      if (seqlane.size() == seq_options.num_lanes) {
        sequencer_->RestoreLaneCounters(seqlane);
      }
      uint64_t past_hole = 0;
      std::string hole;
      for (const seq::SeqEvent& event : order.records) {
        Status applied = sequencer_->ApplyRecovered(event);
        if (applied.code() == StatusCode::kOutOfRange) {
          if (past_hole++ == 0) hole = applied.message();
          continue;
        }
        ODE_RETURN_IF_ERROR(applied);
        ++recovery_.sequenced_replayed;
      }
      if (past_hole > 0) {
        recovery_.notes.push_back(StrFormat(
            "sequencer order log: %llu record(s) past a lane_seq hole left "
            "to shard replay (%s)",
            (unsigned long long)past_hole, hole.c_str()));
      }
      if (order.torn) {
        recovery_.notes.push_back(StrFormat(
            "sequencer order log: discarded torn tail (%s)",
            order.torn_error.c_str()));
      }
      if (recovery_.sequenced_replayed > 0) {
        recovery_.notes.push_back(StrFormat(
            "sequencer order log: re-applied %llu class-scope record(s)",
            (unsigned long long)recovery_.sequenced_replayed));
      }
    } else {
      // The stale log would interleave incompatible lane layouts with new
      // appends; drop it and note the degraded (order-re-derived) recovery.
      recovery_.notes.push_back(StrFormat(
          "sequencer order log ignored (%s); class-scope order re-derived "
          "from shard logs", why.c_str()));
      (void)order_log_->Truncate();
    }
  }

  db_->AttachSequencer(sequencer_.get());
  return sequencer_->Start();
}

void IngestRuntime::DegradeWal(const char* what, const Status& status) {
  if (wal_degraded_.exchange(true, std::memory_order_acq_rel)) return;
  std::fprintf(stderr,
               "[ode-runtime] DURABILITY DEGRADED: %s append failed: %s\n"
               "[ode-runtime] continuing in-memory; events accepted from "
               "now on will NOT survive a crash\n",
               what, status.message().c_str());
}

Status IngestRuntime::LoadDurability(wal::RecoveredState* recovered) {
  const std::string& dir = options_.durability.dir;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(StrFormat("mkdir '%s': %s", dir.c_str(),
                                      std::strerror(errno)));
  }
  ODE_ASSIGN_OR_RETURN(*recovered, wal::LoadDurableState(dir));
  recovery_.attempted = true;
  recovery_.had_checkpoint = recovered->had_checkpoint;
  recovery_.skipped_covered = recovered->skipped_covered;
  recovery_.torn_files = recovered->torn_files;
  recovery_.torn_bytes = recovered->torn_bytes;
  recovery_.notes = recovered->notes;

  if (recovered->had_checkpoint) {
    const wal::CheckpointData& checkpoint = recovered->checkpoint;
    ODE_RETURN_IF_ERROR(db_->LoadSnapshotText(checkpoint.snapshot_body));
    if (checkpoint.shard_metrics.size() == options_.num_shards) {
      metrics_baseline_ = checkpoint.shard_metrics;
    } else {
      for (const ShardMetricsSnapshot& m : checkpoint.shard_metrics) {
        m.AddInto(&metrics_extra_base_);
        has_extra_base_ = true;
      }
    }
    if (checkpoint.has_base_metrics) {
      checkpoint.base_metrics.AddInto(&metrics_extra_base_);
      has_extra_base_ = true;
    }
    std::lock_guard<std::mutex> lock(wm_mu_);
    applied_seqs_ = checkpoint.applied;
  }

  wal_writers_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    uint64_t start_lsn = 0;
    auto it = recovered->file_last_lsn.find(i);
    if (it != recovered->file_last_lsn.end()) start_lsn = it->second;
    auto writer = std::make_unique<wal::LogWriter>();
    // Append mode: the old records stay on disk until the post-replay
    // checkpoint truncates them — a crash mid-recovery just recovers again.
    ODE_RETURN_IF_ERROR(writer->Open(wal::ShardLogPath(dir, i), start_lsn,
                                     options_.durability));
    wal_writers_.push_back(std::move(writer));
  }
  for (const auto& [file, last] : recovered->file_last_lsn) {
    if (file >= options_.num_shards) orphan_covered_[file] = last;
  }
  return Status::OK();
}

Status IngestRuntime::ReplayRecovered(wal::RecoveredState recovered) {
  auto replay_one = [&](wal::WalRecord& record) -> Status {
    IngestEvent event;
    event.oid = record.oid;
    event.method = std::move(record.method);
    event.args = std::move(record.args);
    event.producer_id = std::move(record.producer_id);
    event.producer_seq = record.producer_seq;
    event.replayed = true;
    // A durable event must not be lost to kReject backpressure: retry the
    // bounce until the worker frees space (recovery owns the runtime, so
    // nothing else competes for it). A kWouldBlock bounce leaves the event
    // intact for the next attempt.
    while (true) {
      Status status = PostEvent(&event, nullptr);
      if (status.code() != StatusCode::kWouldBlock) {
        if (status.ok()) ++recovery_.replayed_events;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Old file indices, ascending; per file the checkpoint's in-flight
  // events precede the log's surviving records (they were queued before
  // the records were appended).
  std::vector<size_t> files;
  for (size_t f = 0; f < recovered.checkpoint.inflight.size(); ++f) {
    if (!recovered.checkpoint.inflight[f].empty()) files.push_back(f);
  }
  for (const auto& [f, records] : recovered.replay) {
    if (!records.empty()) files.push_back(f);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (size_t f : files) {
    if (f < recovered.checkpoint.inflight.size()) {
      for (wal::WalRecord& record : recovered.checkpoint.inflight[f]) {
        ODE_RETURN_IF_ERROR(replay_one(record));
      }
    }
    auto it = recovered.replay.find(f);
    if (it != recovered.replay.end()) {
      for (wal::WalRecord& record : it->second) {
        ODE_RETURN_IF_ERROR(replay_one(record));
      }
    }
  }
  return Status::OK();
}

Status IngestRuntime::Post(Oid oid, std::string method,
                           std::vector<Value> args,
                           ProducerMetrics* producer) {
  IngestEvent event;
  event.oid = oid;
  event.method = std::move(method);
  event.args = std::move(args);
  return PostEvent(&event, producer);
}

Status IngestRuntime::Post(Oid oid, std::string method,
                           std::vector<Value> args, ProducerMetrics* producer,
                           std::string_view identity, uint64_t seq) {
  IngestEvent event;
  event.oid = oid;
  event.method = std::move(method);
  event.args = std::move(args);
  event.producer_id = std::string(identity);
  event.producer_seq = seq;
  return PostEvent(&event, producer);
}

Status IngestRuntime::TryPost(IngestEvent* event, ProducerMetrics* producer,
                              bool* duplicate) {
  return PostEvent(event, producer, /*non_blocking=*/true, duplicate);
}

Status IngestRuntime::PostEvent(IngestEvent* event, ProducerMetrics* producer,
                                bool non_blocking, bool* duplicate) {
  Status status;
  bool enqueued = false;
  // Saved before the move: the watermark update below runs after Enqueue
  // consumed the event.
  const std::string identity = event->producer_id;
  const uint64_t seq = event->producer_seq;
  // Identified non-blocking posts (the network front end) hold wm_mu_
  // across check + enqueue + record, making the applied-seq set the
  // authoritative exactly-once arbiter: when a reconnecting client's
  // replay races the dying connection still draining the same frames on
  // another IO worker, exactly one copy of each (identity, seq) can pass
  // the check and enter a queue. Lock order note: this nests
  // wm_mu_ -> post_gate_(shared), while Checkpoint() nests
  // post_gate_(unique) -> wm_mu_; there is no deadlock only because the
  // non-blocking path try_locks the gate and bounces on failure.
  std::unique_lock<std::mutex> wm_lock;
  if (!running()) {
    // Distinguish "never started" from "stopped": front ends translate
    // kShutdown into a clean shutting-down reply and close, while
    // kFailedPrecondition is a caller bug.
    status = started_.load(std::memory_order_acquire)
                 ? Status::Shutdown("ingest runtime is stopped")
                 : Status::FailedPrecondition("ingest runtime is not running");
  } else {
    if (non_blocking && !identity.empty()) {
      wm_lock = std::unique_lock<std::mutex>(wm_mu_);
      auto it = applied_seqs_.find(identity);
      if (it != applied_seqs_.end() && it->second.Contains(seq)) {
        // Accepted by an earlier post of this identity (possibly still
        // queued): report duplicate so the caller ACKs without enqueuing
        // a second copy. *event is left untouched and unconsumed.
        if (duplicate != nullptr) *duplicate = true;
        return Status::OK();
      }
    }
    if (durable_) {
      // Shared side of the checkpoint gate: Checkpoint() takes it unique,
      // so no post can be between "entered the queue" and "appended to
      // the log" while the checkpoint captures both. A non-blocking
      // caller must not park behind the checkpoint's pause window either
      // — bounce with the same park-and-retry contract as a full queue.
      std::shared_lock<std::shared_mutex> gate(post_gate_, std::defer_lock);
      if (non_blocking) {
        if (!gate.try_lock()) {
          return Status::WouldBlock("checkpoint in progress");
        }
      } else {
        gate.lock();
      }
      status = shards_[ShardOf(event->oid)]->Enqueue(std::move(*event),
                                                     &enqueued, non_blocking);
    } else {
      status = shards_[ShardOf(event->oid)]->Enqueue(std::move(*event),
                                                     &enqueued, non_blocking);
    }
  }
  if (non_blocking && status.code() == StatusCode::kWouldBlock &&
      options_.backpressure == BackpressurePolicy::kBlock) {
    // Park-and-retry bounce: *event is intact, the caller will re-post the
    // same event, so recording it (producer counters, applied-seqs) here
    // would double-count the retry.
    return status;
  }
  if (enqueued && !identity.empty()) {
    if (!wm_lock.owns_lock()) {
      wm_lock = std::unique_lock<std::mutex>(wm_mu_);
    }
    applied_seqs_[identity].Add(seq);
  }
  if (producer != nullptr) producer->RecordPost(status);
  return status;
}

void IngestRuntime::SetCapacityListener(
    std::function<void(size_t shard)> listener) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (listener) {
      shards_[i]->SetCapacityCallback([listener, i] { listener(i); });
    } else {
      shards_[i]->SetCapacityCallback(nullptr);
    }
  }
}

ProducerMetrics* IngestRuntime::RegisterProducer(std::string name) {
  std::lock_guard<std::mutex> lock(producers_mu_);
  producers_.push_back(std::make_unique<ProducerMetrics>(std::move(name)));
  return producers_.back().get();
}

void IngestRuntime::RetireProducer(ProducerMetrics* producer) {
  if (producer == nullptr) return;
  std::lock_guard<std::mutex> lock(producers_mu_);
  for (auto it = producers_.begin(); it != producers_.end(); ++it) {
    if (it->get() != producer) continue;
    ProducerMetricsSnapshot last = producer->Snapshot();
    retired_.posted += last.posted;
    retired_.accepted += last.accepted;
    retired_.rejected += last.rejected;
    retired_.failed += last.failed;
    ++retired_count_;
    producers_.erase(it);
    return;
  }
}

void IngestRuntime::Settle(bool firings_only) {
  // A pass that decides no firing leaves nothing behind: every firing is in
  // its shard's inbox before the sequencer counts it, and every event a
  // firing posts is published before its shard counts the firing run.
  uint64_t decided;
  do {
    decided = sequencer_->firings();
    for (auto& shard : shards_) shard->WaitDrained(firings_only);
    sequencer_->WaitDrained();
  } while (sequencer_->firings() != decided);
}

Status IngestRuntime::Drain() {
  if (!running()) {
    return Status::FailedPrecondition("ingest runtime is not running");
  }
  Settle(/*firings_only=*/false);
  // All workers are parked on their queues here (nothing mid-commit, as
  // long as producers honour the barrier contract), so reclaiming
  // finished transaction records is safe.
  if (options_.gc_finished_txns_on_drain) db_->txns().GarbageCollect();
  return Status::OK();
}

Status IngestRuntime::Checkpoint() {
  if (!running()) {
    return Status::FailedPrecondition("ingest runtime is not running");
  }
  if (!durable_) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  if (wal_degraded()) {
    // Truncating logs that are missing records would turn degraded
    // durability into silent data loss.
    return Status::FailedPrecondition(
        "wal degraded (a log writer failed); checkpoint refused");
  }
  // Unique side of the post gate: no producer is inside Enqueue, so every
  // accepted event is both in its queue and in its log. Then park the
  // workers so queue contents and database state stop moving.
  std::unique_lock<std::shared_mutex> gate(post_gate_);
  for (auto& shard : shards_) shard->RequestPause();
  for (auto& shard : shards_) shard->WaitPaused();
  // Parked workers still run their firings. The snapshot waits until none
  // is queued or running: it already holds the automaton step that decided
  // a firing, and the order-log truncation below forgets that step, so a
  // pending firing would be lost. Then the class automaton states and the
  // lane counters are the settled post-apply values.
  Settle(/*firings_only=*/true);
  Status status = CheckpointLocked();
  for (auto& shard : shards_) shard->Resume();
  return status;
}

Status IngestRuntime::CheckpointLocked() {
  wal::CheckpointData data;
  data.num_shards = shards_.size();
  data.inflight.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    for (IngestEvent& event : shards_[i]->SnapshotQueue()) {
      wal::WalRecord record;
      record.oid = event.oid;
      record.method = std::move(event.method);
      record.args = std::move(event.args);
      record.producer_id = std::move(event.producer_id);
      record.producer_seq = event.producer_seq;
      data.inflight[i].push_back(std::move(record));
    }
  }
  ODE_ASSIGN_OR_RETURN(data.snapshot_body, db_->SaveSnapshotText());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardMetricsSnapshot m = shards_[i]->MetricsSnapshot();
    if (i < metrics_baseline_.size()) metrics_baseline_[i].AddInto(&m);
    data.shard_metrics.push_back(m);
  }
  if (has_extra_base_) {
    data.base_metrics = metrics_extra_base_;
    data.has_base_metrics = true;
  }
  {
    std::lock_guard<std::mutex> lock(wm_mu_);
    data.applied = applied_seqs_;
  }
  // Lane counters at the quiesce point: everything at or below them is in
  // snapshot_body's class automaton states, and replayed shards resume
  // assigning from them.
  data.seqlane = sequencer_->LaneCounters();
  // Every record ever appended is subsumed: processed ones are in the
  // snapshot, queued ones in the inflight lists.
  for (size_t i = 0; i < wal_writers_.size(); ++i) {
    data.covered_lsn[i] = wal_writers_[i]->last_lsn();
  }
  for (const auto& [file, last] : orphan_covered_) {
    uint64_t& slot = data.covered_lsn[file];
    slot = std::max(slot, last);
  }
  ODE_RETURN_IF_ERROR(
      wal::WriteCheckpointFile(options_.durability.dir, data));
  for (auto& writer : wal_writers_) {
    ODE_RETURN_IF_ERROR(writer->Truncate());
  }
  // The order log's records are likewise subsumed by the snapshot's class
  // automaton states.
  if (order_log_) ODE_RETURN_IF_ERROR(order_log_->Truncate());
  for (const auto& entry : orphan_covered_) {
    (void)::unlink(
        wal::ShardLogPath(options_.durability.dir, entry.first).c_str());
  }
  orphan_covered_.clear();
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

wal::SeqSet IngestRuntime::AppliedSeqs(std::string_view identity) const {
  std::lock_guard<std::mutex> lock(wm_mu_);
  auto it = applied_seqs_.find(std::string(identity));
  if (it == applied_seqs_.end()) return wal::SeqSet();
  return it->second;
}

Status IngestRuntime::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  // Close the queues first (a racing Post gets kShutdown), then run what
  // they hold and every firing it decides before the workers exit.
  for (auto& shard : shards_) shard->Close();
  Settle(/*firings_only=*/false);
  // Detach so post-Stop direct posting falls back to the inline class
  // path.
  sequencer_->Stop();
  db_->DetachSequencer();
  for (auto& shard : shards_) shard->Stop();
  // Final durability barrier: group-commit policies may hold acked records
  // unsynced; a clean stop must not lose them.
  Status status = Status::OK();
  for (auto& writer : wal_writers_) {
    Status s = writer->Sync();
    if (status.ok()) status = s;
  }
  return status;
}

size_t IngestRuntime::ShardOf(Oid oid) const {
  // splitmix64 finalizer: spreads sequential oids across shards.
  uint64_t x = oid.id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<size_t>(x % options_.num_shards);
}

RuntimeMetricsSnapshot IngestRuntime::Metrics() const {
  RuntimeMetricsSnapshot snapshot;
  snapshot.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardMetricsSnapshot s = shards_[i]->MetricsSnapshot();
    if (i < metrics_baseline_.size()) metrics_baseline_[i].AddInto(&s);
    snapshot.shards.push_back(s);
    snapshot.shards.back().AddInto(&snapshot.total);
  }
  if (has_extra_base_) metrics_extra_base_.AddInto(&snapshot.total);
  snapshot.wal.enabled = durable_;
  if (durable_) {
    for (const auto& writer : wal_writers_) {
      snapshot.wal.appends += writer->appends();
      snapshot.wal.fsyncs += writer->fsyncs();
      snapshot.wal.bytes_written += writer->bytes_written();
    }
    snapshot.wal.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    snapshot.wal.replayed_on_recovery = recovery_.replayed_events;
    if (order_log_) {
      snapshot.wal.appends += order_log_->appends();
      snapshot.wal.fsyncs += order_log_->fsyncs();
      snapshot.wal.bytes_written += order_log_->bytes_written();
    }
    snapshot.wal.degraded = wal_degraded();
  }
  if (sequencer_) snapshot.sequencer = sequencer_->Metrics();
  {
    std::lock_guard<std::mutex> lock(producers_mu_);
    snapshot.producers.reserve(producers_.size() + (retired_count_ > 0));
    for (const auto& p : producers_) snapshot.producers.push_back(p->Snapshot());
    if (retired_count_ > 0) {
      ProducerMetricsSnapshot retired = retired_;
      retired.name = StrFormat("retired[%llu]",
                               static_cast<unsigned long long>(retired_count_));
      snapshot.producers.push_back(std::move(retired));
    }
  }
  return snapshot;
}

}  // namespace runtime
}  // namespace ode
