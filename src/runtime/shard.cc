#include "runtime/shard.h"

#include <utility>

#include "ode/database.h"
#include "seq/sequencer.h"

namespace ode {
namespace runtime {

Shard::Shard(size_t index, Database* db, Options options)
    : index_(index),
      db_(db),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {}

Shard::~Shard() { Stop(); }

void Shard::Start() {
  if (worker_.joinable()) return;
  worker_ = std::thread([this] { Run(); });
}

void Shard::Close() { queue_.Close(); }

void Shard::Stop() {
  Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    exit_ = true;
    // A worker parked in ParkUntilResumed would never see the exit; release
    // it (Stop during a checkpoint pause is a caller bug, but must not
    // hang).
    pause_requested_.store(false, std::memory_order_release);
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

Status Shard::Enqueue(IngestEvent&& event, bool* enqueued, bool non_blocking) {
  if (enqueued != nullptr) *enqueued = false;
  if (options_.record_latency) event.enqueue_ns = NowNs();

  // With a WAL attached, build the record up front (the push consumes the
  // event) and hold wal_mu_ across encode+push+append so concurrent
  // producers cannot interleave queue order and log order differently (and
  // the record's lsn is the writer's next). The record is encoded before
  // the push: one the log format cannot hold refuses the post and leaves
  // logging on. Replayed events are already durable in the old log and are
  // not re-appended.
  const bool log_event =
      options_.wal != nullptr && !event.replayed && !event.method.empty() &&
      !wal_degraded_.load(std::memory_order_acquire);
  wal::WalRecord record;
  if (log_event) {
    record.oid = event.oid;
    record.method = event.method;
    record.args = event.args;
    record.producer_id = event.producer_id;
    record.producer_seq = event.producer_seq;
  }
  std::unique_lock<std::mutex> wal_lock(wal_mu_, std::defer_lock);
  if (options_.wal != nullptr) wal_lock.lock();
  if (log_event) {
    ODE_RETURN_IF_ERROR(options_.wal->EncodeNext(&record, &wal_payload_));
  }

  EventQueue::PushResult result = EventQueue::PushResult::kOk;
  switch (options_.backpressure) {
    case BackpressurePolicy::kBlock:
      if (non_blocking) {
        result = queue_.TryPush(std::move(event));
        if (result == EventQueue::PushResult::kFull) {
          // Deliberately unrecorded: this bounce is a park-and-retry signal
          // for the caller, not a client-visible rejection, and the same
          // event will come back. TryPush left it intact.
          return Status::WouldBlock("shard queue full");
        }
      } else {
        result = queue_.Push(std::move(event));
      }
      break;
    case BackpressurePolicy::kDropNewest:
      result = queue_.TryPush(std::move(event));
      if (result == EventQueue::PushResult::kFull) {
        metrics_.RecordDrop();
        return Status::OK();
      }
      break;
    case BackpressurePolicy::kReject:
      result = queue_.TryPush(std::move(event));
      if (result == EventQueue::PushResult::kFull) {
        metrics_.RecordReject();
        return Status::WouldBlock("shard queue full");
      }
      break;
  }
  if (result == EventQueue::PushResult::kClosed) {
    return Status::Shutdown("shard is stopped");
  }
  metrics_.RecordEnqueue();
  if (enqueued != nullptr) *enqueued = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++enqueued_;
  }
  if (log_event) {
    // The event is committed to the queue either way; an append failure
    // (sticky in the writer) permanently switches this shard to in-memory
    // mode. The event flows on — losing durability must not lose events —
    // and the runtime's escalation hook makes the degradation loud.
    Status logged = options_.wal->AppendPayload(wal_payload_);
    if (!logged.ok()) {
      wal_degraded_.store(true, std::memory_order_release);
      if (options_.on_wal_failure) options_.on_wal_failure(logged);
    }
  }
  return Status::OK();
}

void Shard::EnqueueFiring(seq::Firing firing) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back(std::move(firing));
    ++firings_enqueued_;
  }
  cv_.notify_all();     // A worker parked or idle on a closed queue.
  queue_.Interrupt();   // A worker waiting for its next batch.
}

void Shard::RequestPause() {
  pause_requested_.store(true, std::memory_order_release);
  queue_.Interrupt();
}

void Shard::WaitPaused() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return paused_; });
}

void Shard::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pause_requested_.store(false, std::memory_order_release);
  }
  cv_.notify_all();
}

void Shard::ParkUntilResumed() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  cv_.notify_all();
  for (;;) {
    cv_.wait(lock, [&] {
      return !pause_requested_.load(std::memory_order_acquire) ||
             !inbox_.empty();
    });
    if (inbox_.empty()) break;
    // The checkpoint waits for every decided firing to run.
    lock.unlock();
    RunFirings();
    lock.lock();
  }
  paused_ = false;
}

bool Shard::WaitAfterClose() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return exit_ || !inbox_.empty(); });
  return !inbox_.empty();
}

void Shard::WaitDrained(bool firings_only) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t events = firings_only ? 0 : enqueued_;
  const uint64_t firings = firings_enqueued_;
  cv_.wait(lock, [&] {
    return completed_ >= events && firings_run_ >= firings;
  });
}

ShardMetricsSnapshot Shard::MetricsSnapshot() const {
  metrics_.UpdateQueueHighWater(queue_.high_water());
  return metrics_.Snapshot();
}

void Shard::Run() {
  // Register this worker as a sequencer publisher lane: class-scope events
  // it posts carry per-lane FIFO sequence numbers keyed by the shard index,
  // which is what makes the sequencer's merge order deterministic.
  seq::SetThreadPublisherLane(static_cast<int32_t>(index_));
  std::vector<IngestEvent> batch;
  batch.reserve(options_.max_batch);
  while (true) {
    if (pause_requested_.load(std::memory_order_acquire)) ParkUntilResumed();
    RunFirings();
    batch.clear();
    size_t n = queue_.PopBatch(&batch, options_.max_batch);
    if (n == 0) {
      // An Interrupt() kick (pause request or firing): loop back. A closed,
      // drained queue still takes firings until Stop.
      if (queue_.closed() && queue_.size() == 0 && !WaitAfterClose()) break;
      continue;
    }
    ProcessBatch(batch);
    std::lock_guard<std::mutex> lock(mu_);
    completed_ += n;
    cv_.notify_all();
  }
}

void Shard::RunFirings() {
  std::vector<seq::Firing> firings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inbox_.empty()) return;
    firings.swap(inbox_);
  }
  // Events the actions post publish on this shard's firing lane: the user
  // lane must stay a pure function of the WAL order for replay dedup,
  // while the firing lane follows the merge order, which order-log
  // recovery reproduces.
  seq::Sequencer* sequencer = db_->sequencer();
  seq::SetThreadPublisherLane(
      static_cast<int32_t>(sequencer->firing_lane(index_)));
  for (const seq::Firing& firing : firings) RunFiring(firing);
  seq::SetThreadPublisherLane(static_cast<int32_t>(index_));
  std::lock_guard<std::mutex> lock(mu_);
  firings_run_ += firings.size();
  cv_.notify_all();
}

void Shard::RunFiring(const seq::Firing& firing) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.error_policy.max_retries;
       ++attempt) {
    if (attempt > 0) Backoff(attempt);
    last = db_->RunClassFiring(firing);
    if (last.code() != StatusCode::kWouldBlock &&
        last.code() != StatusCode::kDeadlock) {
      break;
    }
  }
  if (!last.ok()) db_->sequencer()->CountFiringError();
}

void Shard::ProcessBatch(const std::vector<IngestEvent>& batch) {
  metrics_.RecordBatch(batch.size());
  Status status = RunBatch(batch);
  if (!status.ok()) {
    metrics_.RecordAbort();
    // RunBatch returns non-OK only when the batch transaction rolled back
    // as a unit (a commit whose epilogue failed reports OK), so replaying
    // every event individually is exactly-once: nothing from the failed
    // attempt survived.
    for (const IngestEvent& event : batch) ProcessOne(event);
  }
  metrics_.RecordProcessed(batch.size());
  if (options_.record_latency) {
    const uint64_t now = NowNs();
    for (const IngestEvent& event : batch) {
      if (event.enqueue_ns == 0) continue;
      const uint64_t ns = now > event.enqueue_ns ? now - event.enqueue_ns : 0;
      metrics_.RecordLatencyUs(ns / 1000);
    }
  }
}

Status Shard::RunBatch(const std::vector<IngestEvent>& batch) {
  Result<TxnId> txn = db_->Begin();
  if (!txn.ok()) return txn.status();
  // Class-scope publications wait for the commit: a rolled-back batch is
  // replayed event by event below, which publishes its events again.
  seq::Sequencer::PendingPublications pending(db_->sequencer());
  int fired = 0;
  for (const IngestEvent& event : batch) {
    Result<Value> r = db_->Call(*txn, event.oid, event.method, event.args,
                                &fired);
    if (!r.ok()) {
      // kAborted means Call already rolled the transaction back; anything
      // else leaves it active and we must clean up ourselves.
      if (r.status().code() != StatusCode::kAborted) (void)db_->Abort(*txn);
      return r.status();
    }
  }
  Database::CommitOutcome outcome = Database::CommitOutcome::kNotCommitted;
  Status committed = db_->Commit(*txn, &outcome);
  if (!committed.ok()) {
    if (outcome == Database::CommitOutcome::kEpilogueFailed) {
      // The batch COMMITTED; only the after-tcommit system transaction
      // failed (and rolled its own effects back). Replaying the events
      // would apply them twice — count the lost epilogue and move on.
      pending.Commit();
      metrics_.RecordEpilogueFailure();
      metrics_.RecordFired(static_cast<uint64_t>(fired));
      return Status::OK();
    }
    if (committed.code() != StatusCode::kAborted) (void)db_->Abort(*txn);
    return committed;
  }
  pending.Commit();
  metrics_.RecordFired(static_cast<uint64_t>(fired));
  return Status::OK();
}

void Shard::ProcessOne(const IngestEvent& event) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.error_policy.max_retries;
       ++attempt) {
    if (attempt > 0) Backoff(attempt);
    last = TryOne(event);
    if (last.ok()) return;
    metrics_.RecordAbort();
    if (!IsRetryable(last)) break;
  }
  DeadLetter(event, last);
}

void Shard::Backoff(int attempt) {
  metrics_.RecordRetry();
  const int shift = attempt - 1 < 10 ? attempt - 1 : 10;
  std::this_thread::sleep_for(options_.error_policy.initial_backoff *
                              (1 << shift));
}

Status Shard::TryOne(const IngestEvent& event) {
  Result<TxnId> txn = db_->Begin();
  if (!txn.ok()) return txn.status();
  seq::Sequencer::PendingPublications pending(db_->sequencer());
  int fired = 0;
  Result<Value> r =
      db_->Call(*txn, event.oid, event.method, event.args, &fired);
  Database::CommitOutcome outcome = Database::CommitOutcome::kNotCommitted;
  Status status = r.ok() ? db_->Commit(*txn, &outcome) : r.status();
  if (!status.ok()) {
    if (outcome == Database::CommitOutcome::kEpilogueFailed) {
      // Committed; retrying would double-apply the event (see RunBatch).
      pending.Commit();
      metrics_.RecordEpilogueFailure();
      metrics_.RecordFired(static_cast<uint64_t>(fired));
      return Status::OK();
    }
    if (status.code() != StatusCode::kAborted) (void)db_->Abort(*txn);
    return status;
  }
  pending.Commit();
  metrics_.RecordFired(static_cast<uint64_t>(fired));
  return Status::OK();
}

void Shard::DeadLetter(const IngestEvent& event, const Status& status) {
  metrics_.RecordDeadLetter();
  if (options_.dead_letter) options_.dead_letter(event, status);
}

bool Shard::IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kAborted:
    case StatusCode::kWouldBlock:
    case StatusCode::kDeadlock:
      return true;
    default:
      return false;
  }
}

uint64_t Shard::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace runtime
}  // namespace ode
