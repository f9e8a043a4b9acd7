#ifndef ODE_RUNTIME_SHARD_H_
#define ODE_RUNTIME_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "runtime/event_queue.h"
#include "runtime/metrics.h"
#include "seq/seq_event.h"
#include "wal/log_writer.h"

namespace ode {

class Database;

namespace runtime {

/// Invoked (on the shard's worker thread) for every event the shard gives
/// up on: retries exhausted or a non-retryable failure. The status is the
/// last failure. The hook must not post back into the runtime for the same
/// shard synchronously via a blocking path (it runs on the consumer).
using DeadLetterFn =
    std::function<void(const IngestEvent& event, const Status& status)>;

/// How a shard worker responds to a failed event transaction. Retryable
/// failures (kAborted, kWouldBlock, kDeadlock) are retried with doubling
/// backoff up to `max_retries` extra attempts; everything else (unknown
/// object, bad method, arity mismatch) is dead-lettered immediately.
struct ErrorPolicy {
  int max_retries = 3;
  std::chrono::microseconds initial_backoff{50};
};

/// One ingest shard: a bounded MPSC queue plus the single worker thread
/// that drains it. Exactly one shard owns any given object (the runtime
/// routes by object-id hash), so the worker is the only thread mutating
/// that object's automaton state and attributes — the substrate's
/// object-sharding thread model.
///
/// The worker drains up to `max_batch` events per wakeup and runs the
/// whole batch inside one transaction (amortising Begin/Commit and the
/// commit-time event postings over the batch). If the batch transaction
/// fails, the rollback is total, so the worker replays the same events
/// individually — each in its own transaction under the ErrorPolicy —
/// which keeps one poison event from discarding its neighbours.
///
/// The worker also runs the class-scope firings the sequencer decides for
/// the objects it owns (EnqueueFiring), at its loop head before its next
/// batch, so no other thread ever writes those objects.
class Shard {
 public:
  struct Options {
    size_t queue_capacity = 1024;
    size_t max_batch = 64;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    ErrorPolicy error_policy;
    DeadLetterFn dead_letter;  ///< May be null (drops are still counted).
    bool record_latency = true;
    /// Durable log for this shard (owned by the runtime); null = no WAL.
    /// Accepted events are appended before Enqueue returns, so the log
    /// holds every event the queue ever held, in queue order.
    wal::LogWriter* wal = nullptr;
    /// Invoked at most once, when the WAL append hits its first (sticky)
    /// I/O failure. After the call the shard stops logging and keeps
    /// accepting events in-memory — the runtime escalates (degraded flag,
    /// operator banner) rather than bouncing producers.
    std::function<void(const Status& status)> on_wal_failure;
  };

  Shard(size_t index, Database* db, Options options);
  ~Shard();  ///< Stops (close + join) if still running.

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Launches the worker thread. Idempotent.
  void Start();

  /// Applies the backpressure policy and queues the event.
  ///  * kBlock       — waits for space; always OK while running.
  ///  * kDropNewest  — OK even when full; the event is counted and dropped.
  ///  * kReject      — kWouldBlock when full; the caller decides.
  /// kShutdown after Stop(). When `enqueued` is non-null it reports whether
  /// the event actually entered the queue (false for drops/rejects), which
  /// is what exactly-once dedup keys on — a dropped event was NOT applied.
  /// With a WAL attached, accepted non-replayed events are appended to the
  /// log inside the same critical section as the queue push (log order ==
  /// queue order). An event the record codec cannot hold (a value text
  /// over 65,535 bytes) is refused with kInvalidArgument before it is
  /// queued. The first log I/O failure (sticky in the writer)
  /// permanently disables this shard's logging, fires on_wal_failure, and
  /// is swallowed: the event is already queued and will be processed, so
  /// ingestion continues in degraded (in-memory) mode.
  ///
  /// With `non_blocking` set, a kBlock-policy shard whose queue is full
  /// returns kWouldBlock *without recording anything* and leaves `event`
  /// intact (not moved from): the caller owns the retry. This is the
  /// TryPost handoff the network front end uses to park one connection
  /// instead of wedging an IO worker inside a blocking Push. Other
  /// policies are unaffected (they never block anyway).
  Status Enqueue(IngestEvent&& event, bool* enqueued = nullptr,
                 bool non_blocking = false);

  /// Appends a class-scope firing for an object this shard owns and wakes
  /// the worker, which runs it before its next batch: one system
  /// transaction per firing, with the ErrorPolicy's retries for a busy
  /// lock; a firing that still fails is counted in the sequencer's
  /// apply_errors. Never blocks (the inbox is unbounded): the sequencer's
  /// merge thread calls it, and a shard may itself be waiting on that
  /// thread to make room in the sequencer queue.
  void EnqueueFiring(seq::Firing firing);

  /// Installs (or clears) the queue's full→not-full space hook; see
  /// EventQueue::SetSpaceCallback for the (locked) invocation contract.
  void SetCapacityCallback(std::function<void()> cb) {
    queue_.SetSpaceCallback(std::move(cb));
  }

  /// True once a WAL append has failed and logging was disabled.
  bool wal_degraded() const {
    return wal_degraded_.load(std::memory_order_acquire);
  }

  /// Checkpoint pause protocol (caller: IngestRuntime::Checkpoint, with
  /// producers gated out of Post): RequestPause flags the worker and kicks
  /// it out of its queue wait; WaitPaused blocks until it parks at the loop
  /// head; Resume lets it run again. While paused the queue is quiescent,
  /// so SnapshotQueue captures exactly the accepted-but-unprocessed events.
  /// A parked worker still runs the firings it is handed.
  void RequestPause();
  void WaitPaused();
  void Resume();
  std::vector<IngestEvent> SnapshotQueue() const { return queue_.Snapshot(); }

  /// Blocks until every event and firing enqueued before this call has
  /// been processed (committed, dead-lettered or counted as failed); with
  /// `firings_only`, the firings alone. Barrier semantics only hold if no
  /// producer posts to this shard concurrently with the wait.
  void WaitDrained(bool firings_only = false);

  /// Closes the queue: subsequent Enqueues fail, while the worker goes on
  /// running what the queue holds and every firing it is handed.
  void Close();

  /// Closes the queue, lets the worker finish its queue and inbox, and
  /// joins it. Idempotent.
  void Stop();

  size_t index() const { return index_; }
  size_t queue_depth() const { return queue_.size(); }

  /// Counter snapshot, including the queue's depth high-water mark.
  ShardMetricsSnapshot MetricsSnapshot() const;

 private:
  void Run();  ///< Worker loop: firings, then PopBatch → ProcessBatch.
  void ParkUntilResumed();  ///< Worker-side half of the pause protocol.
  /// The queue is closed and empty: waits for a firing or Stop. False
  /// once the worker should exit.
  bool WaitAfterClose();
  /// Runs every firing in the inbox, on this shard's firing lane.
  void RunFirings();
  void RunFiring(const seq::Firing& firing);
  void ProcessBatch(const std::vector<IngestEvent>& batch);
  /// One transaction around the whole batch.
  Status RunBatch(const std::vector<IngestEvent>& batch);
  /// Retry loop for a single event, ending in success or dead-letter.
  void ProcessOne(const IngestEvent& event);
  /// Counts retry `attempt` (1-based) and sleeps its doubling backoff.
  void Backoff(int attempt);
  /// One transaction around a single event.
  Status TryOne(const IngestEvent& event);
  void DeadLetter(const IngestEvent& event, const Status& status);

  static bool IsRetryable(const Status& status);
  static uint64_t NowNs();

  const size_t index_;
  Database* const db_;
  const Options options_;
  EventQueue queue_;
  mutable ShardMetrics metrics_;
  std::thread worker_;

  // Drain barrier, firing inbox and pause/exit state, all under mu_; cv_
  // wakes drain waiters and a worker that is parked or idle on a closed
  // queue. enqueued_ counts events accepted into the queue, completed_
  // events fully processed; the firing counters do the same for inbox_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t enqueued_ = 0;
  uint64_t completed_ = 0;
  std::vector<seq::Firing> inbox_;
  uint64_t firings_enqueued_ = 0;
  uint64_t firings_run_ = 0;
  bool paused_ = false;
  bool exit_ = false;

  /// Serializes producers through the push+WAL-append critical section so
  /// the log's record order matches the queue's event order. Uncontended
  /// (and untaken) when no WAL is attached.
  std::mutex wal_mu_;
  std::string wal_payload_;  ///< Record encode scratch, under wal_mu_.
  /// Latched by the first WAL append failure (under wal_mu_); read lock-free
  /// by monitoring.
  std::atomic<bool> wal_degraded_{false};

  /// Pause protocol: the flag the worker polls at its loop head (set
  /// under mu_ where a parked worker must wake); paused_ acknowledges.
  std::atomic<bool> pause_requested_{false};
};

}  // namespace runtime
}  // namespace ode

#endif  // ODE_RUNTIME_SHARD_H_
