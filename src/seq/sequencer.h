#ifndef ODE_SEQ_SEQUENCER_H_
#define ODE_SEQ_SEQUENCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "seq/seq_event.h"
#include "seq/seq_queue.h"
#include "seq/sequencer_metrics.h"
#include "wal/log_writer.h"

namespace ode {

class Database;

namespace seq {

/// Publisher lane bound to the calling thread (a shard worker sets its
/// user lane once at startup and its firing lane while it runs class
/// actions). Threads that never register publish on the sequencer's last,
/// mutex-serialized "external" lane. -1 = unregistered.
void SetThreadPublisherLane(int32_t lane);
int32_t ThreadPublisherLane();

/// The §9 class-scope event sequencer: a dedicated pipeline stage that
/// merges every shard's class-scope postings into ONE deterministic total
/// order and steps the shared class automata from a single thread. The
/// merge thread decides firings but never acts on an object: it hands each
/// firing to Options::sink, and the object's owning shard runs the action.
///
/// Ordering contract (docs/SEQUENCER.md): per-lane FIFO; events drained in
/// one batch are merged in ascending (lane, lane_seq); the resulting apply
/// order is THE authoritative order — it is what the order log records and
/// what crash recovery reproduces. Watermarks (highest lane_seq applied per
/// lane) are monotone.
class Sequencer {
 public:
  /// What Publish does when the queue is full. kBlock bounds memory and
  /// throttles shards to the merge rate; kDropNewest sheds the publish
  /// (counted) — acceptable only when class triggers are advisory.
  enum class OverflowPolicy { kBlock, kDropNewest };

  struct Options {
    size_t queue_capacity = 4096;
    /// The runtime's layout for N shards is 2N + 1 lanes: shard i's user
    /// events on lane i, the events its class actions post on lane N + i
    /// (firing_lane), and the external lane last.
    uint32_t num_lanes = 2;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Required: receives every firing, in apply order, on the merge
    /// thread (and on the caller of ApplyRecovered). Must not block.
    FiringSink sink;
    /// Optional durable order log (seq/order_log.h; owned by the caller,
    /// must outlive the sequencer). Written *behind* each apply.
    wal::LogWriter* order_log = nullptr;
    /// Invoked once, off the hot path, when the order log's writer fails
    /// sticky (the runtime escalates to wal-degraded mode). An event the
    /// order-record codec cannot hold is an apply error instead, and
    /// logging goes on.
    std::function<void(const Status&)> on_log_failure;
  };

  Sequencer(Database* db, Options options);
  ~Sequencer();

  Sequencer(const Sequencer&) = delete;
  Sequencer& operator=(const Sequencer&) = delete;

  /// Spawns the merge thread. Call after recovery (ApplyRecovered /
  /// RestoreLaneCounters) and before the first Publish. kInvalidArgument
  /// without a sink.
  Status Start();

  /// Closes the queue, applies everything still buffered, joins the merge
  /// thread, and syncs the order log. Idempotent.
  void Stop();

  /// RAII publish-side gate. TriggerEngine holds one across its whole
  /// publish section (slot reads + classification + Publish) so
  /// ExecuteQuiesced can establish a moment where no publisher is touching
  /// class-slot memory. Blocks in the constructor while the gate is closed.
  class PublishScope {
   public:
    explicit PublishScope(Sequencer* s);
    ~PublishScope();

    PublishScope(const PublishScope&) = delete;
    PublishScope& operator=(const PublishScope&) = delete;

   private:
    Sequencer* s_;
  };

  /// Assigns (lane, lane_seq) from the calling thread's lane and enqueues.
  /// Caller must hold a PublishScope. Returns false when the event was
  /// dropped (kDropNewest overflow or sequencer stopped). While the thread
  /// has a PendingPublications open, the event is held there instead.
  bool Publish(SeqEvent event);

  /// Holds the calling thread's publications while its transaction runs,
  /// so only committed events enter the merged stream: a shard retries a
  /// rolled-back batch one event at a time, and publishing at post time
  /// would publish the rolled-back attempt's events a second time.
  /// Commit() publishes the held events in order; destruction without
  /// Commit() drops them. `sequencer` may be null (nothing is held).
  class PendingPublications {
   public:
    explicit PendingPublications(Sequencer* sequencer);
    ~PendingPublications();

    PendingPublications(const PendingPublications&) = delete;
    PendingPublications& operator=(const PendingPublications&) = delete;

    /// The transaction committed: publish what it posted.
    void Commit();

   private:
    friend class Sequencer;
    Sequencer* sequencer_;
    std::vector<SeqEvent> held_;
  };

  /// Blocks until every accepted publish has been applied: automata
  /// stepped and firings handed to the sink (not run — the sink's owner
  /// runs them).
  void WaitDrained();

  /// Runs `fn` with publishers gated out and the merge thread idle — the
  /// (de)activation barrier: class-slot structure may be mutated inside
  /// `fn` with no publisher or merge-side reader racing.
  Status ExecuteQuiesced(const std::function<Status()>& fn);

  /// Counts a firing whose action failed for good on its owner (one of
  /// the apply_errors).
  void CountFiringError() {
    apply_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Crash recovery (all pre-Start) ------------------------------------

  /// Restores per-lane publish counters (and watermark floors) from a
  /// checkpoint: `last_assigned[lane]` is the highest lane_seq handed out
  /// before the checkpoint. Replayed shards then regenerate the same
  /// lane_seq values the original run assigned.
  void RestoreLaneCounters(const std::vector<uint64_t>& last_assigned);

  /// Re-applies one recovered order-log record on the caller thread, in
  /// logged order: advances automata, hands firings to the sink, raises
  /// the lane watermark. Does NOT re-append to the order log. A record at
  /// or below the watermark is skipped (already applied). One past
  /// watermark + 1 is kOutOfRange and not applied: the log lost a record of
  /// that lane (an event the order-record codec could not hold), so the
  /// lane's events from the hole on are left to shard-WAL replay.
  Status ApplyRecovered(const SeqEvent& event);

  /// Enters replay-dedup mode: published events whose (lane, lane_seq) is
  /// at or below the lane watermark were already applied before the crash
  /// (recovered from the order log) and are dropped, giving exactly-once
  /// re-execution during shard-WAL replay.
  void BeginReplayDedup();
  void FinishReplay();

  /// Current per-lane publish counters (checkpoint capture; call only
  /// while quiesced/drained).
  std::vector<uint64_t> LaneCounters() const;

  SequencerMetricsSnapshot Metrics() const;

  uint32_t num_lanes() const { return options_.num_lanes; }
  uint32_t external_lane() const { return options_.num_lanes - 1; }
  /// Lane for the events posted by class actions shard `shard` runs.
  uint32_t firing_lane(size_t shard) const {
    return external_lane() / 2 + static_cast<uint32_t>(shard);
  }
  /// Firings decided so far. Each is in the sink before it is counted.
  uint64_t firings() const { return firings_.load(std::memory_order_acquire); }

 private:
  void Run();
  /// Applies one merged event (unless replay dedup drops it) and appends
  /// it to the order log.
  void ApplyOne(const SeqEvent& event);
  /// Steps the automata for `event`, hands its firings to the sink, and
  /// advances the counters and the lane watermark.
  void Apply(const SeqEvent& event);
  bool Enqueue(SeqEvent event);
  void NoteConsumed();
  void EnterPublish();
  void ExitPublish();
  bool Drained() const;

  Database* db_;
  Options options_;
  SeqQueue queue_;

  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  /// Publish gate (quiesce protocol).
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool gate_closed_ = false;
  int publishing_ = 0;

  /// Per-lane publish counters; shard lanes are single-producer, the
  /// external lane serializes on external_mu_.
  std::vector<std::atomic<uint64_t>> lane_next_;
  std::mutex external_mu_;

  std::string log_payload_;  ///< Order-record encode scratch.

  std::atomic<bool> replay_dedup_{false};
  std::vector<std::atomic<uint64_t>> watermark_;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> consumed_{0};  ///< sequenced + replay-deduped.
  std::atomic<uint64_t> sequenced_{0};
  std::atomic<uint64_t> firings_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> apply_errors_{0};
  std::atomic<uint64_t> replay_deduped_{0};
  std::atomic<uint64_t> backlog_{0};  ///< Unapplied events of the batch.

  std::atomic<bool> log_failed_{false};

  mutable std::mutex drain_mu_;
  std::condition_variable drained_cv_;
};

}  // namespace seq
}  // namespace ode

#endif  // ODE_SEQ_SEQUENCER_H_
