#ifndef ODE_RUNTIME_INGEST_RUNTIME_H_
#define ODE_RUNTIME_INGEST_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "runtime/event_queue.h"
#include "runtime/metrics.h"
#include "runtime/shard.h"
#include "seq/sequencer.h"
#include "wal/log_format.h"
#include "wal/log_writer.h"
#include "wal/recovery.h"

namespace ode {

class Database;

namespace runtime {

/// Configuration for IngestRuntime. Defaults are sensible for tests; the
/// bench sweeps num_shards and max_batch.
struct IngestOptions {
  /// Worker shards. Events are routed by object-id hash, so all events for
  /// one object always land in the same shard (preserving per-object
  /// order). Clamped to >= 1.
  size_t num_shards = 4;
  /// Per-shard queue capacity (events).
  size_t queue_capacity = 1024;
  /// Maximum events drained into one worker transaction.
  size_t max_batch = 64;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  ErrorPolicy error_policy;
  /// Receives events whose retries are exhausted (or that failed
  /// non-retryably). Runs on the owning shard's worker thread.
  DeadLetterFn dead_letter;
  /// Stamp events at Post and feed the enqueue→commit latency histogram.
  bool record_latency = true;
  /// Reclaim finished transaction records at each Drain() barrier — the
  /// one point where no worker can be mid-commit. Keeps long runs from
  /// accumulating one Transaction record per event.
  bool gc_finished_txns_on_drain = true;
  /// Durable event log configuration. When `durability.dir` is set, Start()
  /// recovers from whatever checkpoint + logs the directory holds, every
  /// accepted Post is appended to a per-shard WAL, and Checkpoint() is
  /// available (docs/DURABILITY.md). Default: disabled, zero hot-path cost.
  wal::WalOptions durability;
  /// Capacity of the bounded merge queue of the §9 class-scope sequencer
  /// (docs/SEQUENCER.md), in events.
  size_t seq_queue_capacity = 4096;
};

/// What Start()'s recovery pass found and did (all zero/false when
/// durability is off or the directory was empty).
struct RecoveryInfo {
  bool attempted = false;       ///< Durability was enabled at Start.
  bool had_checkpoint = false;  ///< A valid checkpoint was restored.
  uint64_t replayed_events = 0; ///< Checkpoint in-flight + WAL records re-posted.
  uint64_t skipped_covered = 0; ///< Log records subsumed by the checkpoint.
  uint64_t torn_files = 0;      ///< Log files with a discarded invalid tail.
  uint64_t torn_bytes = 0;
  /// Sequencer order-log records re-applied to the class automata.
  uint64_t sequenced_replayed = 0;
  std::vector<std::string> notes;  ///< Human-readable recovery log.
};

/// Sharded concurrent event-ingestion front end over a Database.
///
/// Concurrency model: the paper's per-object event histories (§3–§5) make
/// events on *different* objects commute — each object's automata consume
/// only that object's events. Routing by object-id hash therefore
/// preserves semantics exactly: one shard owns an object's entire event
/// stream, its FIFO queue plus single consumer replay the stream in
/// arrival order, and per-object trigger evaluation is single-threaded by
/// construction. Shared substrate structures (object table, lock table,
/// transaction table, counters) are internally synchronized.
///
/// What the caller must still serialize externally (see docs/RUNTIME.md):
/// schema registration, class-scope trigger (de)activation, virtual-clock
/// advancement, and persistence — do these before Start() or after a
/// Drain() with producers quiesced.
///
/// Typical use:
///
///   IngestRuntime rt(&db, {.num_shards = 4, .max_batch = 64});
///   ODE_RETURN_IF_ERROR(rt.Start());
///   for (...) ODE_RETURN_IF_ERROR(rt.Post(oid, "deposit", {Value::Int(5)}));
///   ODE_RETURN_IF_ERROR(rt.Drain());   // barrier: all posts processed
///   ODE_RETURN_IF_ERROR(rt.Stop());    // graceful: drains, joins workers
class IngestRuntime {
 public:
  explicit IngestRuntime(Database* db, IngestOptions options = {});
  ~IngestRuntime();  ///< Stops if still running.

  IngestRuntime(const IngestRuntime&) = delete;
  IngestRuntime& operator=(const IngestRuntime&) = delete;

  /// Creates the shards and launches their workers. A runtime can be
  /// started once; kFailedPrecondition on a second Start. Thread-safe:
  /// concurrent callers race on an atomic flag, exactly one wins and the
  /// rest fail without touching the shards.
  Status Start();

  /// Queues one method invocation for `oid`. Thread-safe; any number of
  /// producer threads may post concurrently. The outcome under a full
  /// queue depends on the backpressure policy (see BackpressurePolicy).
  /// kFailedPrecondition before Start(); kShutdown after Stop() — distinct
  /// so front ends (e.g. the network server) can tell "retry elsewhere"
  /// from "never started". When `producer` is non-null the outcome is also
  /// recorded against that producer's counters.
  Status Post(Oid oid, std::string method, std::vector<Value> args = {},
              ProducerMetrics* producer = nullptr);

  /// Post carrying a durable producer identity and per-producer sequence
  /// number. On acceptance (the event entered a queue — not dropped, not
  /// bounced) the pair is recorded in the applied-seq set, persisted across
  /// checkpoints, and available via AppliedSeqs() — the state behind the
  /// network layer's exactly-once replay dedup. Identity-tracking works
  /// with or without a WAL; an empty identity degrades to plain Post.
  Status Post(Oid oid, std::string method, std::vector<Value> args,
              ProducerMetrics* producer, std::string_view identity,
              uint64_t seq);

  /// Non-blocking Post: never parks the calling thread, whatever the
  /// backpressure policy. Differences from Post, all scoped to the paths
  /// that could block:
  ///  * kBlock policy, full shard queue  → kWouldBlock, `*event` left
  ///    intact (not moved from) so the caller can park the exact event and
  ///    retry it later; nothing is recorded anywhere (no producer
  ///    counters, no applied-seq entry, no shard metrics) because the
  ///    event is still in flight from the caller's point of view.
  ///  * durable mode, Checkpoint() holding the post gate → same
  ///    kWouldBlock park-and-retry contract (the gate is only held for the
  ///    checkpoint's pause window).
  /// Every other outcome (accept, kReject bounce, drop, shutdown, bad
  /// state) is identical to Post — recorded identically, and `*event` is
  /// consumed. Pair with SetCapacityListener for retry wakeups. This is
  /// the shard handoff the network IO workers use so one full queue parks
  /// one connection instead of a whole worker (docs/NETWORK.md).
  ///
  /// For an identified event the applied-seq check-and-record is atomic
  /// (held across the enqueue), making the runtime the authoritative
  /// exactly-once arbiter: if the (identity, seq) pair was already
  /// accepted — even by a concurrent post on another thread, even if the
  /// event is still queued — TryPost returns OK, sets `*duplicate`, and
  /// enqueues nothing (`*event` is untouched). This is the network front
  /// end's only dedup check: it keeps replay exactly-once even when a
  /// reconnecting client races its dying predecessor connection on
  /// another IO worker.
  Status TryPost(IngestEvent* event, ProducerMetrics* producer = nullptr,
                 bool* duplicate = nullptr);

  /// Installs (or clears, with nullptr) a capacity listener invoked with
  /// the shard index whenever a previously-full shard queue frees space —
  /// the wakeup that tells a TryPost caller its parked events may now fit.
  /// The listener runs on shard worker threads with the shard's queue
  /// mutex held: it must be cheap and nonblocking (e.g. write to a wake
  /// pipe). Clearing the listener synchronizes with that mutex, so after
  /// SetCapacityListener(nullptr) returns no invocation is in flight —
  /// callers may then tear down whatever the listener captured. Call only
  /// while the runtime is started (the shards must exist).
  void SetCapacityListener(std::function<void(size_t shard)> listener);

  /// Registers a named producer (a connection, a replay file, a thread)
  /// whose posts should be attributed in Metrics(). The returned pointer
  /// stays valid until RetireProducer (or the runtime's destruction); pass
  /// it to Post. Thread-safe.
  ProducerMetrics* RegisterProducer(std::string name);

  /// Retires a producer returned by RegisterProducer: its final counters
  /// are folded into an aggregate "retired" entry (so Metrics() totals
  /// keep accounting for it) and its registry slot is freed. Front ends
  /// with per-connection producers call this on disconnect, which keeps
  /// long-running servers from growing the producer list without bound.
  /// The pointer is invalid afterwards. Thread-safe; unknown/null
  /// producers are ignored.
  void RetireProducer(ProducerMetrics* producer);

  /// Barrier: returns once every event posted before the call has been
  /// processed (committed or dead-lettered), including the class-scope
  /// firings it caused, run on their objects' shards. Callers must quiesce
  /// producers for the barrier to be meaningful.
  Status Drain();

  /// Durable-mode only: pauses all shards (gating producers out of Post),
  /// lets them run every class-scope firing already decided, snapshots
  /// database state + queued events + metrics + applied-seq sets into an
  /// atomically-published checkpoint file, then truncates the per-shard
  /// logs and the order log and resumes. Crash-safe at every step: recovery sees
  /// either the old checkpoint + full logs or the new checkpoint (+ logs
  /// whose covered records it skips). kFailedPrecondition when durability
  /// is off or the runtime is not running. Call from one control thread;
  /// do not run Drain() concurrently.
  Status Checkpoint();

  /// The applied-seq set recorded for `identity` (empty set if unknown).
  /// A copy — safe to read while posts continue.
  wal::SeqSet AppliedSeqs(std::string_view identity) const;

  /// What recovery did during Start(). Stable once Start returns.
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Graceful shutdown: closes the queues (pending events, and every
  /// class-scope firing they cause, are still processed), joins all
  /// workers, and (durable mode) fsyncs the logs so every accepted event
  /// survives a clean stop. Idempotent; Post fails afterwards.
  Status Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  size_t num_shards() const { return options_.num_shards; }
  const IngestOptions& options() const { return options_; }

  /// Which shard owns `oid` (splitmix64 finalizer over the raw id, so
  /// sequentially-allocated oids spread evenly).
  size_t ShardOf(Oid oid) const;

  /// Aggregated + per-shard counter snapshot.
  RuntimeMetricsSnapshot Metrics() const;

  /// The class-scope sequencer (null before Start()). Valid until Stop()
  /// returns.
  seq::Sequencer* sequencer() const { return sequencer_.get(); }

  /// True once any log writer (shard WAL or sequencer order log) hit a
  /// sticky I/O failure and the runtime fell back to in-memory operation.
  bool wal_degraded() const {
    return wal_degraded_.load(std::memory_order_acquire);
  }

 private:
  /// The Post path shared by Post/TryPost; `event` carries identity/seq/
  /// replayed flags already. Takes the event by pointer so the
  /// non-blocking park-and-retry bounce can hand it back intact.
  Status PostEvent(IngestEvent* event, ProducerMetrics* producer,
                   bool non_blocking = false, bool* duplicate = nullptr);
  /// Start()-side recovery, before the shards exist: read checkpoint +
  /// logs, restore snapshot/metrics-baselines/applied-seqs, open the
  /// per-shard writers in append mode, note orphan files.
  Status LoadDurability(wal::RecoveredState* recovered);
  /// Start()-side recovery, after the shards are running: re-post the
  /// checkpoint's in-flight events and the surviving log records through
  /// the normal shard path (per old file, in original order).
  Status ReplayRecovered(wal::RecoveredState recovered);
  /// Checkpoint body, called with the post gate held and shards paused.
  Status CheckpointLocked();
  /// Builds the sequencer (durable mode also opens the order log and
  /// re-applies its records, whose firings land in the not-yet-started
  /// shards' inboxes), attaches it to the database, and starts its merge
  /// thread. Called from Start() between building and starting the shards.
  Status StartSequencer(const wal::RecoveredState& recovered);
  /// Cycles shards → sequencer → firing inboxes until a pass decides no new
  /// firing: then no event or firing is queued, running or unmerged. With
  /// `firings_only` (paused shards) the shard queues are left alone.
  void Settle(bool firings_only);
  /// First-failure escalation: latch wal_degraded_, print the operator
  /// banner once. Safe from any thread.
  void DegradeWal(const char* what, const Status& status);

  Database* const db_;
  IngestOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Post/Drain gate: the release store in Start publishes `shards_` to
  /// any thread whose acquire load sees true.
  std::atomic<bool> running_{false};
  /// One-shot latch claimed by atomic exchange, so concurrent Start calls
  /// cannot both build the shard vector.
  std::atomic<bool> started_{false};
  /// Producer registry: unique_ptrs, so handed-out pointers stay stable
  /// while Metrics() snapshots under the same lock. RetireProducer erases
  /// entries after folding them into retired_.
  mutable std::mutex producers_mu_;
  std::vector<std::unique_ptr<ProducerMetrics>> producers_;
  /// Sum of the counters of every retired producer (name unused here;
  /// Metrics() reports it as "retired[<count>]").
  ProducerMetricsSnapshot retired_;
  uint64_t retired_count_ = 0;

  // ---- Durability state (untouched when options_.durability is off) ----

  bool durable_ = false;  ///< Set once in Start from options_.durability.
  /// One log writer per shard, owned here (shards hold raw pointers).
  std::vector<std::unique_ptr<wal::LogWriter>> wal_writers_;
  /// Checkpoint/Post gate: Post holds it shared for the enqueue+append
  /// critical section, Checkpoint holds it unique while shards are paused.
  /// Only taken in durable mode.
  mutable std::shared_mutex post_gate_;
  /// Last lsn of old log files from a previous run with a *different*
  /// shard count (no current writer reuses them). Folded into checkpoint
  /// covered-lsn maps until the first successful checkpoint unlinks the
  /// files.
  std::map<size_t, uint64_t> orphan_covered_;
  /// Per-producer-identity applied sequence sets (under wm_mu_).
  mutable std::mutex wm_mu_;
  std::map<std::string, wal::SeqSet> applied_seqs_;
  RecoveryInfo recovery_;
  std::atomic<uint64_t> checkpoints_{0};
  /// Counter baselines restored from the checkpoint, so Metrics() totals
  /// and the next checkpoint carry pre-restart history. Per-shard when the
  /// shard count matches the previous run; otherwise folded into the
  /// unattributable extra base.
  std::vector<ShardMetricsSnapshot> metrics_baseline_;
  ShardMetricsSnapshot metrics_extra_base_;
  bool has_extra_base_ = false;

  /// Latched by the first sticky log-writer failure anywhere (shard WAL or
  /// order log); Checkpoint() refuses while set — truncating logs that are
  /// missing records would turn degraded durability into silent data loss.
  std::atomic<bool> wal_degraded_{false};

  // ---- Class-scope sequencer (see docs/SEQUENCER.md) ----
  // Declaration order matters: ~Sequencer flushes through the order-log
  // writer, so the writer must outlive it.
  std::unique_ptr<wal::LogWriter> order_log_;
  std::unique_ptr<seq::Sequencer> sequencer_;
};

}  // namespace runtime
}  // namespace ode

#endif  // ODE_RUNTIME_INGEST_RUNTIME_H_
