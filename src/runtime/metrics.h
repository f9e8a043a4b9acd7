#ifndef ODE_RUNTIME_METRICS_H_
#define ODE_RUNTIME_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "seq/sequencer_metrics.h"

namespace ode {
namespace runtime {

/// Power-of-two histogram: bucket i counts samples in [2^i, 2^(i+1)), with
/// bucket 0 also holding 0. Sized for batch sizes (2^12 = 4096 events) and
/// post latencies in microseconds (2^24 us ≈ 16.8 s).
inline constexpr size_t kBatchHistBuckets = 13;
inline constexpr size_t kLatencyHistBuckets = 25;

/// Plain-value copy of one shard's counters, consistent enough for
/// monitoring (counters are sampled individually, not under a lock).
struct ShardMetricsSnapshot {
  uint64_t enqueued = 0;      ///< Accepted into the shard queue.
  uint64_t dropped = 0;       ///< Discarded by kDropNewest backpressure.
  uint64_t rejected = 0;      ///< Bounced by kReject backpressure.
  uint64_t processed = 0;     ///< Posted through the §5 pipeline.
  uint64_t fired = 0;         ///< Trigger firings observed by this shard.
  uint64_t aborted = 0;       ///< Worker transactions that aborted.
  uint64_t retried = 0;       ///< Per-event retry attempts after an abort.
  uint64_t dead_lettered = 0; ///< Events routed to the dead-letter hook.
  /// Transactions that committed but whose after-tcommit epilogue failed
  /// (the events are applied; only the epilogue's postings were lost).
  uint64_t epilogue_failures = 0;
  uint64_t batches = 0;       ///< Worker transactions begun (drained batches).
  uint64_t queue_high_water = 0;
  std::array<uint64_t, kBatchHistBuckets> batch_size_hist{};
  std::array<uint64_t, kLatencyHistBuckets> latency_us_hist{};

  /// Mean batch size implied by `processed` and `batches`.
  double MeanBatch() const;
  /// Approximate latency percentile (p in [0,100]) from the histogram, in
  /// microseconds (upper bucket bound).
  uint64_t LatencyPercentileUs(double p) const;

  void AddInto(ShardMetricsSnapshot* total) const;
};

/// One shard's counters. Every Record* call is a handful of relaxed atomic
/// increments — wait-free, no locks on the ingest hot path.
class ShardMetrics {
 public:
  void RecordEnqueue() { Bump(&enqueued_); }
  void RecordDrop() { Bump(&dropped_); }
  void RecordReject() { Bump(&rejected_); }
  void RecordFired(uint64_t n) {
    fired_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordAbort() { Bump(&aborted_); }
  void RecordRetry() { Bump(&retried_); }
  void RecordDeadLetter() { Bump(&dead_lettered_); }
  void RecordEpilogueFailure() { Bump(&epilogue_failures_); }

  /// One drained batch of `n` events entering a worker transaction.
  void RecordBatch(uint64_t n);
  /// `n` events completed (committed or dead-lettered).
  void RecordProcessed(uint64_t n) {
    processed_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Enqueue→commit latency of one event.
  void RecordLatencyUs(uint64_t us);
  /// Monotonic max of observed queue depth.
  void UpdateQueueHighWater(uint64_t depth);

  ShardMetricsSnapshot Snapshot() const;

 private:
  static void Bump(std::atomic<uint64_t>* counter) {
    counter->fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> processed_{0};
  std::atomic<uint64_t> fired_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> retried_{0};
  std::atomic<uint64_t> dead_lettered_{0};
  std::atomic<uint64_t> epilogue_failures_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  std::array<std::atomic<uint64_t>, kBatchHistBuckets> batch_size_hist_{};
  std::array<std::atomic<uint64_t>, kLatencyHistBuckets> latency_us_hist_{};
};

/// Plain-value copy of one producer's counters (`posted` = Post attempts;
/// the other three partition it by outcome).
struct ProducerMetricsSnapshot {
  std::string name;
  uint64_t posted = 0;    ///< Post calls attributed to this producer.
  uint64_t accepted = 0;  ///< Posts the runtime accepted (incl. drops).
  uint64_t rejected = 0;  ///< kWouldBlock bounces (kReject backpressure).
  uint64_t failed = 0;    ///< Everything else (shutdown, bad lifecycle).
};

/// One producer's counters — the per-connection accounting the network
/// front end attributes posts to. Same wait-free discipline as
/// ShardMetrics: relaxed atomic bumps only.
class ProducerMetrics {
 public:
  explicit ProducerMetrics(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Classifies one Post outcome into the counters.
  void RecordPost(const Status& status) {
    posted_.fetch_add(1, std::memory_order_relaxed);
    if (status.ok()) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
    } else if (status.code() == StatusCode::kWouldBlock) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ProducerMetricsSnapshot Snapshot() const {
    ProducerMetricsSnapshot s;
    s.name = name_;
    s.posted = posted_.load(std::memory_order_relaxed);
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  const std::string name_;
  std::atomic<uint64_t> posted_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> failed_{0};
};

/// Durable-log counters summed over all shard writers. Reported on the
/// runtime snapshot only (not part of the wire metrics format — the frame
/// codec's shard-counter layout is unchanged).
struct WalMetricsSummary {
  bool enabled = false;
  uint64_t appends = 0;        ///< Records appended across all shard logs.
  uint64_t fsyncs = 0;         ///< fsync(2) calls issued by the policy.
  uint64_t bytes_written = 0;  ///< Framed bytes appended.
  uint64_t checkpoints = 0;    ///< Successful Checkpoint() calls.
  uint64_t replayed_on_recovery = 0;  ///< Events re-posted by Start().
  /// A log writer hit a sticky I/O failure and the runtime fell back to
  /// in-memory operation: events keep flowing but are no longer durable.
  bool degraded = false;
};

/// Aggregated view over all shards, plus the per-shard breakdown and the
/// per-producer (e.g. per-connection) attribution.
struct RuntimeMetricsSnapshot {
  ShardMetricsSnapshot total;
  std::vector<ShardMetricsSnapshot> shards;
  std::vector<ProducerMetricsSnapshot> producers;
  WalMetricsSummary wal;
  /// Class-scope sequencer counters (enabled=false before Start()).
  seq::SequencerMetricsSnapshot sequencer;

  /// Multi-line text dump for benches and operator logs.
  std::string ToString() const;
};

}  // namespace runtime
}  // namespace ode

#endif  // ODE_RUNTIME_METRICS_H_
