#ifndef ODE_SEQ_SEQUENCER_METRICS_H_
#define ODE_SEQ_SEQUENCER_METRICS_H_

#include <cstdint>
#include <vector>

namespace ode {
namespace seq {

/// Plain-value copy of the sequencer's counters. Sampled wait-free from
/// relaxed atomics (no lock on the publish or apply paths), so the fields
/// are individually — not mutually — consistent, like ShardMetricsSnapshot.
/// Carried on RuntimeMetricsSnapshot and over the wire in METRICS_REPLY.
struct SequencerMetricsSnapshot {
  bool enabled = false;
  uint64_t published = 0;      ///< Events accepted into the sequencer queue.
  uint64_t sequenced = 0;      ///< Events merged + applied in total order.
  uint64_t firings = 0;        ///< Class-scope trigger firings.
  uint64_t dropped = 0;        ///< Publishes shed by kDropNewest.
  /// Order records the codec could not hold, and firings whose action
  /// failed for good on the owner shard (recorded, skipped).
  uint64_t apply_errors = 0;
  uint64_t queue_depth = 0;    ///< Sampled queue + pending backlog.
  uint64_t queue_high_water = 0;
  /// published - sequenced at sample time: how far the merge runs behind
  /// the shards.
  uint64_t merge_lag = 0;
  /// Events dropped during recovery replay because their (lane, lane_seq)
  /// was at or below the recovered order-log watermark (already applied
  /// before the crash).
  uint64_t replay_deduped = 0;
  /// Highest lane_seq applied per lane (monotone; index = lane id, the
  /// last lane being the external/non-worker lane).
  std::vector<uint64_t> lane_watermark;
};

}  // namespace seq
}  // namespace ode

#endif  // ODE_SEQ_SEQUENCER_METRICS_H_
