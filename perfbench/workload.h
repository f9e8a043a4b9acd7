// Pieces both workloads share: phase sizing, the open-loop fire-time book
// trigger actions write into, pacing, and the span analyses that turn a
// traced pass into per-layer metrics.
#ifndef ODE_PERFBENCH_WORKLOAD_H_
#define ODE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "ode/class_def.h"
#include "ode/database.h"
#include "runtime/ingest_runtime.h"

namespace perfbench {

/// Event counts of the phases. They are fixed for a given --seconds; no
/// phase ever ends on a clock (see README.md, "Run phases").
struct PhaseSizes {
  size_t warmup = 0;
  size_t saturation = 0;
  size_t open = 0;
  size_t total() const { return warmup + saturation + open; }
};

/// Saturation gets `saturation_eps` x seconds/2 events (the workload's
/// nominal throughput on a 4-vCPU host), the open-loop phase rate x
/// seconds/2, the warm-up one event per object.
PhaseSizes SizePhases(const RunOptions& opts, size_t saturation_eps);

/// 2 shards, max_batch 64, kBlock: the settings both workloads share.
ode::runtime::IngestOptions BaseIngestOptions();

/// Open-loop bookkeeping. Event i is due at start_ns + i * period_ns and
/// carries that due time as its `t`, so a trigger action can find its
/// event's slot without a lookup.
struct OpenLoop {
  int64_t start_ns = 0;
  int64_t period_ns = 0;
  /// When the last trigger action of event i's final attempt ran; 0 when
  /// the event fired nothing. Each slot is written only by the shard
  /// worker that owns the event and read after a Drain.
  std::vector<int64_t> fire_ns;
  /// How late the generator posted event i (post start minus due), µs.
  std::vector<double> late_us;

  int64_t Due(size_t i) const {
    return start_ns + static_cast<int64_t>(i) * period_ns;
  }
};

/// Points RecordFire at `book` (null stops recording). Call only while the
/// shard workers are idle; the queue handoff publishes it to them.
void PublishOpenLoop(OpenLoop* book);
/// Called by every benchmark trigger action with its firing event's `t`.
void RecordFire(int64_t t);
/// Spins (and sleeps for long gaps) until NowNs() >= due_ns.
void WaitUntil(int64_t due_ns);

/// `t`, the last argument of every benchmark method.
int64_t ArgT(const ode::MethodContext& ctx);
int64_t EventT(const ode::PostedEvent* event);

/// `t` values of dead-lettered events, filled by the dead-letter hook on
/// shard workers.
struct DeadLetters {
  std::mutex mu;
  std::vector<int64_t> ts;
};

/// Latency samples of open-loop events: (due time - phase start, µs).
using Samples = std::vector<std::pair<int64_t, double>>;

/// Tail summary of open-loop latencies. The host this benchmark was sized
/// on preempts vCPUs for 1-30 ms several times a second, which makes a
/// whole-phase p99 a measure of host noise; `p99` is therefore the median
/// over 200 ms windows (by due time) of each window's p99. The whole-phase
/// figures are printed alongside.
struct Tail {
  double p50 = 0;  ///< Over the whole phase.
  double p99 = 0;  ///< Median of per-window p99s.
  double whole_p99 = 0;
  double whole_p999 = 0;
  size_t n = 0;
  size_t windows = 0;
};
Tail Summarize(const Samples& samples);
void PrintTail(const char* name, const Tail& tail);

/// End-to-end figures of one pass.
struct EndToEnd {
  double setup_s = 0;
  double throughput_eps = 0;
  double cpu_us_per_event = 0;
  Tail fire;
  Tail ack;  ///< wire_durable only: due time to the covering ACK.
  double gen_late_p99_us = 0;
  double recovery_s = 0;
};

/// Fire latency over the open-loop events, skipping dead-lettered ones
/// (`dead_ts` holds their `t`).
Tail FireLatency(const OpenLoop& book, std::vector<int64_t> dead_ts);

/// One saturation segment: a fixed number of posts followed by the
/// segment's barrier. The phase is several equal segments and reports the
/// median segment, which keeps one preempted stretch from moving a run.
struct Segment {
  size_t events = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0;
  double barrier_ms = 0;  ///< The closing Drain.
};
inline constexpr int kSegments = 5;
/// Median segment throughput and CPU per event into `e2e`.
void SummarizeSegments(const std::vector<Segment>& segments, EndToEnd* e2e);
/// Mean restart time into `e2e`; prints every restart, in order. The
/// mean, not the median: on a shared 4-vCPU host, restart times fell into
/// two clusters about 1.5x apart (0.65-0.85 s and 0.95-1.2 s for one
/// rules_mem restore) that lasted seconds at a time, and the median of a
/// run jumped between them from one run to the next.
void SummarizeRestarts(const std::vector<double>& seconds, EndToEnd* e2e);

/// Shard counters accumulated between two Metrics() snapshots.
ode::runtime::ShardMetricsSnapshot ShardDelta(
    const ode::runtime::ShardMetricsSnapshot& after,
    const ode::runtime::ShardMetricsSnapshot& before);

/// What the spans of a traced runtime pass say about the runtime, ode and
/// trigger layers.
struct RunSpanStats {
  double post_busy_s = 0;      ///< gen.post time inside the saturation phase.
  std::vector<double> post_us;  ///< gen.post durations, saturation phase.
  /// Due time to first method-body entry, open-loop events.
  std::vector<double> queue_wait_us;
  uint64_t body_runs = 0;       ///< Method-body executions, all attempts.
  std::vector<double> detect_us;  ///< Body exit to action entry, same thread.
  std::vector<double> action_us;
};
RunSpanStats AnalyzeRunSpans(const std::vector<Span>& spans, int64_t sat_start,
                             int64_t sat_end, const OpenLoop& book);
/// The runtime-layer metrics both workloads report from Metrics()
/// snapshots: after warm-up, after saturation, and after the final drain.
void AddRuntimeCounters(const ode::runtime::RuntimeMetricsSnapshot& warm,
                        const ode::runtime::RuntimeMetricsSnapshot& sat,
                        const ode::runtime::RuntimeMetricsSnapshot& end,
                        Report* report);

/// Prints the self-time table of `spans` under a heading.
void PrintSelfTimes(const char* stage, const std::vector<Span>& spans);

/// Provenance and phase sizes, printed on every run.
void PrintRunHeader(const RunOptions& opts, const PhaseSizes& sizes,
                    const std::string& params);

/// One pass of a workload: set up, run the phases, check the outputs into
/// `report` and fill `e2e`. A traced pass records spans and adds the
/// per-layer metrics to `report`. A non-OK status means the pass could not
/// run at all (no result is printed).
ode::Status RunRulesMem(const RunOptions& opts, bool traced, Report* report,
                        EndToEnd* e2e);
ode::Status RunWireDurable(const RunOptions& opts, bool traced,
                           Report* report, EndToEnd* e2e);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_WORKLOAD_H_
