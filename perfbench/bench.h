// Shared pieces of the end-to-end benchmark: options, the result report,
// order statistics, process counters, and the in-memory span tracer.
//
// See README.md in this directory for the workloads, phases and metrics.
#ifndef ODE_PERFBENCH_BENCH_H_
#define ODE_PERFBENCH_BENCH_H_

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Steady-clock nanoseconds. Also the unit of every `t` argument the
/// generator passes: an event's due time, which makes it unique per event.
int64_t NowNs();

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;  ///< Sizes the two measured phases (see README.md).
  bool trace = false;
  int64_t open_rate = 10000;  ///< Open-loop phase rate, events per second.
  std::string out_dir = ".bench_build/out";  ///< Scratch files and spans.
};

/// Workload shape shared by both workloads.
inline constexpr size_t kObjects = 65536;
inline constexpr size_t kShards = 2;
inline constexpr size_t kMaxBatch = 64;
/// Setups per untraced pass (a traced pass sets up once); setup_s is the
/// median. Each workload sets its own number of restarts.
inline constexpr int kSetupRepeats = 3;

/// A metric name and its unit, as BENCHMARK.json declares them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Printed by every untraced run.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed by every traced run.
const std::vector<MetricSpec>& LayerMetrics();

/// Collects one run's verdict and metrics and prints the final JSON line.
class Report {
 public:
  /// Records a metric of either table; its unit comes from the table.
  void Metric(const std::string& name, double value);
  /// Records a mismatch for every metric of `specs` not yet recorded.
  void ExpectAll(const std::vector<MetricSpec>& specs);
  /// A failed exactness check: the run's output is not correct.
  void Mismatch(const std::string& what);
  /// A check helper: records a mismatch when `ok` is false.
  void Expect(bool ok, const std::string& what);
  /// An operation that returned an error.
  void FailedOp(const std::string& what);
  void Attempted(uint64_t n) { attempted_ += n; }

  bool correct() const { return mismatches_ == 0 && failed_ == 0; }
  /// Prints `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t messages_ = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Pins the calling thread to one CPU of the process's affinity mask, the
/// `index`-th modulo their number, and restores the mask when it goes out
/// of scope. Threads started meanwhile inherit the pin.
class CpuPin {
 public:
  explicit CpuPin(int index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Process user+system CPU seconds (all threads).
double CpuSeconds();
/// Resident set size now, from /proc/self/statm.
int64_t RssBytes();
/// ru_maxrss in MiB.
double PeakRssMb();
/// Returns freed heap pages to the OS, so RSS deltas measured after a
/// teardown count new memory rather than reuse.
void TrimHeap();

/// Size of a file; 0 when it does not exist.
uint64_t FileBytes(const std::string& path);
/// Removes `dir` and its files (one level). Missing is fine.
void RemoveDir(const std::string& dir);
/// Copies the regular files of `from` into a new directory `to`.
ode::Status CopyDir(const std::string& from, const std::string& to);
/// Creates `dir` and its parents.
ode::Status MakeDirs(const std::string& dir);

// --- Tracing ------------------------------------------------------------
//
// Spans are recorded only in a traced pass, into per-thread buffers (no
// locking on the hot path); Collect() moves them out once the threads that
// wrote them are quiescent (after a Drain or a Stop).

enum class SpanName : uint8_t {
  kGenPost,     ///< Generator: one Post (runtime or client).
  kBody,        ///< Method body on the executing thread.
  kAction,      ///< Trigger action on the executing thread.
  kDrain,       ///< Runtime or client Drain.
  kCheckpoint,  ///< IngestRuntime::Checkpoint.
  kStart,       ///< IngestRuntime::Start (setup and recovery).
  kRefBegin,    ///< Reference replay: Database::Begin.
  kRefCall,     ///< Reference replay: Database::Call.
  kRefCommit,   ///< Reference replay: Database::Commit.
  kEncode,      ///< Wire codec: AppendPost over the run's frames.
  kDecode,      ///< Wire codec: FrameDecoder over the same bytes.
  kLogAppend,   ///< LogWriter::Append over the run's records.
  kLogSync,     ///< LogWriter::Sync after one 64-record group.
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  int64_t event = 0;    ///< The event's `t` (0 when not per-event).
  int32_t parent = -1;  ///< Index of the enclosing span in the same thread.
  SpanName name = SpanName::kGenPost;
  uint8_t thread = 0;   ///< Index of the recording thread's buffer.
};

/// Turns span recording on or off. Call only while no traced thread runs.
void SetTracing(bool on);
bool Tracing();

/// Records one span for its lifetime (a no-op when tracing is off).
class SpanScope {
 public:
  SpanScope(SpanName name, int64_t event);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int32_t index_ = -1;
  int32_t prev_open_ = -1;
};

/// Moves every recorded span out of the per-thread buffers, each thread's
/// spans contiguous and in recording order (parents index into the same
/// thread's run, offset by its position in the result).
std::vector<Span> CollectSpans();

/// Per-name totals over a span set: count, summed duration, and self time
/// (duration minus the time covered by direct children).
struct LayerTime {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans);

/// Appends `spans` to `path` as fixed 32-byte little-endian records:
/// i64 start_ns, i64 end_ns, i64 event, i32 parent, u8 name, u8 thread,
/// u8 stage, u8 zero (the layout README.md documents).
ode::Status WriteSpans(const std::string& path, uint8_t stage,
                       const std::vector<Span>& spans, bool truncate);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_BENCH_H_
