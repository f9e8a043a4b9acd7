#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Report -----------------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"throughput_eps", "ev/s"}, {"cpu_us_per_event", "us"},
      {"setup_s", "s"},           {"recovery_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"runtime.post_blocked_share", "share"},
      {"runtime.queue_wait_p50_us", "us"},
      {"runtime.queue_wait_p99_us", "us"},
      {"runtime.mean_batch", "events"},
      {"runtime.batches", "count"},
      {"runtime.queue_high_water", "events"},
      {"runtime.commit_p50_us", "us"},
      {"runtime.commit_p99_us", "us"},
      {"runtime.aborted", "count"},
      {"runtime.retried", "count"},
      {"runtime.dead_lettered", "count"},
      {"runtime.drain_ms", "ms"},
      {"ode.body_runs_per_event", "ratio"},
      {"ode.call_p50_us", "us"},
      {"ode.postings_per_call", "events"},
      {"ode.rss_b_per_event", "B"},
      {"ode.rss_b_per_object", "B"},
      {"ode.populate_s", "s"},
      {"trigger.detect_p50_us", "us"},
      {"trigger.detect_p99_us", "us"},
      {"trigger.fires_per_event", "ratio"},
      {"trigger.action_p50_us", "us"},
      {"trigger.ns_per_event_per_trigger", "ns"},
      {"mask.evals_per_event", "ratio"},
      {"txn.begin_commit_p50_us", "us"},
      {"txn.rule_aborts", "count"},
      {"compile.register_ms", "ms"},
      {"compile.dfa_states", "count"},
      {"analyze.rulebase_ms", "ms"},
      {"net.client_post_p50_us", "us"},
      {"net.client_blocked_share", "share"},
      {"net.wire_p50_us", "us"},
      {"net.bytes_per_event", "B"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.frames_handled", "count"},
      {"net.frames_deferred", "count"},
      {"net.posts_deduped", "count"},
      {"net.ack_p50_us", "us"},
      {"net.ack_p99_us", "us"},
      {"wal.fsyncs", "count"},
      {"wal.records_per_fsync", "ratio"},
      {"wal.bytes_per_event", "B"},
      {"wal.append_ns", "ns"},
      {"wal.checkpoint_p50_ms", "ms"},
      {"wal.checkpoint_max_ms", "ms"},
      {"wal.replayed_events", "count"},
      {"wal.log_bytes_at_restart", "B"},
      {"wal.sync_p50_us", "us"},
      {"seq.published", "count"},
      {"bench.fire_p50_us", "us"},
      {"bench.fire_p99_us", "us"},
      {"bench.gen_late_p99_us", "us"},
      {"bench.trace_overhead_tput_pct", "%"},
      {"bench.trace_overhead_cpu_us", "us"},
      {"bench.trace_overhead_fire_p50_us", "us"},
  };
  return kSpecs;
}

void Report::Metric(const std::string& name, double value) {
  for (const auto* specs : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricSpec& spec : *specs) {
      if (name == spec.name) {
        metrics_.push_back(Entry{name, value, spec.unit});
        return;
      }
    }
  }
  Mismatch("unknown metric " + name);
}

void Report::ExpectAll(const std::vector<MetricSpec>& specs) {
  for (const MetricSpec& spec : specs) {
    bool found = false;
    for (const Entry& entry : metrics_) found = found || entry.name == spec.name;
    if (!found) Mismatch(std::string("metric not measured: ") + spec.name);
  }
}

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  // The first few are enough to diagnose; a broken run can produce
  // thousands.
  if (++messages_ <= 20) std::printf("MISMATCH: %s\n", what.c_str());
}

void Report::Expect(bool ok, const std::string& what) {
  if (!ok) Mismatch(what);
}

void Report::FailedOp(const std::string& what) {
  ++failed_;
  if (++messages_ <= 20) std::printf("FAILED: %s\n", what.c_str());
}

void Report::PrintJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit; JSON has no NaN or infinity.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "0");
    }
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Order statistics -------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

CpuPin::CpuPin(int index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  int skip = index % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    if (skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

// --- Process counters -------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

int64_t RssBytes() {
  long pages = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void TrimHeap() { malloc_trim(0); }

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

ode::Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive, ec);
  if (ec) {
    return ode::Status::Internal("copy " + from + " to " + to + ": " + ec.message());
  }
  return ode::Status::OK();
}

ode::Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return ode::Status::Internal("mkdir " + dir + ": " + ec.message());
  }
  return ode::Status::OK();
}

// --- Tracing ----------------------------------------------------------------

namespace {

struct ThreadSpans {
  uint8_t index = 0;
  std::vector<Span> spans;
  int32_t open = -1;  ///< Innermost span still open on this thread.
};

std::atomic<bool> g_tracing{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_registry;

ThreadSpans* ThisThread() {
  // Buffers are owned by the registry, so they outlive their threads
  // (shard workers are joined before the spans are collected).
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadSpans>());
    mine = g_registry.back().get();
    mine->index = static_cast<uint8_t>(g_registry.size() - 1);
    mine->spans.reserve(1 << 16);
  }
  return mine;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kGenPost: return "gen.post";
    case SpanName::kBody: return "ode.body";
    case SpanName::kAction: return "trigger.action";
    case SpanName::kDrain: return "runtime.drain";
    case SpanName::kCheckpoint: return "wal.checkpoint";
    case SpanName::kStart: return "runtime.start";
    case SpanName::kRefBegin: return "ref.begin";
    case SpanName::kRefCall: return "ref.call";
    case SpanName::kRefCommit: return "ref.commit";
    case SpanName::kEncode: return "net.encode";
    case SpanName::kDecode: return "net.decode";
    case SpanName::kLogAppend: return "wal.append";
    case SpanName::kLogSync: return "wal.sync";
    case SpanName::kCount: break;
  }
  return "?";
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

SpanScope::SpanScope(SpanName name, int64_t event) {
  if (!Tracing()) return;
  ThreadSpans* t = ThisThread();
  index_ = static_cast<int32_t>(t->spans.size());
  prev_open_ = t->open;
  Span span;
  span.start = NowNs();
  span.event = event;
  span.parent = t->open;
  span.name = name;
  span.thread = t->index;
  t->spans.push_back(span);
  t->open = index_;
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  ThreadSpans* t = ThisThread();
  t->spans[index_].end = NowNs();
  t->open = prev_open_;
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (auto& t : g_registry) {
    const int32_t base = static_cast<int32_t>(out.size());
    for (Span span : t->spans) {
      if (span.parent >= 0) span.parent += base;
      out.push_back(span);
    }
    t->spans.clear();
  }
  return out;
}

std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<LayerTime> out(static_cast<size_t>(SpanName::kCount));
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end - span.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = out[static_cast<size_t>(spans[i].name)];
    const int64_t ns = spans[i].end - spans[i].start;
    ++layer.count;
    layer.total_ms += ns / 1e6;
    layer.self_ms += (ns - child_ns[i]) / 1e6;
  }
  return out;
}

ode::Status WriteSpans(const std::string& path, uint8_t stage,
                       const std::vector<Span>& spans, bool truncate) {
  FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (f == nullptr) return ode::Status::Internal("cannot open " + path);
  std::vector<char> buf;
  buf.reserve(spans.size() * 32);
  for (const Span& span : spans) {
    char rec[32] = {};
    std::memcpy(rec + 0, &span.start, 8);
    std::memcpy(rec + 8, &span.end, 8);
    std::memcpy(rec + 16, &span.event, 8);
    std::memcpy(rec + 24, &span.parent, 4);
    rec[28] = static_cast<char>(span.name);
    rec[29] = static_cast<char>(span.thread);
    rec[30] = static_cast<char>(stage);
    buf.insert(buf.end(), rec, rec + sizeof(rec));
  }
  const bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) return ode::Status::Internal("cannot write " + path);
  return ode::Status::OK();
}

}  // namespace perfbench
