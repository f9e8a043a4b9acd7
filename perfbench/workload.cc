#include "workload.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

namespace perfbench {

PhaseSizes SizePhases(const RunOptions& opts, size_t saturation_eps) {
  PhaseSizes sizes;
  sizes.warmup = kObjects;
  sizes.saturation = saturation_eps * static_cast<size_t>(opts.seconds) / 2;
  sizes.open = static_cast<size_t>(opts.open_rate) *
               static_cast<size_t>(opts.seconds) / 2;
  return sizes;
}

ode::runtime::IngestOptions BaseIngestOptions() {
  ode::runtime::IngestOptions options;
  options.num_shards = kShards;
  options.max_batch = kMaxBatch;
  options.backpressure = ode::runtime::BackpressurePolicy::kBlock;
  return options;
}

namespace {
std::atomic<OpenLoop*> g_book{nullptr};
}  // namespace

void PublishOpenLoop(OpenLoop* book) {
  g_book.store(book, std::memory_order_release);
}

void RecordFire(int64_t t) {
  OpenLoop* book = g_book.load(std::memory_order_acquire);
  if (book == nullptr) return;
  const int64_t offset = t - book->start_ns;
  if (offset < 0 || offset % book->period_ns != 0) return;
  const size_t i = static_cast<size_t>(offset / book->period_ns);
  if (i < book->fire_ns.size()) book->fire_ns[i] = NowNs();
}

void WaitUntil(int64_t due_ns) {
  while (true) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    // The open-loop period (100 µs at 10k ev/s) is spun: a sleeping
    // generator woke milliseconds late on the host this was sized on.
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    }
  }
}

int64_t ArgT(const ode::MethodContext& ctx) {
  const ode::Result<int64_t> t = ctx.args().back().value.AsInt();
  return t.ok() ? *t : 0;
}

int64_t EventT(const ode::PostedEvent* event) {
  if (event == nullptr) return 0;
  const ode::Value* t = event->FindArg("t");
  if (t == nullptr) return 0;
  const ode::Result<int64_t> v = t->AsInt();
  return v.ok() ? *v : 0;
}

Tail Summarize(const Samples& samples) {
  constexpr int64_t kWindowNs = 200000000;
  Tail tail;
  std::vector<double> all;
  std::map<int64_t, std::vector<double>> windows;
  for (const auto& [offset, us] : samples) {
    all.push_back(us);
    windows[offset / kWindowNs].push_back(us);
  }
  std::vector<double> p99s;
  for (auto& [index, v] : windows) p99s.push_back(Percentile(std::move(v), 99));
  tail.n = all.size();
  tail.windows = p99s.size();
  tail.p99 = Median(p99s);
  tail.p50 = Percentile(all, 50);
  tail.whole_p99 = Percentile(all, 99);
  tail.whole_p999 = Percentile(std::move(all), 99.9);
  return tail;
}

void PrintTail(const char* name, const Tail& tail) {
  std::printf(
      "latency %s: n=%zu p50_us=%.1f p99_us=%.1f (median of %zu windows) "
      "whole_phase_p99_us=%.1f whole_phase_p999_us=%.1f\n",
      name, tail.n, tail.p50, tail.p99, tail.windows, tail.whole_p99,
      tail.whole_p999);
}

Tail FireLatency(const OpenLoop& book, std::vector<int64_t> dead_ts) {
  std::sort(dead_ts.begin(), dead_ts.end());
  Samples samples;
  samples.reserve(book.fire_ns.size());
  for (size_t i = 0; i < book.fire_ns.size(); ++i) {
    if (book.fire_ns[i] == 0) continue;
    const int64_t due = book.Due(i);
    if (std::binary_search(dead_ts.begin(), dead_ts.end(), due)) continue;
    samples.emplace_back(due - book.start_ns, (book.fire_ns[i] - due) / 1000.0);
  }
  return Summarize(samples);
}

void SummarizeSegments(const std::vector<Segment>& segments, EndToEnd* e2e) {
  std::vector<double> eps;
  std::vector<double> cpu;
  for (const Segment& s : segments) {
    eps.push_back(s.events / ((s.end_ns - s.start_ns) / 1e9));
    cpu.push_back(s.cpu_s * 1e6 / s.events);
  }
  e2e->throughput_eps = Median(eps);
  e2e->cpu_us_per_event = Median(cpu);
  std::printf("segments (in order): eps");
  for (double v : eps) std::printf(" %.0f", v);
  std::printf(" cpu_us");
  for (double v : cpu) std::printf(" %.2f", v);
  std::printf("\n");
}

void SummarizeRestarts(const std::vector<double>& seconds, EndToEnd* e2e) {
  e2e->recovery_s = Mean(seconds);
  std::printf("restarts (in order): s");
  for (double v : seconds) std::printf(" %.3f", v);
  std::printf(" (mean %.3f, median %.3f)\n", e2e->recovery_s, Median(seconds));
}

ode::runtime::ShardMetricsSnapshot ShardDelta(
    const ode::runtime::ShardMetricsSnapshot& after,
    const ode::runtime::ShardMetricsSnapshot& before) {
  ode::runtime::ShardMetricsSnapshot d = after;
  d.enqueued -= before.enqueued;
  d.dropped -= before.dropped;
  d.rejected -= before.rejected;
  d.processed -= before.processed;
  d.fired -= before.fired;
  d.aborted -= before.aborted;
  d.retried -= before.retried;
  d.dead_lettered -= before.dead_lettered;
  d.epilogue_failures -= before.epilogue_failures;
  d.batches -= before.batches;
  for (size_t i = 0; i < d.batch_size_hist.size(); ++i) {
    d.batch_size_hist[i] -= before.batch_size_hist[i];
  }
  for (size_t i = 0; i < d.latency_us_hist.size(); ++i) {
    d.latency_us_hist[i] -= before.latency_us_hist[i];
  }
  return d;
}

RunSpanStats AnalyzeRunSpans(const std::vector<Span>& spans, int64_t sat_start,
                             int64_t sat_end, const OpenLoop& book) {
  RunSpanStats out;
  const int64_t open_end = book.Due(book.fire_ns.size());
  std::map<int64_t, int64_t> first_body;  // open-loop t -> first entry
  // Per thread: the last body span seen, for body exit -> action entry.
  std::map<uint8_t, const Span*> last_body;
  std::map<uint8_t, bool> detect_taken;
  for (const Span& span : spans) {
    switch (span.name) {
      case SpanName::kGenPost:
        if (span.start >= sat_start && span.end <= sat_end) {
          out.post_busy_s += (span.end - span.start) / 1e9;
          out.post_us.push_back((span.end - span.start) / 1000.0);
        }
        break;
      case SpanName::kBody: {
        ++out.body_runs;
        last_body[span.thread] = &span;
        detect_taken[span.thread] = false;
        if (span.event >= book.start_ns && span.event < open_end) {
          auto [it, inserted] = first_body.emplace(span.event, span.start);
          if (!inserted && span.start < it->second) it->second = span.start;
        }
        break;
      }
      case SpanName::kAction: {
        out.action_us.push_back((span.end - span.start) / 1000.0);
        auto body = last_body.find(span.thread);
        if (body != last_body.end() && body->second->event == span.event &&
            !detect_taken[span.thread]) {
          out.detect_us.push_back((span.start - body->second->end) / 1000.0);
          detect_taken[span.thread] = true;
        }
        break;
      }
      default:
        break;
    }
  }
  out.queue_wait_us.reserve(first_body.size());
  for (const auto& [t, entry] : first_body) {
    out.queue_wait_us.push_back((entry - t) / 1000.0);
  }
  return out;
}

void AddRuntimeCounters(const ode::runtime::RuntimeMetricsSnapshot& warm,
                        const ode::runtime::RuntimeMetricsSnapshot& sat,
                        const ode::runtime::RuntimeMetricsSnapshot& end,
                        Report* report) {
  // Batching is a saturation-phase property; commit latency matters for
  // the open-loop phase; failure counters cover the whole run.
  const ode::runtime::ShardMetricsSnapshot s = ShardDelta(sat.total, warm.total);
  const ode::runtime::ShardMetricsSnapshot o = ShardDelta(end.total, sat.total);
  report->Metric("runtime.mean_batch", s.MeanBatch());
  report->Metric("runtime.batches", static_cast<double>(s.batches));
  report->Metric("runtime.queue_high_water",
                 static_cast<double>(end.total.queue_high_water));
  report->Metric("runtime.commit_p50_us",
                 static_cast<double>(o.LatencyPercentileUs(50)));
  report->Metric("runtime.commit_p99_us",
                 static_cast<double>(o.LatencyPercentileUs(99)));
  report->Metric("runtime.aborted", static_cast<double>(end.total.aborted));
  report->Metric("runtime.retried", static_cast<double>(end.total.retried));
  report->Metric("runtime.dead_lettered",
                 static_cast<double>(end.total.dead_lettered));
  report->Metric("seq.published",
                 static_cast<double>(end.sequencer.published));
}

void PrintSelfTimes(const char* stage, const std::vector<Span>& spans) {
  const std::vector<LayerTime> layers = SelfTimes(spans);
  for (size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].count == 0) continue;
    std::printf("self-time %-8s %-16s count=%-9llu total_ms=%.3f self_ms=%.3f\n",
                stage, SpanNameString(static_cast<SpanName>(i)),
                static_cast<unsigned long long>(layers[i].count),
                layers[i].total_ms, layers[i].self_ms);
  }
}

void PrintRunHeader(const RunOptions& opts, const PhaseSizes& sizes,
                    const std::string& params) {
  std::printf(
      "provenance: build_type=%s compiler=\"%s\" nproc=%ld seed=%llu "
      "workload=%s trace=%d\n",
      ODEBENCH_BUILD_TYPE, ODEBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
      static_cast<unsigned long long>(opts.seed), opts.workload.c_str(),
      opts.trace ? 1 : 0);
  std::printf(
      "params: objects=%zu shards=%zu max_batch=%zu backpressure=block "
      "open_rate=%lld/s seconds=%d warmup=%zu saturation=%zu open=%zu %s\n",
      kObjects, kShards, kMaxBatch, static_cast<long long>(opts.open_rate),
      opts.seconds, sizes.warmup, sizes.saturation, sizes.open,
      params.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
