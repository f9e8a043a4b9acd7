#include "runtime/metrics.h"

#include "common/strutil.h"

namespace ode {
namespace runtime {

namespace {

/// Bucket index for a power-of-two histogram: floor(log2(v)), clamped.
size_t BucketOf(uint64_t v, size_t buckets) {
  size_t b = 0;
  while (v > 1 && b + 1 < buckets) {
    v >>= 1;
    ++b;
  }
  return b;
}

void AppendHist(std::string* out, const char* label, const uint64_t* hist,
                size_t buckets) {
  *out += label;
  for (size_t i = 0; i < buckets; ++i) {
    if (hist[i] == 0) continue;
    *out += StrFormat(" [<%llu]=%llu",
                      static_cast<unsigned long long>(uint64_t{1} << (i + 1)),
                      static_cast<unsigned long long>(hist[i]));
  }
  *out += "\n";
}

}  // namespace

double ShardMetricsSnapshot::MeanBatch() const {
  return batches == 0 ? 0.0
                      : static_cast<double>(processed) /
                            static_cast<double>(batches);
}

uint64_t ShardMetricsSnapshot::LatencyPercentileUs(double p) const {
  uint64_t n = 0;
  for (uint64_t c : latency_us_hist) n += c;
  if (n == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < latency_us_hist.size(); ++i) {
    seen += latency_us_hist[i];
    if (seen > rank) return uint64_t{1} << (i + 1);
  }
  return uint64_t{1} << latency_us_hist.size();
}

void ShardMetricsSnapshot::AddInto(ShardMetricsSnapshot* total) const {
  total->enqueued += enqueued;
  total->dropped += dropped;
  total->rejected += rejected;
  total->processed += processed;
  total->fired += fired;
  total->aborted += aborted;
  total->retried += retried;
  total->dead_lettered += dead_lettered;
  total->epilogue_failures += epilogue_failures;
  total->batches += batches;
  if (queue_high_water > total->queue_high_water) {
    total->queue_high_water = queue_high_water;
  }
  for (size_t i = 0; i < batch_size_hist.size(); ++i) {
    total->batch_size_hist[i] += batch_size_hist[i];
  }
  for (size_t i = 0; i < latency_us_hist.size(); ++i) {
    total->latency_us_hist[i] += latency_us_hist[i];
  }
}

void ShardMetrics::RecordBatch(uint64_t n) {
  Bump(&batches_);
  batch_size_hist_[BucketOf(n, kBatchHistBuckets)].fetch_add(
      1, std::memory_order_relaxed);
}

void ShardMetrics::RecordLatencyUs(uint64_t us) {
  latency_us_hist_[BucketOf(us, kLatencyHistBuckets)].fetch_add(
      1, std::memory_order_relaxed);
}

void ShardMetrics::UpdateQueueHighWater(uint64_t depth) {
  uint64_t cur = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > cur &&
         !queue_high_water_.compare_exchange_weak(
             cur, depth, std::memory_order_relaxed)) {
  }
}

ShardMetricsSnapshot ShardMetrics::Snapshot() const {
  ShardMetricsSnapshot s;
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.processed = processed_.load(std::memory_order_relaxed);
  s.fired = fired_.load(std::memory_order_relaxed);
  s.aborted = aborted_.load(std::memory_order_relaxed);
  s.retried = retried_.load(std::memory_order_relaxed);
  s.dead_lettered = dead_lettered_.load(std::memory_order_relaxed);
  s.epilogue_failures = epilogue_failures_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBatchHistBuckets; ++i) {
    s.batch_size_hist[i] = batch_size_hist_[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kLatencyHistBuckets; ++i) {
    s.latency_us_hist[i] =
        latency_us_hist_[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::string RuntimeMetricsSnapshot::ToString() const {
  std::string out = StrFormat(
      "ingest runtime: %zu shard(s)\n"
      "  enqueued=%llu processed=%llu fired=%llu\n"
      "  dropped=%llu rejected=%llu aborted=%llu retried=%llu "
      "dead_lettered=%llu epilogue_failures=%llu\n"
      "  batches=%llu mean_batch=%.2f queue_high_water=%llu "
      "p50_latency_us<=%llu p99_latency_us<=%llu\n",
      shards.size(), static_cast<unsigned long long>(total.enqueued),
      static_cast<unsigned long long>(total.processed),
      static_cast<unsigned long long>(total.fired),
      static_cast<unsigned long long>(total.dropped),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.aborted),
      static_cast<unsigned long long>(total.retried),
      static_cast<unsigned long long>(total.dead_lettered),
      static_cast<unsigned long long>(total.epilogue_failures),
      static_cast<unsigned long long>(total.batches), total.MeanBatch(),
      static_cast<unsigned long long>(total.queue_high_water),
      static_cast<unsigned long long>(total.LatencyPercentileUs(50)),
      static_cast<unsigned long long>(total.LatencyPercentileUs(99)));
  AppendHist(&out, "  batch_size_hist:", total.batch_size_hist.data(),
             total.batch_size_hist.size());
  AppendHist(&out, "  latency_us_hist:", total.latency_us_hist.data(),
             total.latency_us_hist.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardMetricsSnapshot& s = shards[i];
    out += StrFormat(
        "  shard %zu: enqueued=%llu processed=%llu fired=%llu batches=%llu "
        "high_water=%llu\n",
        i, static_cast<unsigned long long>(s.enqueued),
        static_cast<unsigned long long>(s.processed),
        static_cast<unsigned long long>(s.fired),
        static_cast<unsigned long long>(s.batches),
        static_cast<unsigned long long>(s.queue_high_water));
  }
  if (wal.enabled) {
    out += StrFormat(
        "  wal: appends=%llu fsyncs=%llu bytes=%llu checkpoints=%llu "
        "replayed_on_recovery=%llu\n",
        static_cast<unsigned long long>(wal.appends),
        static_cast<unsigned long long>(wal.fsyncs),
        static_cast<unsigned long long>(wal.bytes_written),
        static_cast<unsigned long long>(wal.checkpoints),
        static_cast<unsigned long long>(wal.replayed_on_recovery));
    if (wal.degraded) out += "  wal: DEGRADED (in-memory fallback)\n";
  }
  if (sequencer.enabled) {
    out += StrFormat(
        "  sequencer: published=%llu sequenced=%llu firings=%llu "
        "dropped=%llu apply_errors=%llu queue_depth=%llu "
        "high_water=%llu merge_lag=%llu replay_deduped=%llu\n",
        static_cast<unsigned long long>(sequencer.published),
        static_cast<unsigned long long>(sequencer.sequenced),
        static_cast<unsigned long long>(sequencer.firings),
        static_cast<unsigned long long>(sequencer.dropped),
        static_cast<unsigned long long>(sequencer.apply_errors),
        static_cast<unsigned long long>(sequencer.queue_depth),
        static_cast<unsigned long long>(sequencer.queue_high_water),
        static_cast<unsigned long long>(sequencer.merge_lag),
        static_cast<unsigned long long>(sequencer.replay_deduped));
  }
  for (const ProducerMetricsSnapshot& p : producers) {
    out += StrFormat(
        "  producer %s: posted=%llu accepted=%llu rejected=%llu failed=%llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.posted),
        static_cast<unsigned long long>(p.accepted),
        static_cast<unsigned long long>(p.rejected),
        static_cast<unsigned long long>(p.failed));
  }
  return out;
}

}  // namespace runtime
}  // namespace ode
