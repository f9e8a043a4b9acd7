#include "seq/sequencer.h"

#include <algorithm>
#include <utility>

#include "common/strutil.h"
#include "ode/database.h"
#include "seq/order_log.h"

namespace ode {
namespace seq {

namespace {

thread_local int32_t t_publisher_lane = -1;
thread_local Sequencer::PendingPublications* t_pending = nullptr;

bool SeqOrder(const SeqEvent& a, const SeqEvent& b) {
  if (a.lane != b.lane) return a.lane < b.lane;
  return a.lane_seq < b.lane_seq;
}

}  // namespace

void SetThreadPublisherLane(int32_t lane) { t_publisher_lane = lane; }
int32_t ThreadPublisherLane() { return t_publisher_lane; }

Sequencer::Sequencer(Database* db, Options options)
    : db_(db),
      options_([&] {
        if (options.num_lanes == 0) options.num_lanes = 1;
        return options;
      }()),
      queue_(options_.queue_capacity),
      lane_next_(options_.num_lanes),
      watermark_(options_.num_lanes) {
  for (auto& n : lane_next_) n.store(0, std::memory_order_relaxed);
  for (auto& w : watermark_) w.store(0, std::memory_order_relaxed);
}

Sequencer::~Sequencer() { Stop(); }

Status Sequencer::Start() {
  if (!options_.sink) {
    return Status::InvalidArgument("sequencer needs a firing sink");
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("sequencer already started");
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Sequencer::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();
  if (thread_.joinable()) thread_.join();
  if (options_.order_log != nullptr && options_.order_log->open()) {
    (void)options_.order_log->Sync();
  }
}

Sequencer::PublishScope::PublishScope(Sequencer* s) : s_(s) {
  if (s_ != nullptr) s_->EnterPublish();
}

Sequencer::PublishScope::~PublishScope() {
  if (s_ != nullptr) s_->ExitPublish();
}

void Sequencer::EnterPublish() {
  std::unique_lock<std::mutex> lock(gate_mu_);
  gate_cv_.wait(lock, [&] { return !gate_closed_; });
  ++publishing_;
}

void Sequencer::ExitPublish() {
  std::lock_guard<std::mutex> lock(gate_mu_);
  if (--publishing_ == 0) gate_cv_.notify_all();
}

Sequencer::PendingPublications::PendingPublications(Sequencer* sequencer)
    : sequencer_(sequencer) {
  if (sequencer_ != nullptr) t_pending = this;
}

Sequencer::PendingPublications::~PendingPublications() {
  if (t_pending == this) t_pending = nullptr;
}

void Sequencer::PendingPublications::Commit() {
  if (t_pending == this) t_pending = nullptr;
  if (held_.empty()) return;
  PublishScope scope(sequencer_);
  for (SeqEvent& event : held_) sequencer_->Publish(std::move(event));
  held_.clear();
}

bool Sequencer::Publish(SeqEvent event) {
  if (t_pending != nullptr && t_pending->sequencer_ == this) {
    t_pending->held_.push_back(std::move(event));
    return true;
  }
  uint32_t lane = external_lane();
  int32_t registered = t_publisher_lane;
  if (registered >= 0 &&
      static_cast<uint32_t>(registered) < external_lane()) {
    lane = static_cast<uint32_t>(registered);
  }
  event.lane = lane;
  if (lane == external_lane()) {
    // The external lane is shared by every unregistered thread: assigning
    // the sequence number and enqueuing must be one atomic step or two
    // externals could enter the queue in counter-inverted order.
    std::lock_guard<std::mutex> lock(external_mu_);
    event.lane_seq =
        lane_next_[lane].fetch_add(1, std::memory_order_relaxed) + 1;
    return Enqueue(std::move(event));
  }
  // A shard lane has exactly one producer thread: no serialization needed.
  event.lane_seq =
      lane_next_[lane].fetch_add(1, std::memory_order_relaxed) + 1;
  return Enqueue(std::move(event));
}

bool Sequencer::Enqueue(SeqEvent event) {
  SeqQueue::PushResult r = options_.overflow == OverflowPolicy::kDropNewest
                               ? queue_.TryPush(std::move(event))
                               : queue_.Push(std::move(event));
  if (r == SeqQueue::PushResult::kOk) {
    published_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool Sequencer::Drained() const {
  return consumed_.load(std::memory_order_acquire) ==
         published_.load(std::memory_order_acquire);
}

void Sequencer::NoteConsumed() {
  consumed_.fetch_add(1, std::memory_order_release);
  if (Drained()) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drained_cv_.notify_all();
  }
}

void Sequencer::WaitDrained() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [&] { return Drained(); });
}

Status Sequencer::ExecuteQuiesced(const std::function<Status()>& fn) {
  {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [&] { return !gate_closed_; });
    gate_closed_ = true;
    // A publisher past the gate may be blocked in a full queue; the merge
    // thread, which never waits on anything but the queue, frees it.
    gate_cv_.wait(lock, [&] { return publishing_ == 0; });
  }
  // Also wait for the merge thread to consume every accepted publish, so
  // it is not touching slot memory while `fn` mutates it.
  if (started_.load(std::memory_order_acquire) &&
      !stopped_.load(std::memory_order_acquire)) {
    WaitDrained();
  }
  Status s = fn();
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_closed_ = false;
    gate_cv_.notify_all();
  }
  return s;
}

void Sequencer::Apply(const SeqEvent& event) {
  const int fired = db_->ApplySequencedEvent(event, options_.sink);
  // Counted after the sink took them: a reader that sees the count finds
  // the firings in the sink (IngestRuntime's drain barrier relies on it).
  if (fired > 0) {
    firings_.fetch_add(static_cast<uint64_t>(fired),
                       std::memory_order_release);
  }
  sequenced_.fetch_add(1, std::memory_order_relaxed);
  if (event.lane < watermark_.size()) {
    std::atomic<uint64_t>& wm = watermark_[event.lane];
    if (event.lane_seq > wm.load(std::memory_order_relaxed)) {
      wm.store(event.lane_seq, std::memory_order_relaxed);
    }
  }
}

void Sequencer::ApplyOne(const SeqEvent& event) {
  if (replay_dedup_.load(std::memory_order_relaxed) &&
      event.lane < watermark_.size() &&
      event.lane_seq <=
          watermark_[event.lane].load(std::memory_order_relaxed)) {
    replay_deduped_.fetch_add(1, std::memory_order_relaxed);
    NoteConsumed();
    return;
  }
  Apply(event);

  // Write-behind order log: logged ⊆ applied. An event the codec cannot
  // hold is counted and skipped (recovery re-applies its lane only up to
  // the hole; see ApplyRecovered); a sticky writer failure stops logging
  // (recovery exactness is lost, not correctness) and escalates once
  // through the runtime's wal-degrade hook.
  if (options_.order_log != nullptr &&
      !log_failed_.load(std::memory_order_relaxed)) {
    log_payload_.clear();
    if (!EncodeOrderRecord(&log_payload_, event).ok()) {
      apply_errors_.fetch_add(1, std::memory_order_relaxed);
    } else if (Status s = options_.order_log->AppendPayload(log_payload_);
               !s.ok()) {
      log_failed_.store(true, std::memory_order_relaxed);
      if (options_.on_log_failure) options_.on_log_failure(s);
    }
  }
  NoteConsumed();
}

void Sequencer::Run() {
  std::vector<SeqEvent> batch;
  // WaitDrainInto returns 0 only once the queue is closed and empty.
  while (queue_.WaitDrainInto(&batch) > 0) {
    // Deterministic batch merge: everything drained together is applied in
    // ascending (lane, lane_seq) — the tie-break of the ordering contract.
    // Per-lane FIFO is preserved because a lane's events enter the queue
    // in lane_seq order.
    std::stable_sort(batch.begin(), batch.end(), SeqOrder);
    for (size_t i = 0; i < batch.size(); ++i) {
      // Published before apply: ApplyOne of the final event wakes drain
      // waiters, who may sample Metrics() immediately — the backlog must
      // already exclude the event being applied.
      backlog_.store(batch.size() - i - 1, std::memory_order_relaxed);
      ApplyOne(batch[i]);
    }
    batch.clear();
  }
  // Wake any waiter.
  std::lock_guard<std::mutex> lock(drain_mu_);
  drained_cv_.notify_all();
}

void Sequencer::RestoreLaneCounters(
    const std::vector<uint64_t>& last_assigned) {
  for (size_t i = 0; i < last_assigned.size() && i < lane_next_.size(); ++i) {
    lane_next_[i].store(last_assigned[i], std::memory_order_relaxed);
    // Everything at or below the checkpoint counter was applied before the
    // checkpoint: the watermark floor for replay dedup.
    if (last_assigned[i] > watermark_[i].load(std::memory_order_relaxed)) {
      watermark_[i].store(last_assigned[i], std::memory_order_relaxed);
    }
  }
}

Status Sequencer::ApplyRecovered(const SeqEvent& event) {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "ApplyRecovered requires a not-yet-started sequencer");
  }
  if (!options_.sink) {
    return Status::InvalidArgument("sequencer needs a firing sink");
  }
  if (event.lane < watermark_.size()) {
    const uint64_t wm = watermark_[event.lane].load(std::memory_order_relaxed);
    // A crash between checkpoint publication and order-log truncation
    // leaves records the checkpoint's snapshot already covers; the
    // restored watermark floor identifies and skips them.
    if (event.lane_seq <= wm) {
      replay_deduped_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    // The lane applied wm + 1 but never logged it (an event the
    // order-record codec could not hold). Applying past the hole would
    // raise the watermark over it and make shard replay drop that event as
    // a duplicate; refused, the lane's remaining events are re-derived by
    // shard replay instead.
    if (event.lane_seq != wm + 1) {
      return Status::OutOfRange(StrFormat(
          "lane %u: order log has no lane_seq %llu (next record is %llu)",
          event.lane, static_cast<unsigned long long>(wm + 1),
          static_cast<unsigned long long>(event.lane_seq)));
    }
  }
  Apply(event);
  published_.fetch_add(1, std::memory_order_relaxed);
  consumed_.fetch_add(1, std::memory_order_relaxed);
  // Deliberately NOT re-appended to the order log: the record is already
  // in it (recovery replays the log, it does not rewrite it).
  return Status::OK();
}

void Sequencer::BeginReplayDedup() {
  replay_dedup_.store(true, std::memory_order_relaxed);
}

void Sequencer::FinishReplay() {
  replay_dedup_.store(false, std::memory_order_relaxed);
}

std::vector<uint64_t> Sequencer::LaneCounters() const {
  std::vector<uint64_t> out(lane_next_.size());
  for (size_t i = 0; i < lane_next_.size(); ++i) {
    out[i] = lane_next_[i].load(std::memory_order_relaxed);
  }
  return out;
}

SequencerMetricsSnapshot Sequencer::Metrics() const {
  SequencerMetricsSnapshot snap;
  snap.enabled = true;
  snap.published = published_.load(std::memory_order_relaxed);
  snap.sequenced = sequenced_.load(std::memory_order_relaxed);
  snap.firings = firings();
  snap.dropped = dropped_.load(std::memory_order_relaxed);
  snap.apply_errors = apply_errors_.load(std::memory_order_relaxed);
  snap.queue_depth =
      queue_.size() + backlog_.load(std::memory_order_relaxed);
  snap.queue_high_water = queue_.high_water();
  uint64_t consumed = consumed_.load(std::memory_order_relaxed);
  snap.merge_lag = snap.published > consumed ? snap.published - consumed : 0;
  snap.replay_deduped = replay_deduped_.load(std::memory_order_relaxed);
  snap.lane_watermark.resize(watermark_.size());
  for (size_t i = 0; i < watermark_.size(); ++i) {
    snap.lane_watermark[i] = watermark_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

}  // namespace seq
}  // namespace ode
