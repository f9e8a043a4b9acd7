#include "seq/seq_queue.h"

#include <utility>

namespace ode {
namespace seq {

SeqQueue::SeqQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

SeqQueue::PushResult SeqQueue::Push(SeqEvent event) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] { return count_ < capacity_ || closed_; });
  if (closed_) return PushResult::kClosed;
  ring_[(head_ + count_) % capacity_] = std::move(event);
  ++count_;
  if (count_ > high_water_) high_water_ = count_;
  not_empty_.notify_one();
  return PushResult::kOk;
}

SeqQueue::PushResult SeqQueue::TryPush(SeqEvent event) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return PushResult::kClosed;
  if (count_ >= capacity_) return PushResult::kFull;
  ring_[(head_ + count_) % capacity_] = std::move(event);
  ++count_;
  if (count_ > high_water_) high_water_ = count_;
  not_empty_.notify_one();
  return PushResult::kOk;
}

size_t SeqQueue::WaitDrainInto(std::vector<SeqEvent>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
  size_t n = count_;
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(ring_[(head_ + i) % capacity_]));
  }
  head_ = (head_ + n) % capacity_;
  count_ = 0;
  if (n > 0) not_full_.notify_all();
  return n;
}

void SeqQueue::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

size_t SeqQueue::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return count_;
}

size_t SeqQueue::high_water() const {
  std::unique_lock<std::mutex> lock(mu_);
  return high_water_;
}

}  // namespace seq
}  // namespace ode
