#ifndef ODE_SEQ_SEQ_QUEUE_H_
#define ODE_SEQ_SEQ_QUEUE_H_

#include <condition_variable>
#include <mutex>
#include <vector>

#include "seq/seq_event.h"

namespace ode {
namespace seq {

/// The sequencer's bounded multi-producer single-consumer queue: shard
/// workers (and the external lane) push SeqEvents, the sequencer thread
/// drains them. Same ring-under-one-mutex shape as runtime::EventQueue, but
/// the consumer takes everything queued at once. It waits on nothing else,
/// so a publisher blocked on a full queue is always freed.
class SeqQueue {
 public:
  enum class PushResult { kOk, kFull, kClosed };

  explicit SeqQueue(size_t capacity);

  SeqQueue(const SeqQueue&) = delete;
  SeqQueue& operator=(const SeqQueue&) = delete;

  /// Blocks while the queue is full. kClosed if Close() ran first.
  PushResult Push(SeqEvent event);

  /// Never blocks: kFull when at capacity.
  PushResult TryPush(SeqEvent event);

  /// Blocks until at least one event is available or the queue is closed
  /// and empty; appends everything queued to `*out` in FIFO order and
  /// returns the number appended (0 only at shutdown).
  size_t WaitDrainInto(std::vector<SeqEvent>* out);

  /// No further pushes succeed; the consumer drains what remains.
  void Close();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t high_water() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;   ///< Producers wait for space.
  std::condition_variable not_empty_;  ///< The consumer waits for events.
  std::vector<SeqEvent> ring_;         ///< Fixed storage, size == capacity_.
  size_t head_ = 0;
  size_t count_ = 0;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace seq
}  // namespace ode

#endif  // ODE_SEQ_SEQ_QUEUE_H_
