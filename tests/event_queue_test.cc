// Bounded MPSC queue unit tests: FIFO order, capacity limits, the three
// push flavours (blocking, try, deadline), close/drain semantics, the
// high-water mark, and a multi-producer interleaving check.
#include "runtime/event_queue.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ode {
namespace runtime {
namespace {

IngestEvent Ev(uint64_t oid, int seq) {
  IngestEvent e;
  e.oid = Oid{oid};
  e.method = std::string("m");
  e.args = {Value(seq)};
  return e;
}

int SeqOf(const IngestEvent& e) {
  return static_cast<int>(e.args.at(0).AsInt().value());
}

TEST(EventQueueTest, ZeroCapacityClampsToOne) {
  EventQueue q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(q.TryPush(Ev(1, 0)), EventQueue::PushResult::kOk);
  EXPECT_EQ(q.TryPush(Ev(1, 1)), EventQueue::PushResult::kFull);
}

TEST(EventQueueTest, FifoOrder) {
  EventQueue q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.TryPush(Ev(7, i)), EventQueue::PushResult::kOk);
  }
  std::vector<IngestEvent> out;
  EXPECT_EQ(q.PopBatch(&out, 16), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(SeqOf(out[i]), i);
}

TEST(EventQueueTest, PopBatchHonorsMaxAndAppends) {
  EventQueue q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.TryPush(Ev(7, i)), EventQueue::PushResult::kOk);
  }
  std::vector<IngestEvent> out;
  EXPECT_EQ(q.PopBatch(&out, 2), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.PopBatch(&out, 16), 3u);
  ASSERT_EQ(out.size(), 5u);  // Appended, not replaced.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(SeqOf(out[i]), i);
}

TEST(EventQueueTest, TryPushReportsFull) {
  EventQueue q(2);
  EXPECT_EQ(q.TryPush(Ev(1, 0)), EventQueue::PushResult::kOk);
  EXPECT_EQ(q.TryPush(Ev(1, 1)), EventQueue::PushResult::kOk);
  EXPECT_EQ(q.TryPush(Ev(1, 2)), EventQueue::PushResult::kFull);
}

TEST(EventQueueTest, PushForTimesOutThenSucceedsAfterPop) {
  EventQueue q(1);
  ASSERT_EQ(q.TryPush(Ev(1, 0)), EventQueue::PushResult::kOk);
  EXPECT_EQ(q.PushFor(Ev(1, 1), std::chrono::milliseconds(5)),
            EventQueue::PushResult::kFull);
  std::vector<IngestEvent> out;
  ASSERT_EQ(q.PopBatch(&out, 1), 1u);
  EXPECT_EQ(q.PushFor(Ev(1, 1), std::chrono::milliseconds(5)),
            EventQueue::PushResult::kOk);
}

TEST(EventQueueTest, BlockingPushWaitsForSpace) {
  EventQueue q(1);
  ASSERT_EQ(q.TryPush(Ev(1, 0)), EventQueue::PushResult::kOk);
  std::thread producer([&] {
    EXPECT_EQ(q.Push(Ev(1, 1)), EventQueue::PushResult::kOk);
  });
  // Give the producer a moment to block on the full queue, then make room.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::vector<IngestEvent> out;
  ASSERT_EQ(q.PopBatch(&out, 1), 1u);
  producer.join();
  ASSERT_EQ(q.PopBatch(&out, 1), 1u);
  EXPECT_EQ(SeqOf(out.back()), 1);
}

TEST(EventQueueTest, CloseRejectsPushesButDrainsRemainder) {
  EventQueue q(4);
  ASSERT_EQ(q.TryPush(Ev(1, 0)), EventQueue::PushResult::kOk);
  ASSERT_EQ(q.TryPush(Ev(1, 1)), EventQueue::PushResult::kOk);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.TryPush(Ev(1, 2)), EventQueue::PushResult::kClosed);
  EXPECT_EQ(q.Push(Ev(1, 2)), EventQueue::PushResult::kClosed);
  EXPECT_EQ(q.PushFor(Ev(1, 2), std::chrono::milliseconds(1)),
            EventQueue::PushResult::kClosed);
  std::vector<IngestEvent> out;
  EXPECT_EQ(q.PopBatch(&out, 16), 2u);   // Remainder still drains...
  EXPECT_EQ(q.PopBatch(&out, 16), 0u);   // ...then 0 signals shutdown.
}

TEST(EventQueueTest, CloseWakesBlockedConsumer) {
  EventQueue q(4);
  std::thread consumer([&] {
    std::vector<IngestEvent> out;
    EXPECT_EQ(q.PopBatch(&out, 16), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(EventQueueTest, HighWaterTracksMaxDepth) {
  EventQueue q(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.TryPush(Ev(1, i)), EventQueue::PushResult::kOk);
  }
  std::vector<IngestEvent> out;
  ASSERT_EQ(q.PopBatch(&out, 16), 3u);
  ASSERT_EQ(q.TryPush(Ev(1, 3)), EventQueue::PushResult::kOk);
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, MultiProducerPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  EventQueue q(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Producer id rides in the oid, sequence in the args.
        ASSERT_EQ(q.Push(Ev(static_cast<uint64_t>(p), i)),
                  EventQueue::PushResult::kOk);
      }
    });
  }
  std::vector<IngestEvent> all;
  while (all.size() < kProducers * kPerProducer) {
    std::vector<IngestEvent> batch;
    size_t n = q.PopBatch(&batch, 32);
    ASSERT_GT(n, 0u);
    for (auto& e : batch) all.push_back(std::move(e));
  }
  for (auto& t : producers) t.join();
  // The global interleaving is arbitrary, but each producer's events must
  // appear in the order that producer pushed them.
  std::vector<int> next(kProducers, 0);
  for (const IngestEvent& e : all) {
    int p = static_cast<int>(e.oid.id);
    EXPECT_EQ(SeqOf(e), next[p]);
    ++next[p];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

}  // namespace
}  // namespace runtime
}  // namespace ode
