// Sequencer unit tests (src/seq/, docs/SEQUENCER.md): class-scope
// evaluation as its own pipeline stage. Covers the ordering/watermark
// contract, the drain barrier, quiesced (de)activation under load,
// bounded-queue backpressure, the durable order log (write-behind +
// recovery parity + replay dedup), the metrics surface, and that the
// merge thread only decides firings (the test thread runs them, as a
// shard would).
#include "seq/sequencer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ode/database.h"
#include "seq/order_log.h"
#include "test_util.h"

namespace ode {
namespace {

Status CountAction(const ActionContext& ctx) {
  Result<Value> t = ctx.db->PeekAttr(ctx.self, "touches");
  if (!t.ok()) return t.status();
  Result<Value> next = t->Add(Value(1));
  if (!next.ok()) return next.status();
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", *next);
}

/// A counter class with one §9 class-scope trigger: every third `add`
/// across ALL instances fires `count` on the posting instance.
void SetUpClass(Database* db) {
  ClassDef def("scell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(MethodDef{"note",
                          {{"string", "text"}},
                          MethodKind::kUpdate,
                          [](MethodContext*) { return Status::OK(); }});
  def.AddTrigger("CT(): perpetual every 3 (after add) ==> count");
  def.AddTrigger("NT(): perpetual after note ==> count");
  ODE_ASSERT_OK(db->RegisterAction("count", CountAction));
  ODE_ASSERT_OK(db->RegisterClass(std::move(def)).status());
}

Oid MakeObject(Database* db) {
  TxnId t = db->Begin().value();
  Oid oid = db->New(t, "scell").value();
  EXPECT_TRUE(db->Commit(t).ok());
  return oid;
}

void PostAdds(Database* db, Oid oid, int n) {
  for (int i = 0; i < n; ++i) {
    TxnId t = db->Begin().value();
    ODE_ASSERT_OK(db->Call(t, oid, "add", {Value(1)}).status());
    ODE_ASSERT_OK(db->Commit(t));
  }
}

/// The sequencer's firing sink. In the runtime each firing goes to the
/// shard that owns its object; here the test thread runs them, between
/// drains.
class FiringQueue {
 public:
  explicit FiringQueue(Database* db) : db_(db) {}

  seq::FiringSink Sink() {
    return [this](seq::Firing firing) {
      std::lock_guard<std::mutex> lock(mu_);
      queued_.push_back(std::move(firing));
    };
  }

  /// Runs every queued firing on the calling thread; returns how many ran.
  size_t Run() {
    std::vector<seq::Firing> firings;
    {
      std::lock_guard<std::mutex> lock(mu_);
      firings.swap(queued_);
    }
    for (const seq::Firing& firing : firings) {
      ODE_EXPECT_OK(db_->RunClassFiring(firing));
    }
    return firings.size();
  }

  /// Drains the sequencer and runs what it decided until nothing is left.
  void Settle(seq::Sequencer* sequencer) {
    do {
      sequencer->WaitDrained();
    } while (Run() > 0);
  }

 private:
  Database* db_;
  std::mutex mu_;
  std::vector<seq::Firing> queued_;
};

std::string TempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/ode_seq_test_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

TEST(SequencerTest, ClassTriggerFiresThroughSequencer) {
  Database db;
  SetUpClass(&db);
  Oid oid = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;  // One "shard" lane + the external lane.
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());

  constexpr int kAdds = 30;
  PostAdds(&db, oid, kAdds);
  firings.Settle(&sequencer);

  // The merged stream saw kAdds `add` symbols; every third fires. The
  // actions run after the merge, on the thread that settles the firings.
  EXPECT_EQ(db.ClassFireCount("scell", "CT"), kAdds / 3);
  EXPECT_EQ(db.PeekAttr(oid, "touches").value().AsInt().value(), kAdds / 3);

  seq::SequencerMetricsSnapshot m = sequencer.Metrics();
  EXPECT_TRUE(m.enabled);
  // Publishing is slot-existence-based: every posted event (method AND
  // txn events) flows through once a class-scope slot exists.
  EXPECT_GE(m.published, static_cast<uint64_t>(kAdds));
  EXPECT_EQ(m.sequenced, m.published);
  EXPECT_EQ(m.firings, static_cast<uint64_t>(kAdds / 3));
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(m.apply_errors, 0u);
  EXPECT_EQ(m.queue_depth, 0u);

  sequencer.Stop();
  db.DetachSequencer();
}

// The merge thread decides a firing without touching its object: it never
// waits for the object's lock and never writes the object. The test thread
// holds X's exclusive lock in an open transaction while it posts the three
// adds that fire CT on X.
TEST(SequencerTest, MergeThreadNeverWaitsOnObjectLock) {
  Database db;
  SetUpClass(&db);
  Oid x = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());

  TxnId t = db.Begin().value();
  for (int i = 0; i < 3; ++i) {
    ODE_ASSERT_OK(db.Call(t, x, "add", {Value(1)}).status());
  }
  sequencer.WaitDrained();  // Returns while `t` still holds X.
  EXPECT_EQ(db.ClassFireCount("scell", "CT"), 1u);
  EXPECT_EQ(db.PeekAttr(x, "touches").value().AsInt().value(), 0);
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_EQ(firings.Run(), 1u);
  EXPECT_EQ(db.PeekAttr(x, "touches").value().AsInt().value(), 1);

  sequencer.Stop();
  db.DetachSequencer();
}

TEST(SequencerTest, LaneWatermarksTrackPerLanePublishes) {
  Database db;
  SetUpClass(&db);
  Oid a = MakeObject(&db);
  Oid b = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 3;  // Two registered lanes + external.
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());

  constexpr int kPerLane = 24;
  std::thread t0([&] {
    seq::SetThreadPublisherLane(0);
    PostAdds(&db, a, kPerLane);
  });
  std::thread t1([&] {
    seq::SetThreadPublisherLane(1);
    PostAdds(&db, b, kPerLane);
  });
  t0.join();
  t1.join();
  firings.Settle(&sequencer);

  EXPECT_EQ(db.ClassFireCount("scell", "CT"), 2 * kPerLane / 3);

  // Watermarks are "highest lane_seq applied"; after a drain with no
  // publisher in flight they equal the lane counters, and the external
  // lane (unused here) stays at zero.
  seq::SequencerMetricsSnapshot m = sequencer.Metrics();
  std::vector<uint64_t> counters = sequencer.LaneCounters();
  ASSERT_EQ(m.lane_watermark.size(), 3u);
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(m.lane_watermark[0], counters[0]);
  EXPECT_EQ(m.lane_watermark[1], counters[1]);
  // Inert-event filtering: exactly the `after add` postings enter the
  // stream — txn markers and before-events classify OTHER and CT's
  // automaton provably ignores them (TriggerProgram::other_inert).
  EXPECT_EQ(counters[0], static_cast<uint64_t>(kPerLane));
  EXPECT_EQ(counters[1], static_cast<uint64_t>(kPerLane));
  EXPECT_EQ(counters[2], 0u);
  EXPECT_EQ(m.sequenced, counters[0] + counters[1]);

  sequencer.Stop();
  db.DetachSequencer();
}

TEST(SequencerTest, TinyQueueBackpressureLosesNothing) {
  Database db;
  SetUpClass(&db);
  Oid oid = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  options.queue_capacity = 4;  // Publishers must block, never lose.
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());

  constexpr int kAdds = 60;
  PostAdds(&db, oid, kAdds);
  firings.Settle(&sequencer);

  EXPECT_EQ(db.ClassFireCount("scell", "CT"), kAdds / 3);
  seq::SequencerMetricsSnapshot m = sequencer.Metrics();
  EXPECT_EQ(m.sequenced, m.published);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_LE(m.queue_high_water, options.queue_capacity);

  sequencer.Stop();
  db.DetachSequencer();
}

TEST(SequencerTest, ActivationQuiescesUnderConcurrentPosting) {
  Database db;
  SetUpClass(&db);
  Oid oid = MakeObject(&db);

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());

  // One thread hammers posts while another toggles the class trigger:
  // every toggle runs under ExecuteQuiesced, so slot structure mutates
  // only with publishers gated out and the pipeline drained (TSan turns
  // a violated barrier into a hard failure).
  std::atomic<bool> stop{false};
  std::thread poster([&] {
    seq::SetThreadPublisherLane(0);
    while (!stop.load(std::memory_order_relaxed)) {
      PostAdds(&db, oid, 5);
    }
  });
  for (int i = 0; i < 20; ++i) {
    ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));
    ODE_ASSERT_OK(db.DeactivateClassTrigger("scell", "CT"));
  }
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));
  stop.store(true);
  poster.join();
  firings.Settle(&sequencer);

  EXPECT_TRUE(db.ClassTriggerActive("scell", "CT").value());
  seq::SequencerMetricsSnapshot m = sequencer.Metrics();
  EXPECT_EQ(m.apply_errors, 0u);
  EXPECT_EQ(m.queue_depth, 0u);

  sequencer.Stop();
  db.DetachSequencer();
}

TEST(SequencerTest, OrderLogRecoveryReproducesFirings) {
  const std::string dir = TempDir("orderlog");
  const std::string path = seq::OrderLogPath(dir);
  constexpr int kAdds = 25;  // Not a multiple of 3: automaton ends mid-count.

  // Run 1: sequencer with a durable order log.
  uint64_t original_fires = 0;
  uint64_t original_sequenced = 0;
  {
    Database db;
    SetUpClass(&db);
    Oid oid = MakeObject(&db);
    ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

    wal::LogWriter writer;
    wal::WalOptions wal_options;
    wal_options.fsync = wal::FsyncPolicy::kAlways;
    ODE_ASSERT_OK(writer.Open(path, 0, wal_options));

    FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
    options.num_lanes = 2;
    options.order_log = &writer;
    seq::Sequencer sequencer(&db, options);
    db.AttachSequencer(&sequencer);
    ODE_ASSERT_OK(sequencer.Start());
    PostAdds(&db, oid, kAdds);
    firings.Settle(&sequencer);
    original_fires = db.ClassFireCount("scell", "CT");
    original_sequenced = sequencer.Metrics().sequenced;
    sequencer.Stop();
    db.DetachSequencer();
  }
  EXPECT_EQ(original_fires, kAdds / 3);

  // The log records exactly the applied order (write-behind, synced by
  // Stop): one record per sequenced event, per-lane seqs contiguous.
  Result<wal::LogContents<seq::SeqEvent>> logged = seq::ReadOrderLog(path);
  ODE_ASSERT_OK(logged.status());
  EXPECT_FALSE(logged->torn);
  ASSERT_EQ(logged->records.size(), original_sequenced);
  uint64_t expect_seq = 0;
  for (const seq::SeqEvent& r : logged->records) {
    ASSERT_EQ(r.lane, 1u);  // Unregistered poster → external lane.
    EXPECT_EQ(r.lane_seq, ++expect_seq);
  }

  // Run 2: a fresh database (class re-registered, trigger re-activated —
  // the snapshot's job in real recovery) re-applies the logged order and
  // lands in the identical automaton state, firing identically.
  {
    Database db;
    SetUpClass(&db);
    Oid oid = MakeObject(&db);
    (void)oid;
    ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

    FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
    options.num_lanes = 2;
    seq::Sequencer sequencer(&db, options);
    db.AttachSequencer(&sequencer);
    for (const seq::SeqEvent& r : logged->records) {
      ODE_ASSERT_OK(sequencer.ApplyRecovered(r));
    }
    EXPECT_EQ(db.ClassFireCount("scell", "CT"), original_fires);

    // Replay dedup: shard-WAL replay would now re-publish these events
    // with regenerated identical lane seqs; everything at or below the
    // recovered watermark must be dropped, not double-applied.
    seq::SequencerMetricsSnapshot m = sequencer.Metrics();
    ASSERT_EQ(m.lane_watermark.size(), 2u);
    EXPECT_EQ(m.lane_watermark[1], original_sequenced);
    EXPECT_EQ(m.replay_deduped, 0u);
    sequencer.BeginReplayDedup();
    ODE_ASSERT_OK(sequencer.Start());
    {
      Oid oid2 = logged->records.front().oid;
      (void)oid2;
      // Re-publish through the public path from the external lane: the
      // lane counter starts at zero again, so the regenerated seqs all
      // fall at or below the watermark.
      for (const seq::SeqEvent& r : logged->records) {
        seq::Sequencer::PublishScope scope(&sequencer);
        seq::SeqEvent copy = r;
        copy.lane_seq = 0;  // Reassigned by Publish.
        EXPECT_TRUE(sequencer.Publish(std::move(copy)));
      }
    }
    firings.Settle(&sequencer);
    sequencer.FinishReplay();
    m = sequencer.Metrics();
    EXPECT_EQ(m.replay_deduped, original_sequenced);
    // Nothing was applied twice: fire count unchanged.
    EXPECT_EQ(db.ClassFireCount("scell", "CT"), original_fires);

    sequencer.Stop();
    db.DetachSequencer();
  }

  std::remove(path.c_str());
  std::remove(dir.c_str());
}

// kEveryMs bounds the order log's unsynced window in time, as it does a
// shard WAL's: a trickle of fewer than fsync_every_n records still reaches
// the disk within the interval, with no Sync barrier.
TEST(SequencerTest, OrderLogFollowsIntervalFsyncPolicy) {
  const std::string dir = TempDir("orderlog_ms");
  Database db;
  SetUpClass(&db);
  Oid oid = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

  wal::LogWriter writer;
  wal::WalOptions wal_options;
  wal_options.fsync = wal::FsyncPolicy::kEveryMs;
  wal_options.fsync_interval = std::chrono::milliseconds(5);
  wal_options.fsync_every_n = 64;
  ODE_ASSERT_OK(writer.Open(seq::OrderLogPath(dir), 0, wal_options));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  options.order_log = &writer;
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());
  PostAdds(&db, oid, 3);
  firings.Settle(&sequencer);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (writer.fsyncs() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(writer.fsyncs(), 1u);
  EXPECT_GT(writer.appends(), 0u);
  EXPECT_LT(writer.appends(), wal_options.fsync_every_n);
  sequencer.Stop();
  db.DetachSequencer();
}

// An event the order-record codec cannot hold (a value text over 65,535
// bytes) is counted as an apply error and skipped; the log stays on for
// the events after it.
TEST(SequencerTest, OrderRecordOverCapIsCountedAndLoggingGoesOn) {
  const std::string dir = TempDir("orderlog_cap");
  const std::string path = seq::OrderLogPath(dir);
  Database db;
  SetUpClass(&db);
  Oid oid = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "NT"));

  wal::LogWriter writer;
  wal::WalOptions wal_options;
  wal_options.fsync = wal::FsyncPolicy::kAlways;
  ODE_ASSERT_OK(writer.Open(path, 0, wal_options));

  int log_failures = 0;
  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  options.order_log = &writer;
  options.on_log_failure = [&](const Status&) { ++log_failures; };
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());
  PostAdds(&db, oid, 2);
  {
    TxnId t = db.Begin().value();
    ODE_ASSERT_OK(
        db.Call(t, oid, "note", {Value(std::string(70000, 'x'))}).status());
    ODE_ASSERT_OK(db.Commit(t));
  }
  PostAdds(&db, oid, 2);
  firings.Settle(&sequencer);
  seq::SequencerMetricsSnapshot m = sequencer.Metrics();
  sequencer.Stop();
  db.DetachSequencer();

  EXPECT_EQ(log_failures, 0);
  EXPECT_EQ(m.apply_errors, 1u);
  Result<wal::LogContents<seq::SeqEvent>> logged = seq::ReadOrderLog(path);
  ODE_ASSERT_OK(logged.status());
  EXPECT_FALSE(logged->torn);
  EXPECT_EQ(logged->records.size(), m.sequenced - 1);
  EXPECT_EQ(logged->records.back().event.method_name, "add");
}

TEST(SequencerTest, RestoreLaneCountersResumesNumbering) {
  Database db;
  SetUpClass(&db);
  Oid oid = MakeObject(&db);
  ODE_ASSERT_OK(db.ActivateClassTrigger("scell", "CT"));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  // A checkpoint recorded lane counters {7, 3}: post-recovery publishes
  // must continue from there so replayed shards regenerate the original
  // run's numbering.
  sequencer.RestoreLaneCounters({7, 3});
  ODE_ASSERT_OK(sequencer.Start());

  PostAdds(&db, oid, 3);  // External lane (1): seqs 4, 5, ...
  firings.Settle(&sequencer);

  std::vector<uint64_t> counters = sequencer.LaneCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0], 7u);  // Untouched lane keeps its floor.
  EXPECT_GT(counters[1], 3u);
  seq::SequencerMetricsSnapshot m = sequencer.Metrics();
  EXPECT_EQ(m.lane_watermark[1], counters[1]);

  sequencer.Stop();
  db.DetachSequencer();
}

TEST(SequencerTest, ClassSlotCapIsSixtyFour) {
  // The publish path keeps one 64-bit active mask per class, so a class
  // holds at most 64 class-scope slots: the 65th distinct trigger is
  // refused, and every admitted slot, the 64th included, sees the stream.
  Database db;
  ClassDef def("wide");
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{"add", {{"int", "d"}}, MethodKind::kUpdate,
                          [](MethodContext*) { return Status::OK(); }});
  std::vector<std::string> names;
  for (int i = 0; i <= 64; ++i) {
    names.push_back(std::string("C").append(std::to_string(i)));
    def.AddTrigger(names.back() + "(): perpetual after add ==> count");
  }
  ODE_ASSERT_OK(db.RegisterAction("count", CountAction));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid oid = db.New(t, "wide").value();
  ODE_ASSERT_OK(db.Commit(t));

  FiringQueue firings(&db);
  seq::Sequencer::Options options;
  options.sink = firings.Sink();
  options.num_lanes = 2;
  seq::Sequencer sequencer(&db, options);
  db.AttachSequencer(&sequencer);
  ODE_ASSERT_OK(sequencer.Start());

  for (int i = 0; i < 64; ++i) {
    ODE_ASSERT_OK(db.ActivateClassTrigger("wide", names[i]));
  }
  EXPECT_EQ(db.ActivateClassTrigger("wide", names[64]).code(),
            StatusCode::kResourceExhausted);
  ODE_ASSERT_OK(db.ActivateClassTrigger("wide", "C0"));  // Reuses its slot.

  t = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t, oid, "add", {Value(1)}).status());
  ODE_ASSERT_OK(db.Commit(t));
  firings.Settle(&sequencer);
  EXPECT_EQ(db.ClassFireCount("wide", "C63"), 1u);
  EXPECT_EQ(db.ClassFireCount("wide", "C64"), 0u);
  EXPECT_EQ(db.PeekAttr(oid, "touches").value().AsInt().value(), 64);

  sequencer.Stop();
  db.DetachSequencer();
}

}  // namespace
}  // namespace ode
