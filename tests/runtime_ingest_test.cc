// IngestRuntime integration tests: oracle parity (concurrent sharded
// ingest must produce exactly the single-threaded outcome), strict
// per-object ordering, backpressure policies, the Drain barrier,
// retry/dead-letter handling, lifecycle errors, and a multi-producer
// stress that doubles as the TSan workload.
#include "runtime/ingest_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

using runtime::BackpressurePolicy;
using runtime::IngestEvent;
using runtime::IngestOptions;
using runtime::IngestRuntime;
using runtime::RuntimeMetricsSnapshot;

// `count` bumps `touches` — the standard observable action.
Status CountAction(const ActionContext& ctx) {
  Result<Value> t = ctx.db->PeekAttr(ctx.self, "touches");
  if (!t.ok()) return t.status();
  Result<Value> next = t->Add(Value(1));
  if (!next.ok()) return next.status();
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", *next);
}

// Parity class: an accumulator with three full-view triggers. All three
// are insensitive to interleaved foreign symbols (counting, masks,
// relative), so batching events into fewer transactions — which only
// changes how many tcomplete/tcommit postings land between the method
// events — cannot change their firings.
ClassDef ParityClass() {
  ClassDef def("cell");
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
  def.AddMethod(MethodDef{"peek", {}, MethodKind::kReadOnly, nullptr});
  def.AddTrigger("T1(): perpetual every 3 (after add) ==> count");
  def.AddTrigger("T2(): perpetual after add (d) && d > 50 ==> count");
  def.AddTrigger("T3(): perpetual relative(after add, after peek) ==> count");
  return def;
}

struct WorkItem {
  size_t obj;    ///< Index into the object vector.
  bool is_add;   ///< add(delta) or peek().
  int delta;
};

std::vector<WorkItem> MakeWorkload(size_t num_objects, size_t num_events,
                                   uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<WorkItem> work;
  work.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    WorkItem w;
    w.obj = rng() % num_objects;
    w.is_add = rng() % 4 != 0;
    w.delta = static_cast<int>(rng() % 100);
    work.push_back(w);
  }
  return work;
}

std::vector<Oid> SetupParityDb(Database* db, size_t num_objects) {
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterClass(ParityClass()).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < num_objects; ++i) {
    Result<Oid> oid = db->New(t, "cell");
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(*oid);
    for (const char* trig : {"T1", "T2", "T3"}) {
      ODE_EXPECT_OK(db->ActivateTrigger(t, *oid, trig));
    }
  }
  ODE_EXPECT_OK(db->Commit(t));
  return oids;
}

TEST(IngestRuntimeTest, MatchesSingleThreadedOracleExactly) {
  constexpr size_t kObjects = 12;
  constexpr size_t kEvents = 2000;
  constexpr int kProducers = 3;
  const std::vector<WorkItem> work = MakeWorkload(kObjects, kEvents, 42);

  // Oracle: one transaction per event, fully single-threaded.
  Database oracle;
  std::vector<Oid> oracle_oids = SetupParityDb(&oracle, kObjects);
  for (const WorkItem& w : work) {
    TxnId t = oracle.Begin().value();
    Oid oid = oracle_oids[w.obj];
    Result<Value> r = w.is_add
                          ? oracle.Call(t, oid, "add", {Value(w.delta)})
                          : oracle.Call(t, oid, "peek");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ODE_ASSERT_OK(oracle.Commit(t));
  }

  // Runtime: same workload through 4 shards, posted by 3 producer
  // threads. Each producer owns a disjoint subset of objects and posts
  // its events in workload order, so every object's event sequence
  // matches the oracle's even though the global interleaving differs.
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, kObjects);
  IngestOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 16;
  opts.queue_capacity = 128;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const WorkItem& w : work) {
        if (static_cast<int>(w.obj % kProducers) != p) continue;
        Status s = w.is_add
                       ? rt.Post(oids[w.obj], "add", {Value(w.delta)})
                       : rt.Post(oids[w.obj], "peek");
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& t : producers) t.join();
  ODE_ASSERT_OK(rt.Drain());
  ODE_ASSERT_OK(rt.Stop());

  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.enqueued, kEvents);
  EXPECT_EQ(m.total.processed, kEvents);
  EXPECT_EQ(m.total.dead_lettered, 0u);
  EXPECT_EQ(m.total.dropped, 0u);

  uint64_t fired_total = 0;
  for (size_t i = 0; i < kObjects; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(db.PeekAttr(oids[i], "v").value().AsInt().value(),
              oracle.PeekAttr(oracle_oids[i], "v").value().AsInt().value());
    EXPECT_EQ(
        db.PeekAttr(oids[i], "touches").value().AsInt().value(),
        oracle.PeekAttr(oracle_oids[i], "touches").value().AsInt().value());
    for (const char* trig : {"T1", "T2", "T3"}) {
      EXPECT_EQ(db.FireCount(oids[i], trig),
                oracle.FireCount(oracle_oids[i], trig))
          << trig;
      fired_total += db.FireCount(oids[i], trig);
    }
  }
  // Every firing happened inside a worker's Call → the metric saw it.
  EXPECT_EQ(m.total.fired, fired_total);
}

// A class whose method body *asserts* in-order delivery: each call must
// carry exactly v+1.
ClassDef SequenceClass() {
  ClassDef def("seqcell");
  def.AddAttr("v", Value(0));
  def.AddMethod(MethodDef{
      "seq",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        if (d.AsInt().value() != v.AsInt().value() + 1) {
          return Status::Internal("out-of-order delivery");
        }
        return ctx->Set("v", d);
      }});
  return def;
}

TEST(IngestRuntimeTest, PreservesPerObjectOrder) {
  constexpr size_t kObjects = 8;
  constexpr int kPerObject = 150;
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(SequenceClass()).status());
  std::vector<Oid> oids;
  {
    TxnId t = db.Begin().value();
    for (size_t i = 0; i < kObjects; ++i) {
      oids.push_back(db.New(t, "seqcell").value());
    }
    ODE_ASSERT_OK(db.Commit(t));
  }
  IngestOptions opts;
  opts.num_shards = 3;
  opts.max_batch = 8;
  opts.queue_capacity = 32;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  // Two producers, each the sole poster for its objects (even/odd split):
  // per-object posting order is well defined, shard FIFO must keep it.
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 1; i <= kPerObject; ++i) {
        for (size_t o = static_cast<size_t>(p); o < kObjects; o += 2) {
          ASSERT_TRUE(rt.Post(oids[o], "seq", {Value(i)}).ok());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  ODE_ASSERT_OK(rt.Drain());

  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.dead_lettered, 0u);  // No out-of-order rejections.
  EXPECT_EQ(m.total.processed, kObjects * kPerObject);
  for (size_t i = 0; i < kObjects; ++i) {
    EXPECT_EQ(db.PeekAttr(oids[i], "v").value().AsInt().value(), kPerObject);
  }
}

// Shared gate the blocker method parks on, to hold a shard's worker
// mid-batch while the test fills the queue behind it.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
};

ClassDef BlockerClass(Gate* gate) {
  ClassDef def("blocker");
  def.AddAttr("v", Value(0));
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
  def.AddMethod(MethodDef{
      "block",
      {},
      MethodKind::kUpdate,
      [gate](MethodContext*) -> Status {
        gate->Enter();
        return Status::OK();
      }});
  return def;
}

struct BackpressureRig {
  Gate gate;
  Database db;
  Oid oid;
  std::unique_ptr<IngestRuntime> rt;

  explicit BackpressureRig(BackpressurePolicy policy) {
    EXPECT_TRUE(db.RegisterClass(BlockerClass(&gate)).status().ok());
    TxnId t = db.Begin().value();
    oid = db.New(t, "blocker").value();
    EXPECT_TRUE(db.Commit(t).ok());
    IngestOptions opts;
    opts.num_shards = 1;       // One queue, so we can fill it exactly.
    opts.max_batch = 1;        // The blocker occupies a batch alone.
    opts.queue_capacity = 2;
    opts.backpressure = policy;
    rt = std::make_unique<IngestRuntime>(&db, opts);
    EXPECT_TRUE(rt->Start().ok());
    // Park the worker inside the blocker's method body; from here on the
    // queue only fills.
    EXPECT_TRUE(rt->Post(oid, "block").ok());
    gate.AwaitEntered();
  }
};

TEST(IngestRuntimeTest, RejectPolicyBouncesWhenFull) {
  BackpressureRig rig(BackpressurePolicy::kReject);
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  Status s = rig.rt->Post(rig.oid, "add", {Value(1)});
  EXPECT_EQ(s.code(), StatusCode::kWouldBlock) << s.ToString();
  rig.gate.Release();
  ODE_ASSERT_OK(rig.rt->Drain());
  RuntimeMetricsSnapshot m = rig.rt->Metrics();
  EXPECT_EQ(m.total.rejected, 1u);
  EXPECT_EQ(m.total.processed, 3u);  // block + the two accepted adds.
  EXPECT_EQ(rig.db.PeekAttr(rig.oid, "v").value().AsInt().value(), 2);
}

TEST(IngestRuntimeTest, DropNewestPolicyDiscardsWhenFull) {
  BackpressureRig rig(BackpressurePolicy::kDropNewest);
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  // Still OK — drop-newest is lossy, not failing.
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  rig.gate.Release();
  ODE_ASSERT_OK(rig.rt->Drain());
  RuntimeMetricsSnapshot m = rig.rt->Metrics();
  EXPECT_EQ(m.total.dropped, 1u);
  EXPECT_EQ(m.total.rejected, 0u);
  EXPECT_EQ(rig.db.PeekAttr(rig.oid, "v").value().AsInt().value(), 2);
}

// TryPost on a kBlock runtime: a full queue bounces with kWouldBlock,
// hands the event back intact, and records NOTHING — no producer
// counters, no applied-seq — so the caller can retry the same event later
// without double counting. This is the network front end's non-blocking
// handoff.
TEST(IngestRuntimeTest, TryPostBouncesIntactWhenBlockPolicyFull) {
  BackpressureRig rig(BackpressurePolicy::kBlock);
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));

  IngestEvent event;
  event.oid = rig.oid;
  event.method = "add";
  event.args = {Value(5)};
  Status s = rig.rt->TryPost(&event);
  EXPECT_EQ(s.code(), StatusCode::kWouldBlock) << s.ToString();
  // The bounce left the event intact...
  EXPECT_EQ(event.method, "add");
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].AsInt().value(), 5);
  // ...and recorded nothing: kBlock never rejects, it defers to the caller.
  RuntimeMetricsSnapshot m = rig.rt->Metrics();
  EXPECT_EQ(m.total.rejected, 0u);
  EXPECT_EQ(m.total.enqueued, 3u);  // block + the two accepted adds.

  // Retrying the same event object after the wedge clears succeeds and
  // counts exactly once.
  rig.gate.Release();
  Status retry = Status::WouldBlock("never retried");
  for (int spin = 0; spin < 2000; ++spin) {
    retry = rig.rt->TryPost(&event);
    if (retry.code() != StatusCode::kWouldBlock) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ODE_ASSERT_OK(retry);
  ODE_ASSERT_OK(rig.rt->Drain());
  EXPECT_EQ(rig.db.PeekAttr(rig.oid, "v").value().AsInt().value(), 7);
  m = rig.rt->Metrics();
  EXPECT_EQ(m.total.enqueued, 4u);
  EXPECT_EQ(m.total.processed, 4u);
  EXPECT_EQ(m.total.rejected, 0u);
}

// TryPost under kReject keeps the old contract: a bounce IS a rejection
// and is recorded as one (the wire layer surfaces it to the client as
// ERR_WOULD_BLOCK rather than deferring).
TEST(IngestRuntimeTest, TryPostUnderRejectPolicyRecordsTheBounce) {
  BackpressureRig rig(BackpressurePolicy::kReject);
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}));

  IngestEvent event;
  event.oid = rig.oid;
  event.method = "add";
  event.args = {Value(5)};
  Status s = rig.rt->TryPost(&event);
  EXPECT_EQ(s.code(), StatusCode::kWouldBlock) << s.ToString();
  EXPECT_EQ(rig.rt->Metrics().total.rejected, 1u);

  rig.gate.Release();
  ODE_ASSERT_OK(rig.rt->Drain());
  EXPECT_EQ(rig.db.PeekAttr(rig.oid, "v").value().AsInt().value(), 2);
}

TEST(IngestRuntimeTest, TryPostAfterStopIsShutdown) {
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, 1);
  IngestRuntime rt(&db, {});
  ODE_ASSERT_OK(rt.Start());
  ODE_ASSERT_OK(rt.Stop());
  IngestEvent event;
  event.oid = oids[0];
  event.method = "add";
  event.args = {Value(1)};
  EXPECT_EQ(rt.TryPost(&event).code(), StatusCode::kShutdown);
}

TEST(IngestRuntimeTest, DrainIsACompletionBarrier) {
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, 4);
  IngestOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 4;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  constexpr int kPosts = 500;
  for (int i = 0; i < kPosts; ++i) {
    ODE_ASSERT_OK(rt.Post(oids[i % oids.size()], "add", {Value(1)}));
  }
  ODE_ASSERT_OK(rt.Drain());
  // The barrier means: at this instant, every post is fully applied.
  int64_t total = 0;
  for (Oid oid : oids) {
    total += db.PeekAttr(oid, "v").value().AsInt().value();
  }
  EXPECT_EQ(total, kPosts);
  EXPECT_EQ(rt.Metrics().total.processed, static_cast<uint64_t>(kPosts));
}

TEST(IngestRuntimeTest, RetriesThenDeadLettersAbortingEvent) {
  // `after add ==> tabort` aborts every transaction that calls add: the
  // batch attempt fails, then each per-event retry fails the same way.
  ClassDef def("poison");
  def.AddAttr("v", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        return ctx->Set("v", d);
      }});
  def.AddTrigger("P(): perpetual after add ==> tabort");
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  Oid oid;
  {
    TxnId t = db.Begin().value();
    oid = db.New(t, "poison").value();
    ODE_ASSERT_OK(db.ActivateTrigger(t, oid, "P"));
    ODE_ASSERT_OK(db.Commit(t));
  }

  std::mutex dl_mu;
  std::vector<std::pair<IngestEvent, Status>> dead;
  IngestOptions opts;
  opts.num_shards = 1;
  opts.error_policy.max_retries = 2;
  opts.error_policy.initial_backoff = std::chrono::microseconds(50);
  opts.dead_letter = [&](const IngestEvent& e, const Status& s) {
    std::lock_guard<std::mutex> lock(dl_mu);
    dead.emplace_back(e, s);
  };
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  ODE_ASSERT_OK(rt.Post(oid, "add", {Value(7)}));
  ODE_ASSERT_OK(rt.Drain());

  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.dead_lettered, 1u);
  EXPECT_EQ(m.total.retried, 2u);          // max_retries extra attempts.
  EXPECT_EQ(m.total.aborted, 4u);          // batch + initial + 2 retries.
  EXPECT_EQ(m.total.processed, 1u);
  EXPECT_EQ(m.total.fired, 0u);            // No attempt ever committed.
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].first.oid.id, oid.id);
  EXPECT_EQ(dead[0].first.method, "add");
  EXPECT_EQ(dead[0].second.code(), StatusCode::kAborted);
  // The write never survived any attempt.
  EXPECT_EQ(db.PeekAttr(oid, "v").value().AsInt().value(), 0);
}

TEST(IngestRuntimeTest, NonRetryableFailureDeadLettersImmediately) {
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, 1);
  std::mutex dl_mu;
  std::vector<Status> dead;
  IngestOptions opts;
  opts.num_shards = 1;
  opts.dead_letter = [&](const IngestEvent&, const Status& s) {
    std::lock_guard<std::mutex> lock(dl_mu);
    dead.push_back(s);
  };
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  ODE_ASSERT_OK(rt.Post(oids[0], "no_such_method"));
  ODE_ASSERT_OK(rt.Drain());
  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.dead_lettered, 1u);
  EXPECT_EQ(m.total.retried, 0u);  // Not retryable: no second attempt.
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_FALSE(dead[0].ok());
  EXPECT_NE(dead[0].code(), StatusCode::kAborted);
}

TEST(IngestRuntimeTest, LifecycleErrors) {
  Database db;
  IngestRuntime rt(&db, {});
  // Before Start: a caller bug, not a shutdown.
  EXPECT_EQ(rt.Post(Oid{1}, "m").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rt.Drain().code(), StatusCode::kFailedPrecondition);
  ODE_ASSERT_OK(rt.Start());
  EXPECT_TRUE(rt.running());
  EXPECT_EQ(rt.Start().code(), StatusCode::kFailedPrecondition);
  ODE_ASSERT_OK(rt.Stop());
  ODE_ASSERT_OK(rt.Stop());  // Idempotent.
  EXPECT_FALSE(rt.running());
  // After Stop: the distinct kShutdown lets front ends reply
  // "shutting down" instead of a generic error.
  EXPECT_EQ(rt.Post(Oid{1}, "m").code(), StatusCode::kShutdown);
  EXPECT_EQ(rt.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(IngestRuntimeTest, ProducerAccountingAttributesOutcomes) {
  BackpressureRig rig(BackpressurePolicy::kReject);
  runtime::ProducerMetrics* alice = rig.rt->RegisterProducer("alice");
  runtime::ProducerMetrics* bob = rig.rt->RegisterProducer("bob");
  // Queue capacity is 2 and the worker is parked: alice fills it, bob
  // bounces off it.
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}, alice));
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}, alice));
  EXPECT_EQ(rig.rt->Post(rig.oid, "add", {Value(1)}, bob).code(),
            StatusCode::kWouldBlock);
  rig.gate.Release();
  ODE_ASSERT_OK(rig.rt->Drain());
  ODE_ASSERT_OK(rig.rt->Stop());
  // Post after Stop is a failure attributed to the producer that tried.
  EXPECT_EQ(rig.rt->Post(rig.oid, "add", {Value(1)}, bob).code(),
            StatusCode::kShutdown);

  RuntimeMetricsSnapshot m = rig.rt->Metrics();
  ASSERT_EQ(m.producers.size(), 2u);
  EXPECT_EQ(m.producers[0].name, "alice");
  EXPECT_EQ(m.producers[0].posted, 2u);
  EXPECT_EQ(m.producers[0].accepted, 2u);
  EXPECT_EQ(m.producers[0].rejected, 0u);
  EXPECT_EQ(m.producers[1].name, "bob");
  EXPECT_EQ(m.producers[1].posted, 2u);
  EXPECT_EQ(m.producers[1].rejected, 1u);
  EXPECT_EQ(m.producers[1].failed, 1u);
  EXPECT_NE(m.ToString().find("producer bob"), std::string::npos);
}

TEST(IngestRuntimeTest, RetiredProducersFoldIntoAggregate) {
  BackpressureRig rig(BackpressurePolicy::kReject);
  runtime::ProducerMetrics* conn0 = rig.rt->RegisterProducer("conn0");
  runtime::ProducerMetrics* conn1 = rig.rt->RegisterProducer("conn1");
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}, conn0));
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}, conn1));
  EXPECT_EQ(rig.rt->Post(rig.oid, "add", {Value(1)}, conn1).code(),
            StatusCode::kWouldBlock);
  rig.gate.Release();
  ODE_ASSERT_OK(rig.rt->Drain());

  // Retiring removes the named entries but folds their counters into one
  // aggregate entry, so Metrics() totals survive connection churn without
  // the producer list growing.
  rig.rt->RetireProducer(conn0);
  rig.rt->RetireProducer(conn1);
  rig.rt->RetireProducer(nullptr);  // Ignored.
  RuntimeMetricsSnapshot m = rig.rt->Metrics();
  ASSERT_EQ(m.producers.size(), 1u);
  EXPECT_EQ(m.producers[0].name, "retired[2]");
  EXPECT_EQ(m.producers[0].posted, 3u);
  EXPECT_EQ(m.producers[0].accepted, 2u);
  EXPECT_EQ(m.producers[0].rejected, 1u);
  EXPECT_EQ(m.producers[0].failed, 0u);

  // New registrations coexist with the aggregate.
  runtime::ProducerMetrics* conn2 = rig.rt->RegisterProducer("conn2");
  ODE_ASSERT_OK(rig.rt->Post(rig.oid, "add", {Value(1)}, conn2));
  ODE_ASSERT_OK(rig.rt->Drain());
  m = rig.rt->Metrics();
  ASSERT_EQ(m.producers.size(), 2u);
  EXPECT_EQ(m.producers[0].name, "conn2");
  EXPECT_EQ(m.producers[0].posted, 1u);
  EXPECT_EQ(m.producers[1].name, "retired[2]");
}

TEST(IngestRuntimeTest, ShardRoutingIsStableAndCoversAllShards) {
  Database db;
  IngestOptions opts;
  opts.num_shards = 4;
  IngestRuntime rt(&db, opts);
  std::vector<bool> hit(4, false);
  for (uint64_t id = 1; id <= 64; ++id) {
    size_t s = rt.ShardOf(Oid{id});
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, rt.ShardOf(Oid{id}));  // Deterministic.
    hit[s] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(hit[s]) << "shard " << s;
}

// Many producers hammering shared objects: correctness of totals and of
// the exact trigger fire counts, and the workload the TSan CI job runs.
TEST(IngestRuntimeTest, MpscStressSharedObjects) {
  constexpr size_t kObjects = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducerPerObject = 100;
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, kObjects);
  IngestOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 32;
  opts.queue_capacity = 256;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducerPerObject; ++i) {
        for (Oid oid : oids) {
          ASSERT_TRUE(rt.Post(oid, "add", {Value(1)}).ok());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  ODE_ASSERT_OK(rt.Drain());
  ODE_ASSERT_OK(rt.Stop());

  constexpr int kAddsPerObject = kProducers * kPerProducerPerObject;
  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.enqueued,
            static_cast<uint64_t>(kAddsPerObject) * kObjects);
  EXPECT_EQ(m.total.processed, m.total.enqueued);
  EXPECT_EQ(m.total.dead_lettered, 0u);
  for (Oid oid : oids) {
    EXPECT_EQ(db.PeekAttr(oid, "v").value().AsInt().value(), kAddsPerObject);
    // add-count triggers are order-insensitive: exact counts survive the
    // arbitrary cross-producer interleaving.
    EXPECT_EQ(db.FireCount(oid, "T1"),
              static_cast<uint64_t>(kAddsPerObject / 3));
  }

  std::string dump = m.ToString();
  EXPECT_NE(dump.find("ingest runtime"), std::string::npos);
  EXPECT_NE(dump.find("shard 0"), std::string::npos);
}

// A class-scope trigger (§9 extension) runs ONE automaton over the merged
// event stream of every instance, so its slot is shared mutable state
// across shards: every worker that posts to any instance advances the same
// automaton. This drives one active class trigger from 4 shards at once —
// the TSan CI job turns any unsynchronized slot advancement into a hard
// failure — and checks the merged-stream fire count is exact (`every 3` is
// insensitive to the cross-shard interleaving of `add` symbols).
TEST(IngestRuntimeTest, ClassTriggerUnderMpscLoad) {
  constexpr size_t kObjects = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducerPerObject = 75;
  ClassDef def("ccell");
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
  def.AddTrigger("CT(): perpetual every 3 (after add) ==> count");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction("count", CountAction));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  std::vector<Oid> oids;
  {
    TxnId t = db.Begin().value();
    for (size_t i = 0; i < kObjects; ++i) {
      oids.push_back(db.New(t, "ccell").value());
    }
    ODE_ASSERT_OK(db.Commit(t));
  }
  ODE_ASSERT_OK(db.ActivateClassTrigger("ccell", "CT"));

  IngestOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 16;
  opts.queue_capacity = 256;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducerPerObject; ++i) {
        for (Oid oid : oids) {
          ASSERT_TRUE(rt.Post(oid, "add", {Value(1)}).ok());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  ODE_ASSERT_OK(rt.Drain());
  ODE_ASSERT_OK(rt.Stop());

  constexpr uint64_t kTotalAdds =
      static_cast<uint64_t>(kObjects) * kProducers * kPerProducerPerObject;
  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.processed, kTotalAdds);
  EXPECT_EQ(m.total.dead_lettered, 0u);
  // The merged stream saw kTotalAdds `add` symbols; exactly every third
  // one fires, no matter how the shards interleaved.
  EXPECT_EQ(db.ClassFireCount("ccell", "CT"), kTotalAdds / 3);
  EXPECT_TRUE(db.ClassTriggerActive("ccell", "CT").value());
  // Each firing bumped `touches` on the instance whose event completed the
  // pattern, so the per-object counts sum to the fire count.
  int64_t touches = 0;
  int64_t total_v = 0;
  for (Oid oid : oids) {
    touches += db.PeekAttr(oid, "touches").value().AsInt().value();
    total_v += db.PeekAttr(oid, "v").value().AsInt().value();
  }
  EXPECT_EQ(touches, static_cast<int64_t>(kTotalAdds / 3));
  EXPECT_EQ(total_v, static_cast<int64_t>(kTotalAdds));
}

// A commit whose after-tcommit epilogue fails must NOT be replayed: the
// user transaction committed, only the system transaction's postings were
// lost. The worker must count an epilogue failure and move on — replaying
// or retrying would apply the batch twice.
TEST(IngestRuntimeTest, CommitEpilogueFailureDoesNotReplay) {
  // `boom` starts disarmed so the setup commit (which also posts tcommit)
  // succeeds; armed before Start, every worker commit's epilogue fails.
  auto armed = std::make_shared<std::atomic<bool>>(false);
  ClassDef def("fragile");
  def.AddAttr("v", Value(0));
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
  def.AddTrigger("E(): perpetual after tcommit ==> boom");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "boom", [armed](const ActionContext&) -> Status {
        return armed->load() ? Status::Internal("epilogue action failure")
                             : Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  Oid oid;
  {
    TxnId t = db.Begin().value();
    oid = db.New(t, "fragile").value();
    ODE_ASSERT_OK(db.ActivateTrigger(t, oid, "E"));
    ODE_ASSERT_OK(db.Commit(t));
  }
  armed->store(true);

  IngestOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 8;
  opts.error_policy.max_retries = 2;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  constexpr int kPosts = 40;
  for (int i = 0; i < kPosts; ++i) {
    ODE_ASSERT_OK(rt.Post(oid, "add", {Value(1)}));
  }
  ODE_ASSERT_OK(rt.Drain());

  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.processed, static_cast<uint64_t>(kPosts));
  // Committed-with-failed-epilogue is not an abort: nothing was retried,
  // replayed, or dead-lettered...
  EXPECT_EQ(m.total.aborted, 0u);
  EXPECT_EQ(m.total.retried, 0u);
  EXPECT_EQ(m.total.dead_lettered, 0u);
  EXPECT_GE(m.total.epilogue_failures, 1u);
  // ...so every add applied exactly once.
  EXPECT_EQ(db.PeekAttr(oid, "v").value().AsInt().value(), kPosts);
}

// A WAL append failure must degrade the shard to in-memory operation, not
// bounce producers or lose the already-queued event: the first failure
// fires on_wal_failure exactly once, latches wal_degraded(), disables
// further append attempts, and every post before and after the failure is
// still processed. The writer is opened on /dev/full, whose writes always
// fail with ENOSPC — the canonical disk-full injection.
TEST(IngestRuntimeTest, WalAppendFailureDegradesToInMemory) {
  Database db;
  ODE_ASSERT_OK(db.RegisterAction("count", CountAction));
  ODE_ASSERT_OK(db.RegisterClass(ParityClass()).status());
  Oid oid;
  {
    TxnId t = db.Begin().value();
    oid = db.New(t, "cell").value();
    ODE_ASSERT_OK(db.Commit(t));
  }

  wal::LogWriter writer;
  wal::WalOptions wal_options;
  wal_options.fsync = wal::FsyncPolicy::kNever;  // Write-through, no flusher.
  Status opened = writer.Open("/dev/full", /*start_lsn=*/0, wal_options);
  if (!opened.ok()) {
    GTEST_SKIP() << "/dev/full unavailable: " << opened.ToString();
  }

  std::atomic<int> failures{0};
  Status first_failure = Status::OK();
  runtime::Shard::Options options;
  options.wal = &writer;
  options.on_wal_failure = [&](const Status& status) {
    if (failures.fetch_add(1) == 0) first_failure = status;
  };
  runtime::Shard shard(0, &db, options);
  shard.Start();
  EXPECT_FALSE(shard.wal_degraded());

  constexpr int kPosts = 10;
  for (int i = 0; i < kPosts; ++i) {
    IngestEvent event;
    event.oid = oid;
    event.method = "add";
    event.args = {Value(1)};
    bool enqueued = false;
    // The append failure is swallowed: the event entered the queue, so the
    // producer sees OK and the shard carries on without a log.
    ODE_ASSERT_OK(shard.Enqueue(std::move(event), &enqueued));
    EXPECT_TRUE(enqueued);
  }
  shard.WaitDrained();
  shard.Stop();

  // Exactly one escalation, carrying the real I/O error.
  EXPECT_EQ(failures.load(), 1);
  EXPECT_TRUE(shard.wal_degraded());
  EXPECT_FALSE(first_failure.ok());
  // Only the first append was attempted; the writer's sticky failure was
  // never poked again (appends counts successful appends only).
  EXPECT_EQ(writer.appends(), 0u);
  // Every event — including the one whose append failed — was processed.
  EXPECT_EQ(db.PeekAttr(oid, "v").value().AsInt().value(), kPosts);
}

}  // namespace
}  // namespace ode
