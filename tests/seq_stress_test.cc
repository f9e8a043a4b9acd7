// Sequencer stress test — the TSan workload for class-scope triggers:
// many producers × several shards all feed ONE merged class automaton
// set through the sequencer, while a single-threaded standalone run of
// the same workload (no runtime, no sequencer — the inline §9 path the
// §4 oracle semantics define) provides the expected firings. The chosen
// triggers are insensitive to cross-shard interleaving, so the parallel
// run must match the oracle run exactly, not just approximately.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "ode/database.h"
#include "runtime/ingest_runtime.h"
#include "test_util.h"

namespace ode {
namespace {

using runtime::IngestOptions;
using runtime::IngestRuntime;
using runtime::RuntimeMetricsSnapshot;

Status CountAction(const ActionContext& ctx) {
  Result<Value> t = ctx.db->PeekAttr(ctx.self, "touches");
  if (!t.ok()) return t.status();
  Result<Value> next = t->Add(Value(1));
  if (!next.ok()) return next.status();
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", *next);
}

/// Two class-scope triggers: a merged-stream counter (`every 3`) and a
/// masked one that only sees large deltas. Both are order-insensitive:
/// their firing counts depend only on the multiset of `add` events, so
/// any legal cross-shard merge produces the same totals. An `add` of 0 is
/// poison: the method aborts its transaction.
ClassDef StressClass() {
  ClassDef def("mcell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        if (d.AsInt().value() == 0) return Status::Aborted("poison add");
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddTrigger("C1(): perpetual every 3 (after add) ==> count");
  def.AddTrigger("C2(): perpetual after add (d) && d > 50 ==> count");
  return def;
}

struct Post {
  size_t obj;
  int delta;
};

std::vector<Post> MakeWorkload(size_t objects, size_t events) {
  // Deterministic mix: deltas cycle 1..100, objects round-robin.
  std::vector<Post> work;
  work.reserve(events);
  for (size_t i = 0; i < events; ++i) {
    work.push_back(Post{i % objects, static_cast<int>(i % 100) + 1});
  }
  return work;
}

/// What a run leaves behind, summed over the objects.
struct Totals {
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  int64_t touches = 0;
  int64_t v = 0;
};

Totals Sum(const Database& db, const std::vector<Oid>& oids) {
  Totals t;
  t.c1 = db.ClassFireCount("mcell", "C1");
  t.c2 = db.ClassFireCount("mcell", "C2");
  for (Oid oid : oids) {
    t.touches += db.PeekAttr(oid, "touches").value().AsInt().value();
    t.v += db.PeekAttr(oid, "v").value().AsInt().value();
  }
  return t;
}

/// A database with the stress class, `objects` instances and C1 + C2
/// active at class scope.
std::vector<Oid> SetUpStress(Database* db, size_t objects) {
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterClass(StressClass()).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < objects; ++i) {
    oids.push_back(db->New(t, "mcell").value());
  }
  EXPECT_TRUE(db->Commit(t).ok());
  EXPECT_TRUE(db->ActivateClassTrigger("mcell", "C1").ok());
  EXPECT_TRUE(db->ActivateClassTrigger("mcell", "C2").ok());
  return oids;
}

TEST(SeqStressTest, ShardedClassTriggersMatchSingleThreadedOracle) {
  constexpr size_t kObjects = 16;
  constexpr size_t kEvents = 4000;
  constexpr int kProducers = 4;
  const std::vector<Post> work = MakeWorkload(kObjects, kEvents);

  // Oracle: the same workload applied single-threaded, standalone — the
  // inline class-scope path (no sequencer attached).
  uint64_t oracle_c1 = 0;
  uint64_t oracle_c2 = 0;
  {
    Database db;
    ODE_ASSERT_OK(db.RegisterAction("count", CountAction));
    ODE_ASSERT_OK(db.RegisterClass(StressClass()).status());
    std::vector<Oid> oids;
    {
      TxnId t = db.Begin().value();
      for (size_t i = 0; i < kObjects; ++i) {
        oids.push_back(db.New(t, "mcell").value());
      }
      ODE_ASSERT_OK(db.Commit(t));
    }
    ODE_ASSERT_OK(db.ActivateClassTrigger("mcell", "C1"));
    ODE_ASSERT_OK(db.ActivateClassTrigger("mcell", "C2"));
    for (const Post& p : work) {
      TxnId t = db.Begin().value();
      ODE_ASSERT_OK(db.Call(t, oids[p.obj], "add", {Value(p.delta)}).status());
      ODE_ASSERT_OK(db.Commit(t));
    }
    oracle_c1 = db.ClassFireCount("mcell", "C1");
    oracle_c2 = db.ClassFireCount("mcell", "C2");
  }
  EXPECT_EQ(oracle_c1, kEvents / 3);
  // Deltas 51..100 of every 1..100 cycle pass the mask.
  EXPECT_EQ(oracle_c2, kEvents / 2);

  // Parallel run: 4 shards, 4 producers, same multiset of posts.
  {
    Database db;
    ODE_ASSERT_OK(db.RegisterAction("count", CountAction));
    ODE_ASSERT_OK(db.RegisterClass(StressClass()).status());
    std::vector<Oid> oids;
    {
      TxnId t = db.Begin().value();
      for (size_t i = 0; i < kObjects; ++i) {
        oids.push_back(db.New(t, "mcell").value());
      }
      ODE_ASSERT_OK(db.Commit(t));
    }
    ODE_ASSERT_OK(db.ActivateClassTrigger("mcell", "C1"));
    ODE_ASSERT_OK(db.ActivateClassTrigger("mcell", "C2"));

    IngestOptions opts;
    opts.num_shards = 4;
    opts.max_batch = 16;
    opts.queue_capacity = 128;
    opts.seq_queue_capacity = 256;  // Small enough to exercise blocking.
    IngestRuntime rt(&db, opts);
    ODE_ASSERT_OK(rt.Start());

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = p; i < work.size(); i += kProducers) {
          ASSERT_TRUE(
              rt.Post(oids[work[i].obj], "add", {Value(work[i].delta)}).ok());
        }
      });
    }
    for (auto& t : producers) t.join();
    ODE_ASSERT_OK(rt.Drain());
    ODE_ASSERT_OK(rt.Stop());

    // Exact oracle parity — same firings, same per-object action effects
    // in total, same accumulator sums.
    EXPECT_EQ(db.ClassFireCount("mcell", "C1"), oracle_c1);
    EXPECT_EQ(db.ClassFireCount("mcell", "C2"), oracle_c2);
    int64_t touches = 0;
    int64_t total_v = 0;
    for (Oid oid : oids) {
      touches += db.PeekAttr(oid, "touches").value().AsInt().value();
      total_v += db.PeekAttr(oid, "v").value().AsInt().value();
    }
    EXPECT_EQ(touches, static_cast<int64_t>(oracle_c1 + oracle_c2));

    RuntimeMetricsSnapshot m = rt.Metrics();
    EXPECT_EQ(m.total.dead_lettered, 0u);
    EXPECT_TRUE(m.sequencer.enabled);
    EXPECT_EQ(m.sequencer.dropped, 0u);
    EXPECT_EQ(m.sequencer.apply_errors, 0u);
    EXPECT_EQ(m.sequencer.sequenced, m.sequencer.published);
    EXPECT_EQ(m.sequencer.firings, oracle_c1 + oracle_c2);
  }
}

TEST(SeqStressTest, DeactivationMidStreamIsAtomic) {
  // Toggling a class trigger while 4 shards publish: the quiesce barrier
  // means a toggle happens at a clean point of the total order — no torn
  // slot state, no lost events, no firing from a deactivated slot.
  constexpr size_t kObjects = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  Database db;
  ODE_ASSERT_OK(db.RegisterAction("count", CountAction));
  ODE_ASSERT_OK(db.RegisterClass(StressClass()).status());
  std::vector<Oid> oids;
  {
    TxnId t = db.Begin().value();
    for (size_t i = 0; i < kObjects; ++i) {
      oids.push_back(db.New(t, "mcell").value());
    }
    ODE_ASSERT_OK(db.Commit(t));
  }
  ODE_ASSERT_OK(db.ActivateClassTrigger("mcell", "C1"));

  IngestOptions opts;
  opts.num_shards = 4;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());

  // Bounded toggling: each toggle pays a full quiesce (gate + drain), so
  // an unbounded loop would throttle the producers to the toggle rate.
  std::thread toggler([&] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db.DeactivateClassTrigger("mcell", "C1").ok());
      ASSERT_TRUE(db.ActivateClassTrigger("mcell", "C1").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        for (Oid oid : oids) {
          ASSERT_TRUE(rt.Post(oid, "add", {Value(1)}).ok());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  toggler.join();
  ODE_ASSERT_OK(rt.Drain());
  ODE_ASSERT_OK(rt.Stop());

  // Every add was applied exactly once whatever the toggling did…
  int64_t total_v = 0;
  for (Oid oid : oids) {
    total_v += db.PeekAttr(oid, "v").value().AsInt().value();
  }
  EXPECT_EQ(total_v, static_cast<int64_t>(kObjects) * kProducers *
                         kPerProducer);
  // …and the trigger survived the churn in a consistent final state.
  EXPECT_TRUE(db.ClassTriggerActive("mcell", "C1").value());
  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.dead_lettered, 0u);
  EXPECT_EQ(m.sequencer.apply_errors, 0u);
}

// A poison add every kPoisonEvery events rolls its batch back, and the
// shard replays the batch one event per transaction. The class automata
// must see each committed add once and the poison never, exactly as the
// standalone oracle (one transaction per event) does. The runtime stops
// without a Drain: Stop itself must run every firing it decided.
TEST(SeqStressTest, BatchAbortMidwayMatchesOracle) {
  constexpr size_t kObjects = 16;
  constexpr size_t kEvents = 4000;
  constexpr size_t kPoisonEvery = 97;
  constexpr int kProducers = 4;
  std::vector<Post> work = MakeWorkload(kObjects, kEvents);
  uint64_t poisons = 0;
  for (size_t i = kPoisonEvery - 1; i < work.size(); i += kPoisonEvery) {
    work[i].delta = 0;
    ++poisons;
  }

  Totals oracle;
  {
    Database db;
    std::vector<Oid> oids = SetUpStress(&db, kObjects);
    for (const Post& p : work) {
      TxnId t = db.Begin().value();
      Result<Value> r = db.Call(t, oids[p.obj], "add", {Value(p.delta)});
      if (r.ok()) {
        ODE_ASSERT_OK(db.Commit(t));
      } else {
        // The aborting method rolled its transaction back.
        ASSERT_EQ(r.status().code(), StatusCode::kAborted);
      }
    }
    oracle = Sum(db, oids);
  }
  EXPECT_GT(oracle.c1, 0u);
  EXPECT_EQ(oracle.touches, static_cast<int64_t>(oracle.c1 + oracle.c2));

  Database db;
  std::vector<Oid> oids = SetUpStress(&db, kObjects);
  IngestOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 16;
  opts.queue_capacity = 128;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < work.size(); i += kProducers) {
        ASSERT_TRUE(
            rt.Post(oids[work[i].obj], "add", {Value(work[i].delta)}).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ODE_ASSERT_OK(rt.Stop());

  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_GT(m.total.aborted, 0u);
  EXPECT_EQ(m.total.dead_lettered, poisons);
  EXPECT_EQ(m.sequencer.apply_errors, 0u);
  Totals got = Sum(db, oids);
  EXPECT_EQ(got.c1, oracle.c1);
  EXPECT_EQ(got.c2, oracle.c2);
  EXPECT_EQ(got.touches, oracle.touches);
  EXPECT_EQ(got.v, oracle.v);
}

/// `echo` posts a `note` on the object whose add completed a CT cycle;
/// NT counts every note in `touches`.
Status EchoAction(const ActionContext& ctx) {
  return ctx.db->Call(ctx.txn, ctx.self, "note", {Value(1)}).status();
}

std::vector<Oid> SetUpEcho(Database* db, size_t objects) {
  ClassDef def("ecell");
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
                          {{"int", "n"}},
                          MethodKind::kUpdate,
                          [](MethodContext*) { return Status::OK(); }});
  def.AddTrigger("CT(): perpetual every 3 (after add) ==> echo");
  def.AddTrigger("NT(): perpetual after note ==> count");
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterAction("echo", EchoAction).ok());
  EXPECT_TRUE(db->RegisterClass(std::move(def)).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < objects; ++i) {
    oids.push_back(db->New(t, "ecell").value());
  }
  EXPECT_TRUE(db->Commit(t).ok());
  EXPECT_TRUE(db->ActivateClassTrigger("ecell", "CT").ok());
  EXPECT_TRUE(db->ActivateClassTrigger("ecell", "NT").ok());
  return oids;
}

// Events a class action posts publish on its shard's firing lane and feed
// the class automata like any other: every CT firing echoes one note, and
// NT fires once per note, as in the standalone oracle.
TEST(SeqStressTest, ActionPostedEventsMatchOracle) {
  constexpr size_t kObjects = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  constexpr int64_t kAdds = kProducers * kPerProducer;

  int64_t oracle_touches = 0;
  {
    Database db;
    std::vector<Oid> oids = SetUpEcho(&db, kObjects);
    for (int64_t i = 0; i < kAdds; ++i) {
      TxnId t = db.Begin().value();
      ODE_ASSERT_OK(db.Call(t, oids[i % kObjects], "add", {Value(1)}).status());
      ODE_ASSERT_OK(db.Commit(t));
    }
    EXPECT_EQ(db.ClassFireCount("ecell", "CT"), kAdds / 3);
    EXPECT_EQ(db.ClassFireCount("ecell", "NT"), kAdds / 3);
    for (Oid oid : oids) {
      oracle_touches += db.PeekAttr(oid, "touches").value().AsInt().value();
    }
  }
  EXPECT_EQ(oracle_touches, kAdds / 3);

  Database db;
  std::vector<Oid> oids = SetUpEcho(&db, kObjects);
  IngestOptions opts;
  opts.num_shards = 4;
  IngestRuntime rt(&db, opts);
  ODE_ASSERT_OK(rt.Start());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Oid oid = oids[(p * kPerProducer + i) % kObjects];
        ASSERT_TRUE(rt.Post(oid, "add", {Value(1)}).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ODE_ASSERT_OK(rt.Drain());
  EXPECT_EQ(db.ClassFireCount("ecell", "CT"), kAdds / 3);
  EXPECT_EQ(db.ClassFireCount("ecell", "NT"), kAdds / 3);
  int64_t touches = 0;
  for (Oid oid : oids) {
    touches += db.PeekAttr(oid, "touches").value().AsInt().value();
  }
  EXPECT_EQ(touches, oracle_touches);
  RuntimeMetricsSnapshot m = rt.Metrics();
  EXPECT_EQ(m.total.dead_lettered, 0u);
  EXPECT_EQ(m.sequencer.apply_errors, 0u);
  // The notes entered through the shards' firing lanes, never a user lane.
  uint64_t firing_lane_seqs = 0;
  for (size_t i = 0; i < opts.num_shards; ++i) {
    firing_lane_seqs += m.sequencer.lane_watermark[opts.num_shards + i];
  }
  EXPECT_EQ(firing_lane_seqs, static_cast<uint64_t>(kAdds / 3));
  ODE_ASSERT_OK(rt.Stop());
}

// A class action whose note fires the same trigger again cascades through
// the sequencer, one shard transaction per hop. The §5 posting-depth bound
// holds across the hops: the action at the bound fails and is counted, and
// the cascade ends instead of spinning the runtime.
TEST(SeqStressTest, ClassCascadeKeepsTheDepthBound) {
  ClassDef def("loop");
  def.AddMethod(MethodDef{"note",
                          {{"int", "n"}},
                          MethodKind::kUpdate,
                          [](MethodContext*) { return Status::OK(); }});
  def.AddTrigger("NT(): perpetual after note ==> echo");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction("echo", EchoAction));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid oid = db.New(t, "loop").value();
  ODE_ASSERT_OK(db.Commit(t));
  ODE_ASSERT_OK(db.ActivateClassTrigger("loop", "NT"));

  IngestRuntime rt(&db, IngestOptions{});
  ODE_ASSERT_OK(rt.Start());
  ODE_ASSERT_OK(rt.Post(oid, "note", {Value(1)}));
  ODE_ASSERT_OK(rt.Drain());
  EXPECT_EQ(db.ClassFireCount("loop", "NT"),
            static_cast<uint64_t>(db.options().max_posting_depth));
  EXPECT_EQ(rt.Metrics().sequencer.apply_errors, 1u);
  ODE_ASSERT_OK(rt.Stop());
}

}  // namespace
}  // namespace ode
