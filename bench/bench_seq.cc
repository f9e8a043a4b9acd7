// Class-scope sequencer throughput (§9, docs/SEQUENCER.md): events/sec
// through the sharded runtime with ONE active class-scope trigger, as a
// function of shard count (1/2/4/8). Every post flows through the merge
// stage, so this measures the sequencer as a pipeline stage: shards do
// the per-object work and mask classification in parallel, the dedicated
// merge thread advances the shared automaton, and each firing's action
// runs back on the shard that owns its object.
//
// run_ingest_bench.sh records this as BENCH_seq.json and gates the
// 4-shard / 1-shard ratio (>= 2x on hosts with >= 4 CPUs).
#include <benchmark/benchmark.h>

#include <vector>

#include "ode/database.h"
#include "runtime/ingest_runtime.h"

namespace ode {
namespace {

using runtime::IngestOptions;
using runtime::IngestRuntime;

constexpr size_t kObjects = 16;
constexpr int kEventsPerIter = 4096;

// A counting class-scope trigger over the merged stream of every
// instance's `add`s. every-64 keeps the firing (a system transaction on
// the owning shard) off the hot path so the steady-state cost measured is
// classification + publish + merge + DFA step.
ClassDef SeqBenchClass() {
  ClassDef def("seqcell");
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
  def.AddTrigger("CT(): perpetual every 64 (after add) ==> count");
  def.SetPostingPolicy(EventPostingPolicy{
      /*method_events=*/true, /*access_events=*/false,
      /*read_update_events=*/false});
  return def;
}

std::vector<Oid> SetupSeq(Database* db) {
  (void)db->RegisterAction("count", [](const ActionContext& ctx) -> Status {
    Result<Value> t = ctx.db->PeekAttr(ctx.self, "touches");
    if (!t.ok()) return t.status();
    Result<Value> next = t->Add(Value(1));
    if (!next.ok()) return next.status();
    return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", *next);
  });
  (void)db->RegisterClass(SeqBenchClass());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < kObjects; ++i) {
    oids.push_back(db->New(t, "seqcell").value());
  }
  (void)db->Commit(t);
  (void)db->ActivateClassTrigger("seqcell", "CT");
  return oids;
}

/// The sequencer pipeline: shards classify + publish, one merge thread
/// advances the class automaton in deterministic order.
void BM_SeqClassScope(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  Database db;
  std::vector<Oid> oids = SetupSeq(&db);
  IngestOptions opts;
  opts.num_shards = shards;
  opts.max_batch = 128;
  opts.queue_capacity = 4096;
  opts.record_latency = false;
  IngestRuntime rt(&db, opts);
  (void)rt.Start();
  size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEventsPerIter; ++i) {
      (void)rt.Post(oids[next++ % kObjects], "add", {Value(1)});
    }
    (void)rt.Drain();  // Includes the sequencer's apply barrier.
  }
  state.SetItemsProcessed(state.iterations() * kEventsPerIter);
  state.counters["shards"] = static_cast<double>(shards);
  seq::SequencerMetricsSnapshot m = rt.sequencer()->Metrics();
  state.counters["seq_published"] = static_cast<double>(m.published);
  state.counters["seq_queue_hw"] = static_cast<double>(m.queue_high_water);
  (void)rt.Stop();
}
BENCHMARK(BM_SeqClassScope)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace ode
