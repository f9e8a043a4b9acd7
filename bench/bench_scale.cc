// Experiment E14: scaling with object and trigger population. The §5
// design shares one transition table per (class, trigger) and keeps one
// integer per active (object, trigger) pair, so posting throughput should
// be flat in the number of *objects* and linear only in the number of
// *active triggers on the posted-to object*.
#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "common/strutil.h"
#include "compile/combined.h"
#include "ode/database.h"

namespace ode {
namespace {

ClassDef ScaleClass(int num_triggers) {
  ClassDef def("scale");
  def.AddAttr("n", Value(0));
  def.AddMethod(MethodDef{"bump", {}, MethodKind::kUpdate, nullptr});
  for (int i = 0; i < num_triggers; ++i) {
    // Distinct automata so no sharing shortcut is possible across triggers.
    def.AddTrigger(
        StrFormat("T%d(): perpetual choose %d (after bump) ==> noop", i,
                  1000 + i),
        HistoryView::kFull, /*auto_activate=*/true);
  }
  return def;
}

void BM_PostWithTriggers(benchmark::State& state) {
  const int num_triggers = static_cast<int>(state.range(0));
  DatabaseOptions opts;
  opts.record_histories = false;
  Database db(opts);
  (void)db.RegisterAction("noop", [](const ActionContext&) -> Status {
    return Status::OK();
  });
  if (!db.RegisterClass(ScaleClass(num_triggers)).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  TxnId t = db.Begin().value();
  Oid obj = db.New(t, "scale").value();

  // One long transaction: measure pure posting cost per method call.
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Call(t, obj, "bump"));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["triggers"] = num_triggers;
}
BENCHMARK(BM_PostWithTriggers)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_PostManyObjects(benchmark::State& state) {
  // Population size must not affect per-post cost (state is per-object,
  // tables shared).
  const int num_objects = static_cast<int>(state.range(0));
  DatabaseOptions opts;
  opts.record_histories = false;
  Database db(opts);
  (void)db.RegisterAction("noop", [](const ActionContext&) -> Status {
    return Status::OK();
  });
  if (!db.RegisterClass(ScaleClass(4)).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  TxnId t = db.Begin().value();
  std::vector<Oid> objects;
  objects.reserve(num_objects);
  for (int i = 0; i < num_objects; ++i) {
    objects.push_back(db.New(t, "scale").value());
  }

  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Call(t, objects[next], "bump"));
    next = (next + 1) % objects.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["objects"] = num_objects;
  // Shared table storage is independent of the object count; per-object
  // monitoring state is 4 triggers x 4 bytes.
  state.counters["per_object_bytes"] = 4.0 * sizeof(int32_t);
}
BENCHMARK(BM_PostManyObjects)->Arg(1)->Arg(64)->Arg(4096);

// §5 footnote-5 ablation: K triggers monitored by one combined product
// automaton (one step/event) vs. K separate automata (K steps/event).
std::vector<TriggerSpec> GroupSpecs(int k) {
  std::vector<TriggerSpec> specs;
  for (int i = 0; i < k; ++i) {
    Result<TriggerSpec> spec = ParseTriggerSpec(StrFormat(
        "T%d(): perpetual every %d (after f | before g)", i, i + 2));
    specs.push_back(*spec);
  }
  return specs;
}

void BM_DetectSeparate(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  CombinedProgram::Options opts;
  CombinedProgram combined =
      CombinedProgram::Build(GroupSpecs(k), opts).value();
  std::mt19937 rng(3);
  std::vector<SymbolId> history(512);
  for (SymbolId& s : history) {
    s = static_cast<SymbolId>(rng() % combined.alphabet().size());
  }
  const std::vector<Dfa>& dfas = combined.component_dfas();
  for (auto _ : state) {
    std::vector<Dfa::State> states(dfas.size());
    for (size_t i = 0; i < dfas.size(); ++i) states[i] = dfas[i].start();
    int fires = 0;
    for (SymbolId sym : history) {
      for (size_t i = 0; i < dfas.size(); ++i) {
        states[i] = dfas[i].Step(states[i], sym);
        fires += dfas[i].accepting(states[i]) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  size_t bytes = 0;
  for (const Dfa& d : dfas) bytes += d.TableBytes();
  state.counters["triggers"] = k;
  state.counters["table_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DetectSeparate)->Arg(2)->Arg(4)->Arg(8);

void BM_DetectCombined(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  CombinedProgram::Options opts;
  CombinedProgram combined =
      CombinedProgram::Build(GroupSpecs(k), opts).value();
  std::mt19937 rng(3);
  std::vector<SymbolId> history(512);
  for (SymbolId& s : history) {
    s = static_cast<SymbolId>(rng() % combined.alphabet().size());
  }
  for (auto _ : state) {
    Dfa::State s = combined.dfa().start();
    int fires = 0;
    for (SymbolId sym : history) {
      s = combined.dfa().Step(s, sym);
      fires += __builtin_popcountll(combined.AcceptMask(s));
    }
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.counters["triggers"] = k;
  state.counters["product_states"] =
      static_cast<double>(combined.dfa().num_states());
  state.counters["table_bytes"] =
      static_cast<double>(combined.CombinedTableBytes());
}
BENCHMARK(BM_DetectCombined)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace ode
