// Experiment E3: the paper's §5 efficiency claim. Event detection with the
// compiled DFA costs one table lookup per posted event, independent of
// history length; the naive §4 re-evaluation grows with the history; the
// Snoop-style tree accumulates instances. Reported as ns per event over a
// fixed-length history.
#include <benchmark/benchmark.h>

#include <random>

#include "baseline/naive_detector.h"
#include "baseline/tree_detector.h"
#include "bench_util.h"
#include "ode/database.h"

namespace ode {
namespace {

using bench_util::CompileNamed;
using bench_util::ExpressionSuite;
using bench_util::MakeHistory;

void BM_DfaDetect(benchmark::State& state) {
  const int expr_idx = static_cast<int>(state.range(0));
  const size_t history_len = static_cast<size_t>(state.range(1));
  CompiledEvent compiled = CompileNamed(expr_idx);
  std::vector<SymbolId> history =
      MakeHistory(compiled.alphabet.size(), history_len, 42);

  for (auto _ : state) {
    Dfa::State s = compiled.dfa.start();
    int fires = 0;
    for (SymbolId sym : history) {
      s = compiled.dfa.Step(s, sym);
      fires += compiled.dfa.accepting(s) ? 1 : 0;
    }
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(history_len));
  state.SetLabel(ExpressionSuite()[expr_idx].name);
  state.counters["dfa_states"] =
      static_cast<double>(compiled.dfa.num_states());
}

void BM_NaiveDetect(benchmark::State& state) {
  const int expr_idx = static_cast<int>(state.range(0));
  const size_t history_len = static_cast<size_t>(state.range(1));
  EventExprPtr expr =
      ParseEvent(ExpressionSuite()[expr_idx].text).value();
  CompiledEvent compiled = CompileNamed(expr_idx);
  std::vector<SymbolId> history =
      MakeHistory(compiled.alphabet.size(), history_len, 42);

  for (auto _ : state) {
    NaiveDetector naive(expr, &compiled.alphabet);
    int fires = 0;
    for (SymbolId sym : history) {
      Result<bool> r = naive.Advance(sym);
      fires += (r.ok() && *r) ? 1 : 0;
    }
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(history_len));
  state.SetLabel(ExpressionSuite()[expr_idx].name);
}

void BM_TreeDetect(benchmark::State& state) {
  const int expr_idx = static_cast<int>(state.range(0));
  const size_t history_len = static_cast<size_t>(state.range(1));
  EventExprPtr expr =
      ParseEvent(ExpressionSuite()[expr_idx].text).value();
  CompiledEvent compiled = CompileNamed(expr_idx);
  std::vector<SymbolId> history =
      MakeHistory(compiled.alphabet.size(), history_len, 42);
  TreeDetector::Options opts;
  opts.max_instances = 1 << 24;

  size_t final_instances = 0;
  for (auto _ : state) {
    auto tree = TreeDetector::Create(expr, &compiled.alphabet, opts).value();
    int fires = 0;
    for (SymbolId sym : history) {
      Result<bool> r = tree->Advance(sym);
      if (!r.ok()) break;
      fires += *r ? 1 : 0;
    }
    final_instances = tree->NumInstances();
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(history_len));
  state.SetLabel(ExpressionSuite()[expr_idx].name);
  state.counters["instances"] = static_cast<double>(final_instances);
}

void DetectionArgs(benchmark::internal::Benchmark* b) {
  for (int expr : {0, 3, 5, 9, 11}) {
    for (int len : {64, 256, 1024}) {
      b->Args({expr, len});
    }
  }
}

// The naive detector is quadratic-ish; keep its histories shorter.
void NaiveArgs(benchmark::internal::Benchmark* b) {
  for (int expr : {0, 3, 5, 9, 11}) {
    for (int len : {64, 256}) {
      b->Args({expr, len});
    }
  }
}

BENCHMARK(BM_DfaDetect)->Apply(DetectionArgs);
BENCHMARK(BM_NaiveDetect)->Apply(NaiveArgs);
BENCHMARK(BM_TreeDetect)->Apply(NaiveArgs);

// Gated-subevent ablation: per-event cost with 0..3 gates (each gate is
// one extra sub-DFA step plus a mask evaluation when its automaton
// accepts; here the mask outcome is a constant, isolating the mechanism).
void BM_GatedDetect(benchmark::State& state) {
  const int gates = static_cast<int>(state.range(0));
  std::string text = "relative(after x, after y)";
  const char* gated_parts[] = {
      "fa((after a | after x) && m1, after y, after a)",
      "fa((after b | after y) && m2, after x, after b)",
      "fa((after c | after x) && m3, after y, after c)"};
  for (int g = 0; g < gates; ++g) {
    text += " | ";
    text += gated_parts[g];
  }
  EventExprPtr expr = ParseEvent(text).value();
  CompiledEvent compiled = CompileEvent(expr, CompileOptions()).value();
  std::vector<SymbolId> history =
      MakeHistory(compiled.alphabet.size(), 512, 11);

  for (auto _ : state) {
    Dfa::State s = compiled.dfa.start();
    std::vector<int32_t> gate_states(compiled.gates.size());
    for (size_t g = 0; g < compiled.gates.size(); ++g) {
      gate_states[g] = compiled.gates[g].dfa.start();
    }
    int fires = 0;
    for (SymbolId sym : history) {
      uint32_t bits = 0;
      for (size_t g = 0; g < compiled.gates.size(); ++g) {
        SymbolId ext = compiled.ExtendSymbol(sym, bits);
        gate_states[g] = compiled.gates[g].dfa.Step(gate_states[g], ext);
        if (compiled.gates[g].dfa.accepting(gate_states[g])) {
          bits |= (1u << g);  // Mask constantly true.
        }
      }
      s = compiled.dfa.Step(s, compiled.ExtendSymbol(sym, bits));
      fires += compiled.dfa.accepting(s) ? 1 : 0;
    }
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.counters["gates"] = gates;
  state.counters["ext_alphabet"] =
      static_cast<double>(compiled.extended_alphabet_size());
}
BENCHMARK(BM_GatedDetect)->DenseRange(0, 3);

// The product's posting path against the table step above: Database::Call
// with deposit/withdraw/audit on 1,024 objects, 64 calls per transaction,
// with 0, 1 or 8 active triggers (8 = perfbench's rules_mem rulebase, 1 =
// its guard). A call posts about nine basic events (method, access,
// update/read, and the transaction markers); the per-trigger counter
// divides the whole cost by postings × active triggers, and the marginal
// detection cost is the 8-trigger row minus the 0-trigger row.
void BM_EnginePost(benchmark::State& state) {
  static const char* const kRules[] = {
      "Guard(): perpetual before withdraw(q, t) && q > bal ==> tabort",
      "BigWithdraw(): perpetual after withdraw(q, t) && q > 120 ==> bump",
      "SmallDeposit(): perpetual after deposit(q, t) && !(q > 20) ==> bump",
      "FifthDeposit(): perpetual every 5 (after deposit) ==> bump",
      "FourthWithdraw(): perpetual every 4 (after withdraw) ==> bump",
      "WithdrawAfterAudit(): perpetual "
      "fa(after audit, after withdraw, after deposit) ==> bump",
      "BigDepositAfterWithdraw(): perpetual "
      "fa(after withdraw, (after deposit(q, t) && q > 150), after audit) "
      "==> bump",
      "AuditAfterBigDeposit(): perpetual "
      "prior((after deposit(q, t) && q > 100), after audit) ==> bump",
  };
  const size_t active = static_cast<size_t>(state.range(0));
  constexpr size_t kObjects = 1024;
  constexpr size_t kCallsPerTxn = 64;

  Database db;
  (void)db.RegisterAction("bump", [](const ActionContext& ctx) -> Status {
    ODE_ASSIGN_OR_RETURN(Value n, ctx.db->PeekAttr(ctx.self, "fired"));
    ODE_ASSIGN_OR_RETURN(Value next, n.Add(Value(1)));
    return ctx.db->SetAttr(ctx.txn, ctx.self, "fired", next);
  });
  ClassDef def("account");
  def.AddAttr("bal", Value(int64_t{1000000000}));
  def.AddAttr("fired", Value(0));
  auto add = [](MethodContext* ctx, bool subtract) -> Status {
    ODE_ASSIGN_OR_RETURN(Value bal, ctx->Get("bal"));
    ODE_ASSIGN_OR_RETURN(Value q, ctx->Arg("q"));
    ODE_ASSIGN_OR_RETURN(Value next, subtract ? bal.Sub(q) : bal.Add(q));
    return ctx->Set("bal", next);
  };
  def.AddMethod(MethodDef{"deposit", {{"int", "q"}, {"int", "t"}},
                          MethodKind::kUpdate,
                          [&](MethodContext* ctx) { return add(ctx, false); }});
  def.AddMethod(MethodDef{"withdraw", {{"int", "q"}, {"int", "t"}},
                          MethodKind::kUpdate,
                          [&](MethodContext* ctx) { return add(ctx, true); }});
  def.AddMethod(MethodDef{"audit", {{"int", "t"}}, MethodKind::kReadOnly,
                          [](MethodContext* ctx) -> Status {
                            ODE_ASSIGN_OR_RETURN(Value bal, ctx->Get("bal"));
                            ctx->SetResult(bal);
                            return Status::OK();
                          }});
  for (const char* rule : kRules) def.AddTrigger(rule, HistoryView::kCommitted);
  if (!db.RegisterClass(std::move(def)).ok()) {
    state.SkipWithError("RegisterClass failed");
    return;
  }
  std::vector<Oid> oids;
  TxnId setup = db.Begin().value();
  for (size_t i = 0; i < kObjects; ++i) {
    Oid oid = db.New(setup, "account").value();
    for (size_t r = 0; r < active; ++r) {
      std::string name(kRules[r], std::string_view(kRules[r]).find('('));
      (void)db.ActivateTrigger(setup, oid, name);
    }
    oids.push_back(oid);
  }
  (void)db.Commit(setup);

  // 45% deposits, 45% withdrawals, 10% audits, amounts 1..200.
  struct Op {
    size_t obj;
    const char* method;
    int64_t q;
  };
  std::mt19937_64 rng(7);
  std::vector<Op> ops(kCallsPerTxn * 256);
  for (Op& op : ops) {
    op.obj = rng() % kObjects;
    const uint64_t r = rng() % 100;
    op.method = r < 45 ? "deposit" : r < 90 ? "withdraw" : "audit";
    op.q = 1 + static_cast<int64_t>(rng() % 200);
  }

  size_t next = 0;
  int64_t t = 0;
  const uint64_t posted0 = db.stats().events_posted.load();
  for (auto _ : state) {
    TxnId txn = db.Begin().value();
    for (size_t c = 0; c < kCallsPerTxn; ++c) {
      const Op& op = ops[next];
      next = (next + 1) % ops.size();
      std::vector<Value> args;
      if (op.method[0] != 'a') args.push_back(Value(op.q));
      args.push_back(Value(++t));
      benchmark::DoNotOptimize(db.Call(txn, oids[op.obj], op.method,
                                       std::move(args)));
    }
    (void)db.Commit(txn);
    db.txns().GarbageCollect();
  }
  const double postings =
      static_cast<double>(db.stats().events_posted.load() - posted0);
  // Inverted rates: seconds per posting (printed with an SI prefix, e.g.
  // "290ns").
  const auto kPer = benchmark::Counter::kIsRate | benchmark::Counter::kInvert;
  state.counters["per_posting"] = benchmark::Counter(postings, kPer);
  if (active > 0) {
    state.counters["per_posting_per_trigger"] =
        benchmark::Counter(postings * static_cast<double>(active), kPer);
  }
  state.counters["postings_per_call"] =
      postings / (static_cast<double>(state.iterations()) * kCallsPerTxn);
  state.counters["active_triggers"] = static_cast<double>(active);
}
BENCHMARK(BM_EnginePost)->Arg(0)->Arg(1)->Arg(8);

}  // namespace
}  // namespace ode
