// The compiled posting dispatch (compile/dispatch.h) against the reference
// classifier. Random rulebases run through Database::Call/Commit/Abort with
// histories recorded; then
//   - every full-view trigger must have fired exactly where its automaton,
//     run over the recorded history as classified by Alphabet::Classify
//     (masks bound by name), accepts;
//   - every committed-view trigger's state must be back at its
//     pre-transaction value after each abort (stepped once more by the
//     `after tabort` posting the abort epilogue makes).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "mask/mask_eval.h"
#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

/// The reference binding of a basic-event mask (§3.2), by name: the atom's
/// formal parameters positionally, the event's argument names, the
/// trigger's parameters, the object's attributes.
class ReferenceEnv : public MaskEnv {
 public:
  ReferenceEnv(const PostedEvent* event, const std::vector<ParamDecl>* formals,
               const std::map<std::string, Value>* params, const Object* self)
      : event_(event), formals_(formals), params_(params), self_(self) {}

  Result<Value> Lookup(std::string_view name) const override {
    if (event_ != nullptr && formals_ != nullptr) {
      for (size_t i = 0; i < formals_->size(); ++i) {
        if ((*formals_)[i].name != name) continue;
        if (i >= event_->args.size()) {
          return Status::InvalidArgument("missing positional argument");
        }
        return event_->args[i].value;
      }
    }
    if (event_ != nullptr) {
      if (const Value* arg = event_->FindArg(name)) return *arg;
    }
    auto it = params_->find(std::string(name));
    if (it != params_->end()) return it->second;
    return self_->GetAttr(name);
  }
  Result<Value> Member(const Value&, std::string_view) const override {
    return Status::Unimplemented("no member access in these rulebases");
  }
  Result<Value> Call(std::string_view,
                     const std::vector<Value>&) const override {
    return Status::Unimplemented("no host functions in these rulebases");
  }

 private:
  const PostedEvent* event_;
  const std::vector<ParamDecl>* formals_;
  const std::map<std::string, Value>* params_;
  const Object* self_;
};

/// A reference run of one program: base symbol by Alphabet::Classify, gate
/// bits and composite masks as §7/§3.3 define them.
class ReferenceRun {
 public:
  ReferenceRun(const TriggerProgram& program,
               std::map<std::string, Value> params, const Object* self)
      : program_(program), params_(std::move(params)), self_(self) {
    state_ = program.ActiveDfa().start();
    for (const GateDef& gate : program.event.gates) {
      gate_states_.push_back(gate.dfa.start());
    }
  }

  int32_t state() const { return state_; }
  void set_state(int32_t s) { state_ = s; }

  /// Steps over `event`; true when the trigger's event occurs there.
  bool Step(const PostedEvent& event) {
    Result<SymbolId> base = program_.event.alphabet.Classify(
        event, [&](const MaskSlot& slot, const PostedEvent& ev) {
          ReferenceEnv env(&ev, &slot.params, &params_, self_);
          return EvalMaskBool(*slot.mask, env);
        });
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    ReferenceEnv state_env(nullptr, nullptr, &params_, self_);
    uint32_t bits = 0;
    for (size_t g = 0; g < gate_states_.size(); ++g) {
      const GateDef& gate = program_.event.gates[g];
      gate_states_[g] = gate.dfa.Step(
          gate_states_[g], program_.event.ExtendSymbol(*base, bits));
      if (gate.dfa.accepting(gate_states_[g]) &&
          EvalMaskBool(*gate.mask, state_env).value()) {
        bits |= 1u << g;
      }
    }
    const Dfa& dfa = program_.ActiveDfa();
    state_ = dfa.Step(state_, program_.event.ExtendSymbol(*base, bits));
    if (!dfa.accepting(state_)) return false;
    for (const MaskExprPtr& mask : program_.event.composite_masks) {
      if (!EvalMaskBool(*mask, state_env).value()) return false;
    }
    return true;
  }

 private:
  const TriggerProgram& program_;
  std::map<std::string, Value> params_;
  const Object* self_;
  int32_t state_ = 0;
  std::vector<int32_t> gate_states_;
};

/// Atoms over the class below. `dep` comes bare or with a declared arity
/// (2 matches its postings, 1 never does); the masks read positional
/// parameters, event-argument names, the activation parameter `p` and the
/// attribute `lim`.
const char* const kBareAtoms[] = {
    "after dep", "before dep", "after dep && q > 120", "after wd",
    "before wd && q > lim", "after wd (a, b) && a > p", "after peek",
    "after ping", "after access", "before access", "after update",
    "before update", "after read", "after tbegin", "before tcomplete",
    "after tcommit", "after tabort", "before tabort"};
const char* const kArityAtoms[] = {
    "after dep (a, b)", "after dep (a, b) && a > 60", "after dep (a)",
    "before dep (a, b) && b > p", "after wd", "after peek (x) && x > lim",
    "after tcommit", "after update"};

template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

std::string RandomExpr(std::mt19937_64& rng, bool arity, int depth) {
  auto atom = [&]() -> std::string {
    if (arity) return kArityAtoms[rng() % std::size(kArityAtoms)];
    return kBareAtoms[rng() % std::size(kBareAtoms)];
  };
  if (depth == 0 || rng() % 3 == 0) return Cat("(", atom(), ")");
  auto sub = [&]() { return RandomExpr(rng, arity, depth - 1); };
  switch (rng() % 7) {
    case 0: return Cat("(", sub(), " ; ", sub(), ")");
    case 1: return Cat("relative(", sub(), ", ", sub(), ")");
    case 2:
      return Cat("every ", std::to_string(2 + rng() % 3), " (", sub(), ")");
    case 3: return Cat("fa(", sub(), ", ", sub(), ", ", sub(), ")");
    case 4: return Cat("prior(", sub(), ", ", sub(), ")");
    case 5: return Cat("!", sub());
    default: return Cat("(", sub(), " | ", sub(), ")");
  }
}

struct Rule {
  std::string name;
  HistoryView view;
};

struct Firing {
  Oid oid;
  std::string trigger;
  uint64_t seq;
};

Status AddOne(MethodContext* ctx) {
  ODE_ASSIGN_OR_RETURN(Value n, ctx->Get("n"));
  ODE_ASSIGN_OR_RETURN(Value next, n.Add(Value(1)));
  return ctx->Set("n", next);
}

class DispatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DispatchPropertyTest, MatchesReferenceClassifier) {
  std::mt19937_64 rng(GetParam());
  DatabaseOptions options;
  options.record_histories = true;
  Database db(options);
  std::vector<Firing> log;
  ODE_ASSERT_OK(db.RegisterAction("log", [&](const ActionContext& ctx) {
    log.push_back({ctx.self, ctx.trigger_name, ctx.event->seq});
    return Status::OK();
  }));

  ClassDef def("acct");
  def.AddAttr("lim", Value(0));
  def.AddAttr("n", Value(0));
  def.AddMethod(MethodDef{"dep", {{"int", "q"}, {"int", "t"}},
                          MethodKind::kUpdate, AddOne});
  def.AddMethod(MethodDef{"wd", {{"int", "q"}, {"int", "t"}},
                          MethodKind::kUpdate, AddOne});
  def.AddMethod(MethodDef{"peek", {{"int", "t"}}, MethodKind::kReadOnly,
                          nullptr});
  def.AddMethod(MethodDef{"ping", {}, MethodKind::kUpdate, nullptr});
  // A second `dep` overload: interned apart, never the one Call runs.
  def.AddMethod(MethodDef{"dep", {{"int", "q"}}, MethodKind::kUpdate,
                          nullptr});

  std::vector<Rule> rules;
  auto add_rule = [&](const std::string& body, HistoryView view,
                      const std::string& action = "log") {
    const std::string name = Cat("T", std::to_string(rules.size()));
    const std::string text =
        Cat(name, "(int p): perpetual ", body, " ==> ", action);
    if (!CompileTriggerText(text, view).ok()) return;
    def.AddTrigger(text, view);
    rules.push_back({name, view});
  };
  // A rule that fired on `before tcomplete` could keep the commit's §6
  // fixpoint from quiescing; `& !(before tcomplete)` keeps it from firing
  // there while the postings still move its automaton.
  for (int i = 0; i < 10; ++i) {
    add_rule(Cat("(", RandomExpr(rng, rng() % 3 == 0, 2),
                 ") & !(before tcomplete)"),
             rng() % 2 ? HistoryView::kFull : HistoryView::kCommitted);
  }
  // One gate (a masked composite under another operator) and one root
  // composite mask, both reading the attribute and the parameter.
  add_rule("relative((after dep ; after wd) && lim > p, after peek)",
           HistoryView::kFull);
  add_rule("(relative(after dep, after wd)) && lim > 100", HistoryView::kFull);
  add_rule("(relative(after wd, every 2 (after dep))) && lim > p",
           HistoryView::kCommitted);
  // Last, so a guard abort drops no other slot's firing: guard aborts run
  // the abort path from inside a posting.
  add_rule("after wd (a, b) && a > 190", HistoryView::kFull, "tabort");
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  const RegisteredClass* cls = db.classes().Find("acct");

  // Objects with a constant `lim`, every rule armed with its own `p`.
  constexpr int kObjects = 3;
  std::vector<Oid> oids;
  std::map<std::pair<uint64_t, std::string>, std::map<std::string, Value>>
      params;
  size_t start = 0;  // History position from which the rules observe.
  {
    TxnId txn = db.Begin().value();
    for (int i = 0; i < kObjects; ++i) {
      Result<Oid> oid =
          db.New(txn, "acct", {{"lim", Value(int64_t(rng() % 200))}});
      ODE_ASSERT_OK(oid.status());
      for (const Rule& rule : rules) {
        const Value p(int64_t(rng() % 200));
        ODE_ASSERT_OK(db.ActivateTrigger(txn, *oid, rule.name, {p}));
        params[{oid->id, rule.name}] = {{"p", p}};
      }
      start = db.history(*oid)->size();
      oids.push_back(*oid);
    }
    ODE_ASSERT_OK(db.Commit(txn));
  }

  // Committed-view trigger states, checked against each abort.
  auto committed_states = [&]() {
    std::map<std::pair<uint64_t, std::string>, int32_t> out;
    for (Oid oid : oids) {
      for (const Rule& rule : rules) {
        if (rule.view != HistoryView::kCommitted) continue;
        out[{oid.id, rule.name}] = db.TriggerState(oid, rule.name).value();
      }
    }
    return out;
  };
  int64_t t = 0;
  int aborts = 0;
  for (int round = 0; round < 60; ++round) {
    const auto before = committed_states();
    TxnId txn = db.Begin().value();
    std::vector<bool> touched(kObjects, false);
    bool aborted = false;
    const int calls = 1 + static_cast<int>(rng() % 6);
    for (int c = 0; c < calls && !aborted; ++c) {
      const size_t o = rng() % kObjects;
      touched[o] = true;
      const int64_t q = 1 + static_cast<int64_t>(rng() % 200);
      Result<Value> r = Value();
      switch (rng() % 4) {
        case 0: r = db.Call(txn, oids[o], "dep", {Value(q), Value(++t)}); break;
        case 1: r = db.Call(txn, oids[o], "wd", {Value(q), Value(++t)}); break;
        case 2: r = db.Call(txn, oids[o], "peek", {Value(q)}); break;
        default: r = db.Call(txn, oids[o], "ping"); break;
      }
      if (r.status().code() == StatusCode::kAborted) {
        aborted = true;
      } else {
        ODE_ASSERT_OK(r.status());
      }
    }
    if (!aborted) {
      if (rng() % 10 < 3) {
        ODE_ASSERT_OK(db.Abort(txn));
        aborted = true;
      } else {
        ODE_ASSERT_OK(db.Commit(txn));
      }
    }
    if (!aborted) continue;
    ++aborts;
    for (size_t o = 0; o < oids.size(); ++o) {
      const Object* obj = db.object(oids[o]);
      for (const Rule& rule : rules) {
        if (rule.view != HistoryView::kCommitted) continue;
        int32_t expected = before.at({oids[o].id, rule.name});
        if (touched[o]) {
          ReferenceRun ref(*cls->FindTrigger(rule.name),
                           params[{oids[o].id, rule.name}], obj);
          ref.set_state(expected);
          ref.Step(db.history(oids[o])->events().back());
          expected = ref.state();
        }
        EXPECT_EQ(db.TriggerState(oids[o], rule.name).value(), expected)
            << rule.name << " on object " << o << " after abort in round "
            << round;
      }
    }
  }
  EXPECT_GT(aborts, 0);

  // Full-view triggers: firing positions against the reference run.
  for (Oid oid : oids) {
    const std::vector<PostedEvent>& history = db.history(oid)->events();
    for (const Rule& rule : rules) {
      if (rule.view != HistoryView::kFull) continue;
      const TriggerProgram& program = *cls->FindTrigger(rule.name);
      ReferenceRun ref(program, params[{oid.id, rule.name}], db.object(oid));
      std::vector<uint64_t> expected;
      for (size_t i = start; i < history.size(); ++i) {
        if (ref.Step(history[i])) expected.push_back(history[i].seq);
      }
      std::vector<uint64_t> actual;
      for (const Firing& f : log) {
        if (f.oid == oid && f.trigger == rule.name) actual.push_back(f.seq);
      }
      if (program.spec.action == "tabort") {
        EXPECT_EQ(db.FireCount(oid, rule.name), expected.size()) << rule.name;
      } else {
        EXPECT_EQ(actual, expected)
            << rule.name << ": " << program.spec.event->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace ode
