// Tests for the §9 future-work extensions this library implements:
//  * argument capture — actions read the constituent events' parameters
//    through ActionContext::Witness;
//  * class-scope triggers — one automaton over the merged event stream of
//    every instance of a class;
//  * history expressions — the HistoryQuery API (tested separately in
//    history_query_test.cc).
#include <gtest/gtest.h>

#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

ClassDef AccountClass() {
  ClassDef def("account");
  def.AddAttr("balance", Value(1000));
  def.AddAttr("noted_deposit", Value(0));
  def.AddAttr("noted_withdraw", Value(0));
  auto adjust = [](MethodContext* ctx, int sign) -> Status {
    ODE_ASSIGN_OR_RETURN(Value balance, ctx->Get("balance"));
    ODE_ASSIGN_OR_RETURN(Value q, ctx->Arg("q"));
    ODE_ASSIGN_OR_RETURN(Value delta, q.Mul(Value(sign)));
    ODE_ASSIGN_OR_RETURN(Value next, balance.Add(delta));
    return ctx->Set("balance", next);
  };
  def.AddMethod(MethodDef{"deposit",
                          {{"int", "q"}},
                          MethodKind::kUpdate,
                          [adjust](MethodContext* c) { return adjust(c, 1); }});
  def.AddMethod(MethodDef{"withdraw",
                          {{"int", "q"}},
                          MethodKind::kUpdate,
                          [adjust](MethodContext* c) {
                            return adjust(c, -1);
                          }});
  return def;
}

// --- Argument capture -----------------------------------------------------

TEST(WitnessCaptureTest, ActionSeesConstituentArguments) {
  // The composite `after deposit then after withdraw` carries no
  // parameters itself (§3.3); witnesses recover both constituents' q.
  ClassDef def = AccountClass();
  def.AddTrigger(
      "Pair(): perpetual relative(after deposit, after withdraw) "
      "==> note");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "note", [](const ActionContext& ctx) -> Status {
        ODE_RETURN_IF_ERROR(ctx.db->SetAttr(
            ctx.txn, ctx.self, "noted_deposit",
            ctx.WitnessArg("deposit", "q")));
        return ctx.db->SetAttr(ctx.txn, ctx.self, "noted_withdraw",
                               ctx.WitnessArg("withdraw", "q"));
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());

  TxnId t = db.Begin().value();
  Oid acct = db.New(t, "account").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, acct, "Pair"));
  ODE_ASSERT_OK(db.Call(t, acct, "deposit", {Value(70)}).status());
  ODE_ASSERT_OK(db.Call(t, acct, "withdraw", {Value(30)}).status());
  ODE_ASSERT_OK(db.Commit(t));

  EXPECT_EQ(db.PeekAttr(acct, "noted_deposit").value().AsInt().value(), 70);
  EXPECT_EQ(db.PeekAttr(acct, "noted_withdraw").value().AsInt().value(), 30);
}

TEST(WitnessCaptureTest, LatestOccurrenceWins) {
  ClassDef def = AccountClass();
  def.AddTrigger(
      "Pair(): perpetual relative(after deposit, after withdraw) ==> note");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "note", [](const ActionContext& ctx) -> Status {
        return ctx.db->SetAttr(ctx.txn, ctx.self, "noted_deposit",
                               ctx.WitnessArg("deposit", "q"));
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid acct = db.New(t, "account").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, acct, "Pair"));
  ODE_ASSERT_OK(db.Call(t, acct, "deposit", {Value(10)}).status());
  ODE_ASSERT_OK(db.Call(t, acct, "deposit", {Value(20)}).status());
  ODE_ASSERT_OK(db.Call(t, acct, "withdraw", {Value(5)}).status());
  // The most recent deposit (20) is the recorded witness.
  EXPECT_EQ(db.PeekAttr(acct, "noted_deposit").value().AsInt().value(), 20);
}

TEST(WitnessCaptureTest, SlotsShareOneCopyOfAPosting) {
  // Every slot that witnesses a posting (two instance triggers, a group
  // member, a class-scope trigger) holds the same single copy of it.
  ClassDef def = AccountClass();
  def.AddTrigger(
      "Pair(): perpetual relative(after deposit, after withdraw) ==> grab");
  def.AddTrigger("Out(): perpetual after withdraw ==> grab");
  def.AddTrigger("Member(): perpetual after withdraw ==> grab");
  def.AddTrigger("Bank(): perpetual after withdraw ==> grab");
  Database db;
  std::vector<const PostedEvent*> seen;
  ODE_ASSERT_OK(db.RegisterAction(
      "grab", [&seen](const ActionContext& ctx) -> Status {
        seen.push_back(ctx.Witness("withdraw"));
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(db.DefineTriggerGroup("account", "G", {"Member"}));
  ODE_ASSERT_OK(db.ActivateClassTrigger("account", "Bank"));
  TxnId t = db.Begin().value();
  Oid acct = db.New(t, "account").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, acct, "Pair"));
  ODE_ASSERT_OK(db.ActivateTrigger(t, acct, "Out"));
  ODE_ASSERT_OK(db.ActivateTriggerGroup(t, acct, "G"));
  ODE_ASSERT_OK(db.Call(t, acct, "deposit", {Value(70)}).status());
  ODE_ASSERT_OK(db.Call(t, acct, "withdraw", {Value(30)}).status());
  ODE_ASSERT_OK(db.Commit(t));

  ASSERT_EQ(seen.size(), 4u);
  ASSERT_NE(seen[0], nullptr);
  for (const PostedEvent* w : seen) EXPECT_EQ(w, seen[0]);
  EXPECT_EQ(seen[0]->FindArg("q")->AsInt().value(), 30);
}

TEST(WitnessCaptureTest, DisabledByOption) {
  DatabaseOptions opts;
  opts.capture_witnesses = false;
  ClassDef def = AccountClass();
  def.AddTrigger("W(): perpetual after withdraw ==> check");
  Database db(opts);
  bool witness_seen = true;
  ODE_ASSERT_OK(db.RegisterAction(
      "check", [&witness_seen](const ActionContext& ctx) -> Status {
        witness_seen = ctx.Witness("withdraw") != nullptr;
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid acct = db.New(t, "account").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, acct, "W"));
  ODE_ASSERT_OK(db.Call(t, acct, "withdraw", {Value(1)}).status());
  EXPECT_FALSE(witness_seen);
}

TEST(WitnessCaptureTest, ResetOnReactivation) {
  ClassDef def = AccountClass();
  def.AddTrigger("W(): after withdraw ==> check");
  Database db;
  Value seen;
  ODE_ASSERT_OK(db.RegisterAction(
      "check", [&seen](const ActionContext& ctx) -> Status {
        seen = ctx.WitnessArg("deposit", "q");
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid acct = db.New(t, "account").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, acct, "W"));
  // `deposit` is not in W's alphabet, so no witness is recorded for it.
  ODE_ASSERT_OK(db.Call(t, acct, "deposit", {Value(9)}).status());
  ODE_ASSERT_OK(db.Call(t, acct, "withdraw", {Value(1)}).status());
  EXPECT_TRUE(seen.is_null());
}

// --- Class-scope triggers ---------------------------------------------------

TEST(ClassTriggerTest, MonitorsAllInstances) {
  ClassDef def = AccountClass();
  def.AddTrigger("Big(): perpetual after withdraw (q) && q > 100 ==> count");
  Database db;
  int fired = 0;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [&fired](const ActionContext&) -> Status {
        ++fired;
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(db.ActivateClassTrigger("account", "Big"));

  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  Oid b = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(150)}).status());
  ODE_ASSERT_OK(db.Call(t, b, "withdraw", {Value(150)}).status());
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(50)}).status());
  ODE_ASSERT_OK(db.Commit(t));

  // Both instances observed by the single class-scope automaton.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(db.ClassFireCount("account", "Big"), 2u);
  // Per-object fire counts untouched.
  EXPECT_EQ(db.FireCount(a, "Big"), 0u);
}

TEST(ClassTriggerTest, CompositeAcrossObjects) {
  // choose 3 over the merged stream: the third withdrawal *anywhere* in
  // the class fires, regardless of which object it hits.
  ClassDef def = AccountClass();
  def.AddTrigger("Third(): perpetual choose 3 (after withdraw) ==> count");
  Database db;
  std::vector<uint64_t> firing_objects;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [&firing_objects](const ActionContext& ctx) -> Status {
        firing_objects.push_back(ctx.self.id);
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(db.ActivateClassTrigger("account", "Third"));

  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  Oid b = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(1)}).status());
  ODE_ASSERT_OK(db.Call(t, b, "withdraw", {Value(1)}).status());
  EXPECT_TRUE(firing_objects.empty());
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(1)}).status());
  ASSERT_EQ(firing_objects.size(), 1u);
  // The third withdrawal was on `a`; the action saw that object as self.
  EXPECT_EQ(firing_objects[0], a.id);
  ODE_ASSERT_OK(db.Commit(t));
}

TEST(ClassTriggerTest, OrdinaryClassTriggerFiresOnce) {
  ClassDef def = AccountClass();
  def.AddTrigger("Once(): after withdraw ==> count");
  Database db;
  int fired = 0;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [&fired](const ActionContext&) -> Status {
        ++fired;
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(db.ActivateClassTrigger("account", "Once"));
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(1)}).status());
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(1)}).status());
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(db.ClassTriggerActive("account", "Once").value());
  ODE_ASSERT_OK(db.Commit(t));
}

TEST(ClassTriggerTest, DeactivationStopsMonitoring) {
  ClassDef def = AccountClass();
  def.AddTrigger("W(): perpetual after withdraw ==> count");
  Database db;
  int fired = 0;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [&fired](const ActionContext&) -> Status {
        ++fired;
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(db.ActivateClassTrigger("account", "W"));
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(1)}).status());
  ODE_ASSERT_OK(db.DeactivateClassTrigger("account", "W"));
  ODE_ASSERT_OK(db.Call(t, a, "withdraw", {Value(1)}).status());
  EXPECT_EQ(fired, 1);
  ODE_ASSERT_OK(db.Commit(t));
}

TEST(ClassTriggerTest, CommittedViewRejectedAtClassScope) {
  ClassDef def = AccountClass();
  {
    Result<TriggerSpec> spec =
        ParseTriggerSpec("C(): perpetual after withdraw ==> count");
    ASSERT_TRUE(spec.ok());
    def.AddTrigger(*spec, HistoryView::kCommitted);
  }
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [](const ActionContext&) -> Status { return Status::OK(); }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  EXPECT_EQ(db.ActivateClassTrigger("account", "C").code(),
            StatusCode::kInvalidArgument);
}

TEST(ClassTriggerTest, TimeEventsRejectedAtClassScope) {
  ClassDef def = AccountClass();
  def.AddTrigger("D(): perpetual at time(HR=9) ==> count");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [](const ActionContext&) -> Status { return Status::OK(); }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  EXPECT_EQ(db.ActivateClassTrigger("account", "D").code(),
            StatusCode::kUnimplemented);
}

// Composite masks read database state when the automaton accepts; at
// class scope the sequencer steps automata without reading any, so a
// trigger with a root composite mask or a gated subevent is refused.
TEST(ClassTriggerTest, CompositeMasksRejectedAtClassScope) {
  ClassDef def = AccountClass();
  def.AddTrigger(
      "Root(): perpetual (after deposit | after withdraw) && balance > 5 "
      "==> count");
  def.AddTrigger(
      "Gated(): perpetual relative((after deposit | after withdraw) && "
      "balance > 5, after withdraw) ==> count");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [](const ActionContext&) -> Status { return Status::OK(); }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  EXPECT_EQ(db.ActivateClassTrigger("account", "Root").code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(db.ActivateClassTrigger("account", "Gated").code(),
            StatusCode::kUnimplemented);
  // Per object, both stay available.
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_EXPECT_OK(db.ActivateTrigger(t, a, "Root"));
  ODE_EXPECT_OK(db.ActivateTrigger(t, a, "Gated"));
  ODE_ASSERT_OK(db.Commit(t));
}

TEST(ClassTriggerTest, MaskSeesPostingObjectState) {
  // The mask's object-state references resolve against whichever instance
  // posted the event.
  ClassDef def = AccountClass();
  def.AddTrigger(
      "Low(): perpetual after withdraw && balance < 100 ==> count");
  Database db;
  std::vector<uint64_t> firing_objects;
  ODE_ASSERT_OK(db.RegisterAction(
      "count", [&firing_objects](const ActionContext& ctx) -> Status {
        firing_objects.push_back(ctx.self.id);
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(db.ActivateClassTrigger("account", "Low"));

  TxnId t = db.Begin().value();
  Oid rich = db.New(t, "account", {{"balance", Value(10000)}}).value();
  Oid poor = db.New(t, "account", {{"balance", Value(120)}}).value();
  ODE_ASSERT_OK(db.Call(t, rich, "withdraw", {Value(50)}).status());
  ODE_ASSERT_OK(db.Call(t, poor, "withdraw", {Value(50)}).status());
  ODE_ASSERT_OK(db.Commit(t));
  ASSERT_EQ(firing_objects.size(), 1u);
  EXPECT_EQ(firing_objects[0], poor.id);
}


// --- Database-scope (schema) events (§3) -----------------------------------

TEST(SchemaEventTest, ClassRegistrationPostsToSchemaObject) {
  DatabaseOptions opts;
  opts.record_histories = true;  // The schema object's history is read.
  Database db(opts);
  ODE_ASSERT_OK(db.RegisterAction(
      "count_schema", [](const ActionContext& ctx) -> Status {
        Result<Value> v =
            ctx.db->PeekAttr(ctx.self, "classes_registered");
        if (!v.ok()) return v.status();
        Result<Value> next = v->Add(Value(1));
        if (!next.ok()) return next.status();
        return ctx.db->SetAttr(ctx.txn, ctx.self, "classes_registered",
                               *next);
      }));
  ODE_ASSERT_OK(db.AddSchemaTrigger(
      "S(): perpetual after classRegistered ==> count_schema"));
  ODE_ASSERT_OK(db.EnableSchemaEvents());
  ASSERT_FALSE(db.schema_object().IsNull());

  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  ODE_ASSERT_OK(db.RegisterClass(ClassDef("widget")).status());
  EXPECT_EQ(db.PeekAttr(db.schema_object(), "classes_registered")
                .value()
                .AsInt()
                .value(),
            2);
  EXPECT_EQ(db.FireCount(db.schema_object(), "S"), 2u);

  // The schema object's history carries the class names.
  const EventHistory* h = db.history(db.schema_object());
  ASSERT_NE(h, nullptr);
  std::vector<std::string> names;
  for (const PostedEvent& e : h->events()) {
    if (e.kind == BasicEventKind::kMethod &&
        e.qualifier == EventQualifier::kAfter &&
        e.method_name == "classRegistered") {
      names.push_back(e.FindArg("name")->AsString().value());
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"account", "widget"}));
}

TEST(SchemaEventTest, MaskOnClassName) {
  Database db;
  int fired = 0;
  ODE_ASSERT_OK(db.RegisterAction(
      "note", [&fired](const ActionContext&) -> Status {
        ++fired;
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.AddSchemaTrigger(
      "S(): perpetual after classRegistered (name) && "
      "name == \"account\" ==> note"));
  ODE_ASSERT_OK(db.EnableSchemaEvents());
  ODE_ASSERT_OK(db.RegisterClass(ClassDef("widget")).status());
  EXPECT_EQ(fired, 0);
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  EXPECT_EQ(fired, 1);
}

TEST(SchemaEventTest, EnableIsIdempotentAndLate) {
  Database db;
  ODE_ASSERT_OK(db.EnableSchemaEvents());
  Oid first = db.schema_object();
  ODE_ASSERT_OK(db.EnableSchemaEvents());
  EXPECT_EQ(db.schema_object(), first);
  // Declaring schema triggers after enabling is rejected.
  EXPECT_EQ(db.AddSchemaTrigger("S(): after classRegistered ==> x").code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ode
