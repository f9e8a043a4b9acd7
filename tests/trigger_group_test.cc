// Engine-level §5 footnote-5: a trigger group shares one product automaton
// on an object — one classification and one table step per event for all
// members, one integer of monitoring state.
#include <gtest/gtest.h>

#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

ClassDef ItemClass() {
  ClassDef def("item");
  def.AddAttr("qty", Value(0));
  def.AddAttr("hits", Value(0));
  def.AddMethod(MethodDef{"deposit", {{"int", "q"}}, MethodKind::kUpdate,
                          nullptr});
  def.AddMethod(MethodDef{"withdraw", {{"int", "q"}}, MethodKind::kUpdate,
                          nullptr});
  def.AddTrigger("A(): perpetual every 2 (after deposit) ==> hit");
  def.AddTrigger("B(): perpetual after withdraw (q) && q > 100 ==> hit");
  def.AddTrigger("C(): after deposit; before withdraw ==> hit");
  return def;
}

struct Fixture {
  Database db;
  Oid item;
  TxnId txn = 0;

  Fixture() {
    EXPECT_TRUE(db.RegisterAction("hit",
                                  [](const ActionContext& ctx) -> Status {
                                    Result<Value> v =
                                        ctx.db->PeekAttr(ctx.self, "hits");
                                    if (!v.ok()) return v.status();
                                    Result<Value> next = v->Add(Value(1));
                                    if (!next.ok()) return next.status();
                                    return ctx.db->SetAttr(ctx.txn, ctx.self,
                                                           "hits", *next);
                                  })
                    .ok());
    EXPECT_TRUE(db.RegisterClass(ItemClass()).status().ok());
    EXPECT_TRUE(
        db.DefineTriggerGroup("item", "G", {"A", "B", "C"}).ok());
    txn = db.Begin().value();
    item = db.New(txn, "item").value();
  }

  int64_t Hits() {
    return db.PeekAttr(item, "hits").value().AsInt().value();
  }
  void Deposit(int q) {
    ODE_ASSERT_OK(db.Call(txn, item, "deposit", {Value(q)}).status());
  }
  void Withdraw(int q) {
    ODE_ASSERT_OK(db.Call(txn, item, "withdraw", {Value(q)}).status());
  }
};

TEST(TriggerGroupTest, MembersFireThroughTheSharedAutomaton) {
  Fixture f;
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, f.item, "G"));
  EXPECT_TRUE(f.db.TriggerGroupActive(f.item, "G").value());

  f.Deposit(10);             // A: 1st deposit — no.
  f.Deposit(10);             // A fires (every 2).
  EXPECT_EQ(f.db.FireCount(f.item, "A"), 1u);
  f.Withdraw(150);           // B fires (q > 100); C fires (dep ; wd).
  EXPECT_EQ(f.db.FireCount(f.item, "B"), 1u);
  EXPECT_EQ(f.db.FireCount(f.item, "C"), 1u);
  EXPECT_EQ(f.Hits(), 3);

  // C was ordinary: disarmed within the still-active group.
  f.Deposit(10);
  f.Withdraw(150);
  EXPECT_EQ(f.db.FireCount(f.item, "C"), 1u);  // No re-fire.
  EXPECT_EQ(f.db.FireCount(f.item, "B"), 2u);  // Perpetual member lives on.
  EXPECT_TRUE(f.db.TriggerGroupActive(f.item, "G").value());
}

TEST(TriggerGroupTest, GroupMatchesIndividualActivations) {
  // The same scenario driven through the group and through individual
  // triggers on two objects must fire identically.
  Fixture f;
  Oid solo = f.db.New(f.txn, "item").value();
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, f.item, "G"));
  for (const char* t : {"A", "B", "C"}) {
    ODE_ASSERT_OK(f.db.ActivateTrigger(f.txn, solo, t));
  }
  auto drive = [&](Oid oid) {
    for (int i = 0; i < 3; ++i) {
      ODE_ASSERT_OK(f.db.Call(f.txn, oid, "deposit", {Value(5)}).status());
      ODE_ASSERT_OK(
          f.db.Call(f.txn, oid, "withdraw", {Value(i == 1 ? 500 : 5)})
              .status());
    }
  };
  drive(f.item);
  drive(solo);
  for (const char* t : {"A", "B", "C"}) {
    EXPECT_EQ(f.db.FireCount(f.item, t), f.db.FireCount(solo, t)) << t;
  }
}

TEST(TriggerGroupTest, SingleStateWord) {
  Fixture f;
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, f.item, "G"));
  Result<int32_t> s0 = f.db.TriggerGroupState(f.item, "G");
  ODE_ASSERT_OK(s0.status());
  f.Deposit(1);
  Result<int32_t> s1 = f.db.TriggerGroupState(f.item, "G");
  EXPECT_NE(*s0, *s1);
  // No per-member ActiveTrigger slots were created.
  EXPECT_TRUE(f.db.object(f.item)->trigger_slots().empty());
  EXPECT_EQ(f.db.object(f.item)->group_slots().size(), 1u);
}

TEST(TriggerGroupTest, DeactivationStopsAllMembers) {
  Fixture f;
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, f.item, "G"));
  f.Deposit(1);
  ODE_ASSERT_OK(f.db.DeactivateTriggerGroup(f.txn, f.item, "G"));
  f.Deposit(1);  // Would have completed `every 2`.
  f.Withdraw(500);
  EXPECT_EQ(f.Hits(), 0);
}

TEST(TriggerGroupTest, DefinitionErrors) {
  Fixture f;
  EXPECT_EQ(f.db.DefineTriggerGroup("item", "G", {"A"}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(f.db.DefineTriggerGroup("item", "H", {"nope"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.db.DefineTriggerGroup("nope", "H", {"A"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.db.DefineTriggerGroup("item", "H", {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(f.db.ActivateTriggerGroup(f.txn, f.item, "nope").code(),
            StatusCode::kNotFound);
}

TEST(TriggerGroupTest, WitnessesAvailableToMembers) {
  Fixture f;
  Value seen;
  ODE_ASSERT_OK(f.db.RegisterAction(
      "note", [&seen](const ActionContext& ctx) -> Status {
        seen = ctx.WitnessArg("withdraw", "q");
        return Status::OK();
      }));
  ClassDef def("cell");
  def.AddAttr("x", Value(0));
  def.AddMethod(MethodDef{"withdraw", {{"int", "q"}}, MethodKind::kUpdate,
                          nullptr});
  def.AddTrigger("W(): perpetual after withdraw ==> note");
  ODE_ASSERT_OK(f.db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(f.db.DefineTriggerGroup("cell", "G", {"W"}));
  Oid cell = f.db.New(f.txn, "cell").value();
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, cell, "G"));
  ODE_ASSERT_OK(f.db.Call(f.txn, cell, "withdraw", {Value(42)}).status());
  EXPECT_EQ(seen.AsInt().value_or(-1), 42);
}

TEST(TriggerGroupTest, GroupSlotSurvivesSnapshot) {
  std::string path =
      std::string(::testing::TempDir()) + "/group_snap.ode";
  Oid item;
  {
    Fixture f;
    item = f.item;
    ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, f.item, "G"));
    f.Deposit(1);  // every-2 counter at 1.
    ODE_ASSERT_OK(f.db.Commit(f.txn));
    ODE_ASSERT_OK(f.db.SaveSnapshot(path));
  }
  {
    Fixture f2;  // Re-registers schema incl. group; creates its own item.
    ODE_ASSERT_OK(f2.db.Commit(f2.txn));
    ODE_ASSERT_OK(f2.db.LoadSnapshot(path));
    EXPECT_TRUE(f2.db.TriggerGroupActive(item, "G").value());
    TxnId t = f2.db.Begin().value();
    ODE_ASSERT_OK(f2.db.Call(t, item, "deposit", {Value(1)}).status());
    ODE_ASSERT_OK(f2.db.Commit(t));
    // The 2nd deposit overall: the restored counter completes.
    EXPECT_EQ(f2.db.FireCount(item, "A"), 1u);
  }
}


TEST(TriggerGroupTest, FireCountsOneTriggerArmedBothWays) {
  // A trigger's firings count per object whether it is armed on its own
  // or as a group member; armed both ways on one object, both count.
  Fixture f;
  Oid solo = f.db.New(f.txn, "item").value();
  Oid both = f.db.New(f.txn, "item").value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(f.txn, solo, "A"));
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, f.item, "G"));
  ODE_ASSERT_OK(f.db.ActivateTrigger(f.txn, both, "A"));
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, both, "G"));
  for (Oid oid : {solo, f.item, both}) {
    for (int i = 0; i < 4; ++i) {
      ODE_ASSERT_OK(f.db.Call(f.txn, oid, "deposit", {Value(1)}).status());
    }
    ODE_ASSERT_OK(f.db.Call(f.txn, oid, "withdraw", {Value(500)}).status());
  }
  ODE_ASSERT_OK(f.db.Commit(f.txn));

  EXPECT_EQ(f.db.FireCount(solo, "A"), 2u);    // every 2 of 4 deposits.
  EXPECT_EQ(f.db.FireCount(solo, "B"), 0u);    // Never armed.
  EXPECT_EQ(f.db.FireCount(f.item, "A"), 2u);  // As a group member.
  EXPECT_EQ(f.db.FireCount(f.item, "B"), 1u);
  EXPECT_EQ(f.db.FireCount(f.item, "C"), 1u);
  EXPECT_EQ(f.db.FireCount(both, "A"), 4u);    // Slot and group each.
  EXPECT_EQ(f.db.FireCount(both, "B"), 1u);
  EXPECT_EQ(f.db.FireCount(both, "nope"), 0u);
  EXPECT_EQ(f.db.FireCount(Oid{9999}, "A"), 0u);
}

TEST(TriggerGroupTest, AllThreeScopesFireOnOneEvent) {
  // Object trigger, class-scope trigger, and group member can all observe
  // the same posting; firing order is object slots, class slots, groups.
  Fixture f;
  std::vector<std::string> order;
  ODE_ASSERT_OK(f.db.RegisterAction(
      "mark", [&order](const ActionContext& ctx) -> Status {
        order.push_back(ctx.trigger_name);
        return Status::OK();
      }));
  ClassDef def("tri");
  def.AddAttr("x", Value(0));
  def.AddMethod(MethodDef{"poke", {}, MethodKind::kUpdate, nullptr});
  def.AddTrigger("Obj(): perpetual after poke ==> mark");
  def.AddTrigger("Cls(): perpetual after poke ==> mark");
  def.AddTrigger("Grp(): perpetual after poke ==> mark");
  ODE_ASSERT_OK(f.db.RegisterClass(std::move(def)).status());
  ODE_ASSERT_OK(f.db.DefineTriggerGroup("tri", "G", {"Grp"}));
  ODE_ASSERT_OK(f.db.ActivateClassTrigger("tri", "Cls"));

  Oid obj = f.db.New(f.txn, "tri").value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(f.txn, obj, "Obj"));
  ODE_ASSERT_OK(f.db.ActivateTriggerGroup(f.txn, obj, "G"));
  ODE_ASSERT_OK(f.db.Call(f.txn, obj, "poke").status());

  EXPECT_EQ(order,
            (std::vector<std::string>{"Obj", "Cls", "Grp"}));
  EXPECT_EQ(f.db.FireCount(obj, "Obj"), 1u);
  EXPECT_EQ(f.db.ClassFireCount("tri", "Cls"), 1u);
  EXPECT_EQ(f.db.FireCount(obj, "Grp"), 1u);
}

}  // namespace
}  // namespace ode
