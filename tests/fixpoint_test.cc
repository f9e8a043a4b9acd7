// The §6 before-tcomplete fixpoint in depth: cascades that touch new
// objects mid-commit, and the generalized committed transform with masked
// transaction markers.
#include <gtest/gtest.h>

#include "automaton/committed_transform.h"
#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

ClassDef NodeClass() {
  ClassDef def("node");
  def.AddAttr("v", Value(0));
  def.AddAttr("peer", Value(kNullOid));
  def.AddMethod(MethodDef{"touch", {}, MethodKind::kUpdate, nullptr});
  return def;
}

// A deferred trigger on A whose action touches B, whose own deferred
// trigger then fires in the next round: the fixpoint must extend
// `before tcomplete` posting to objects first accessed *during* commit.
TEST(FixpointTest, CascadeReachesNewlyAccessedObjects) {
  ClassDef def = NodeClass();
  // Anchored on a touch so the setup transaction's own commit (which
  // also posts tcomplete) does not consume the trigger.
  def.AddTrigger(
      "D(): relative(after touch, before tcomplete) ==> touch_peer");
  DatabaseOptions opts;
  opts.record_histories = true;  // B's history is read below.
  Database db(opts);
  ODE_ASSERT_OK(db.RegisterAction(
      "touch_peer", [](const ActionContext& ctx) -> Status {
        Result<Value> peer = ctx.db->PeekAttr(ctx.self, "peer");
        if (!peer.ok()) return peer.status();
        Result<Oid> oid = peer->AsOid();
        if (!oid.ok() || oid->IsNull()) return Status::OK();
        return ctx.db->Call(ctx.txn, *oid, "touch").status();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());

  TxnId t0 = db.Begin().value();
  Oid b = db.New(t0, "node").value();
  Oid a = db.New(t0, "node", {{"peer", Value(b)}}).value();
  ODE_ASSERT_OK(db.ActivateTrigger(t0, a, "D"));
  ODE_ASSERT_OK(db.ActivateTrigger(t0, b, "D"));
  ODE_ASSERT_OK(db.Commit(t0));

  // A transaction touching only A: at commit, A's deferred trigger touches
  // B, pulling B into the transaction; the next round posts tcomplete to B
  // and B's trigger fires too.
  TxnId t = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t, a, "touch").status());
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_EQ(db.FireCount(a, "D"), 1u);
  EXPECT_EQ(db.FireCount(b, "D"), 1u);
  // B received tbegin + touch events from txn t (first access mid-commit).
  const EventHistory* hb = db.history(b);
  ASSERT_NE(hb, nullptr);
  bool saw_tbegin_from_t = false;
  for (const PostedEvent& e : hb->events()) {
    if (e.kind == BasicEventKind::kTbegin && e.txn == t) {
      saw_tbegin_from_t = true;
    }
  }
  EXPECT_TRUE(saw_tbegin_from_t);
}

// Two mutually-referential deferred triggers still quiesce: both are
// ordinary (deactivate on firing), so round 3 fires nothing.
TEST(FixpointTest, MutualCascadeQuiesces) {
  ClassDef def = NodeClass();
  // Anchored on a touch so the setup transaction's own commit (which
  // also posts tcomplete) does not consume the trigger.
  def.AddTrigger(
      "D(): relative(after touch, before tcomplete) ==> touch_peer");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "touch_peer", [](const ActionContext& ctx) -> Status {
        Result<Value> peer = ctx.db->PeekAttr(ctx.self, "peer");
        if (!peer.ok()) return peer.status();
        Result<Oid> oid = peer->AsOid();
        if (!oid.ok() || oid->IsNull()) return Status::OK();
        return ctx.db->Call(ctx.txn, *oid, "touch").status();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());

  TxnId t0 = db.Begin().value();
  Oid a = db.New(t0, "node").value();
  Oid b = db.New(t0, "node", {{"peer", Value(a)}}).value();
  ODE_ASSERT_OK(db.SetAttr(t0, a, "peer", Value(b)));
  ODE_ASSERT_OK(db.ActivateTrigger(t0, a, "D"));
  ODE_ASSERT_OK(db.ActivateTrigger(t0, b, "D"));
  ODE_ASSERT_OK(db.Commit(t0));

  TxnId t = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t, a, "touch").status());
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_EQ(db.FireCount(a, "D"), 1u);
  EXPECT_EQ(db.FireCount(b, "D"), 1u);
}

// The committed transform also works when transaction markers carry masks:
// each micro-symbol of the tbegin group is still a tbegin.
TEST(MaskedMarkerTest, TransformHandlesMaskedTbegin) {
  // `after f` counted on the committed view, with the expression also
  // mentioning a masked tbegin (mask outcome irrelevant to rollback).
  EventExprPtr expr = testing_util::ParseOrDie(
      "choose 2 (after f) | (after tbegin && armed & empty)");
  // (The masked-tbegin disjunct is intersected with empty so it never
  // *occurs*, but it forces mask micro-symbols into the tbegin group.)
  CompileOptions opts;
  opts.include_txn_markers = true;
  Result<CompiledEvent> compiled = CompileEvent(expr, opts);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  TxnMarkerSymbols markers = compiled->alphabet.txn_markers();
  EXPECT_EQ(markers.tbegin.Count(), 2u);  // Masked: two micro-symbols.
  Result<Dfa> a_prime = BuildCommittedTransform(compiled->dfa, markers);
  ASSERT_TRUE(a_prime.ok());

  // Trace: f, tbegin(mask=true), f, tabort, f — the aborted f vanishes, so
  // the final f is the 2nd committed one and choose 2 fires.
  SymbolId f = -1;
  compiled->alphabet
      .GroupSymbols(BasicEvent::Method(EventQualifier::kAfter, "f"))
      .ForEach([&](SymbolId s) { f = s; });
  std::vector<SymbolId> tbegins;
  markers.tbegin.ForEach([&](SymbolId s) { tbegins.push_back(s); });
  SymbolId tabort = -1;
  markers.tabort.ForEach([&](SymbolId s) { tabort = s; });
  for (SymbolId tb : tbegins) {
    std::vector<SymbolId> trace = {f, tb, f, tabort, f};
    std::vector<bool> marks = a_prime->OccurrencePoints(trace);
    EXPECT_TRUE(marks[4]) << "tbegin micro-symbol " << tb;
    // Without the transform, the full-history automaton counts 3 f's.
    EXPECT_FALSE(compiled->dfa.OccurrencePoints(trace)[4]);
  }
}

}  // namespace
}  // namespace ode
