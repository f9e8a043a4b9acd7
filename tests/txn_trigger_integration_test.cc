// Integration tests for §6: transaction events, the before-tcomplete
// fixpoint, system transactions for post-commit/post-abort actions, commit
// dependencies, and the committed vs. full history views.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

ClassDef CounterClass() {
  ClassDef def("counter");
  def.AddAttr("n", Value(0));
  def.AddAttr("fired", Value(0));
  def.AddMethod(MethodDef{
      "bump",
      {},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value n, ctx->Get("n"));
        ODE_ASSIGN_OR_RETURN(Value next, n.Add(Value(1)));
        return ctx->Set("n", next);
      }});
  return def;
}

Status BumpFired(const ActionContext& ctx) {
  Result<Value> v = ctx.db->PeekAttr(ctx.self, "fired");
  if (!v.ok()) return v.status();
  Result<Value> next = v->Add(Value(1));
  if (!next.ok()) return next.status();
  return ctx.db->SetAttr(ctx.txn, ctx.self, "fired", *next);
}

struct Fixture {
  Database db;
  Oid obj;

  explicit Fixture(ClassDef def) {
    EXPECT_TRUE(db.RegisterAction("bump_fired", BumpFired).ok());
    EXPECT_TRUE(db.RegisterClass(std::move(def)).status().ok());
    TxnId t = db.Begin().value();
    obj = db.New(t, "counter").value();
    EXPECT_TRUE(db.Commit(t).ok());
  }

  int64_t Fired() {
    return db.PeekAttr(obj, "fired").value().AsInt().value();
  }
};

// A perpetual before-tcomplete trigger re-fires in every fixpoint round
// (§6's "this process goes on until no triggers fire" never quiesces);
// the engine bounds the rounds and aborts.
TEST(TxnEventsTest, PerpetualTcompleteTriggerTripsRoundBound) {
  ClassDef def = CounterClass();
  def.AddTrigger("T(): perpetual before tcomplete ==> bump_fired");
  Fixture f(std::move(def));
  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t, f.obj, "T"));
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
  EXPECT_EQ(f.db.Commit(t).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(f.db.txn(t)->state(), TxnState::kAborted);
}

TEST(TxnEventsTest, OrdinaryTcompleteTriggerQuiesces) {
  // "When all this work is done, another before tcomplete event occurs.
  // This process goes on until no triggers fire" (§6). An ordinary trigger
  // deactivates after firing, so round 2 fires nothing.
  ClassDef def = CounterClass();
  def.AddTrigger("T(): before tcomplete ==> bump_fired");
  Fixture f(std::move(def));
  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t, f.obj, "T"));
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
  uint64_t rounds_before = f.db.stats().tcomplete_rounds;
  ODE_ASSERT_OK(f.db.Commit(t));
  EXPECT_EQ(f.Fired(), 1);
  // Two rounds: one that fired, one that confirmed quiescence.
  EXPECT_EQ(f.db.stats().tcomplete_rounds - rounds_before, 2u);
}

TEST(TxnEventsTest, AfterTcommitRunsInSystemTxn) {
  ClassDef def = CounterClass();
  def.AddTrigger("T(): after tcommit ==> bump_fired");
  Fixture f(std::move(def));
  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t, f.obj, "T"));
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
  uint64_t sys_before = f.db.stats().system_txns;
  ODE_ASSERT_OK(f.db.Commit(t));
  EXPECT_EQ(f.Fired(), 1);
  EXPECT_GT(f.db.stats().system_txns, sys_before);
  // The action's write survives (its system transaction committed).
  EXPECT_EQ(f.db.PeekAttr(f.obj, "n").value().AsInt().value(), 1);
}

TEST(TxnEventsTest, AfterTabortRunsInSystemTxn) {
  ClassDef def = CounterClass();
  def.AddTrigger("T(): after tabort ==> bump_fired");
  Fixture f(std::move(def));
  // Activate in its own committed transaction — an activation performed by
  // the aborting transaction itself would be rolled back with it.
  TxnId t0 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "T"));
  ODE_ASSERT_OK(f.db.Commit(t0));

  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
  ODE_ASSERT_OK(f.db.Abort(t));
  EXPECT_EQ(f.Fired(), 1);
  // The aborted transaction's bump was rolled back; the trigger action's
  // write (in the system transaction) was not.
  EXPECT_EQ(f.db.PeekAttr(f.obj, "n").value().AsInt().value(), 0);
}

// A commit or abort epilogue re-locks each accessed object before posting
// to it, and may wait for that lock while another thread's transaction
// holds it. That transaction may delete the object, or delete it and abort,
// which restores a copy at a new address. The epilogue must post to the
// object as it is once the lock is held (under ASan, a pointer taken
// before the wait reads freed memory). `end_with_abort`: the first
// transaction aborts and the rival aborts its delete; else both commit.
void RunEpilogueAgainstRivalDelete(bool end_with_abort) {
  ClassDef def = CounterClass();
  def.AddTrigger("Hold(): perpetual after tcommit | after tabort ==> hand_over");
  def.AddTrigger("Seen(): perpetual after tcommit | after tabort");
  Database db;
  std::atomic<bool> armed{false};
  std::promise<void> go;
  std::promise<void> locked;
  std::shared_future<void> locked_f = locked.get_future().share();
  // Runs in the epilogue's posting to `y`, the first accessed object: lets
  // the rival lock `x`, the next one, and returns once it has.
  ODE_ASSERT_OK(db.RegisterAction(
      "hand_over", [&](const ActionContext&) -> Status {
        if (!armed.exchange(false)) return Status::OK();
        go.set_value();
        locked_f.wait();
        return Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t0 = db.Begin().value();
  Oid y = db.New(t0, "counter").value();
  Oid x = db.New(t0, "counter").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t0, y, "Hold"));
  ODE_ASSERT_OK(db.ActivateTrigger(t0, x, "Seen"));
  ODE_ASSERT_OK(db.Commit(t0));
  const uint64_t seen_before = db.FireCount(x, "Seen");

  std::thread rival([&] {
    go.get_future().wait();
    TxnId t2 = db.Begin().value();
    Status lock_x = db.SetAttr(t2, x, "n", Value(7));
    locked.set_value();
    ASSERT_TRUE(lock_x.ok()) << lock_x.ToString();
    // Well inside the epilogue's ~50ms wait for the lock on `x`.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ODE_EXPECT_OK(db.Delete(t2, x));
    ODE_EXPECT_OK(end_with_abort ? db.Abort(t2) : db.Commit(t2));
  });
  TxnId t1 = db.Begin().value();
  ODE_EXPECT_OK(db.Call(t1, y, "bump").status());
  ODE_EXPECT_OK(db.Call(t1, x, "bump").status());
  armed = true;
  ODE_EXPECT_OK(end_with_abort ? db.Abort(t1) : db.Commit(t1));
  rival.join();

  EXPECT_EQ(db.FireCount(y, "Hold"), 2u);  // Setup's commit, then t1's.
  if (end_with_abort) {
    // The restored `x` saw both `after tabort` postings: the rival's and
    // the first transaction's.
    ASSERT_NE(db.object(x), nullptr);
    EXPECT_EQ(db.FireCount(x, "Seen"), seen_before + 2);
  } else {
    EXPECT_EQ(db.object(x), nullptr);
  }
}

TEST(TxnEventsTest, CommitEpilogueSkipsObjectDeletedWhileWaitingForLock) {
  RunEpilogueAgainstRivalDelete(/*end_with_abort=*/false);
}

TEST(TxnEventsTest, AbortEpiloguePostsToObjectRestoredWhileWaitingForLock) {
  RunEpilogueAgainstRivalDelete(/*end_with_abort=*/true);
}

TEST(TxnEventsTest, ActivationByAbortingTxnIsRolledBack) {
  ClassDef def = CounterClass();
  def.AddTrigger("T(): after tabort ==> bump_fired");
  Fixture f(std::move(def));
  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t, f.obj, "T"));
  ODE_ASSERT_OK(f.db.Abort(t));
  // The activation was an effect of the aborted transaction: by the time
  // `after tabort` posts (from the system transaction), it is gone.
  EXPECT_EQ(f.Fired(), 0);
  EXPECT_FALSE(f.db.TriggerActive(f.obj, "T").value());
}

TEST(TxnEventsTest, BeforeTabortSeesPreRollbackState) {
  // before tabort fires while the transaction's effects are still visible;
  // the action executes in the aborting transaction, so its own writes are
  // rolled back too — the firing is observable, its side effect is not.
  ClassDef def = CounterClass();
  def.AddTrigger("T(): before tabort && n > 0 ==> bump_fired");
  Fixture f(std::move(def));
  TxnId t0 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "T"));
  ODE_ASSERT_OK(f.db.Commit(t0));

  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
  ODE_ASSERT_OK(f.db.Abort(t));
  // n was 1 when before-tabort posted → the mask held and T fired...
  EXPECT_EQ(f.db.FireCount(f.obj, "T"), 1u);
  // ...but both the bump and the action's write were rolled back.
  EXPECT_EQ(f.Fired(), 0);
  EXPECT_EQ(f.db.PeekAttr(f.obj, "n").value().AsInt().value(), 0);
}

TEST(TxnEventsTest, CommitDependencyBlocksThenFollows) {
  Fixture f(CounterClass());
  TxnId t1 = f.db.Begin().value();
  TxnId t2 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.AddCommitDependency(t2, t1));
  // t2 cannot commit while t1 is active.
  EXPECT_EQ(f.db.Commit(t2).code(), StatusCode::kWouldBlock);
  ODE_ASSERT_OK(f.db.Commit(t1));
  ODE_ASSERT_OK(f.db.Commit(t2));
}

TEST(TxnEventsTest, CommitDependencyAbortCascades) {
  // "if t1 eventually aborts, so must t2" (§7 footnote).
  Fixture f(CounterClass());
  TxnId t1 = f.db.Begin().value();
  TxnId t2 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.AddCommitDependency(t2, t1));
  ODE_ASSERT_OK(f.db.Abort(t1));
  EXPECT_EQ(f.db.Commit(t2).code(), StatusCode::kAborted);
  EXPECT_EQ(f.db.txn(t2)->state(), TxnState::kAborted);
}

TEST(TxnEventsTest, CommitDependencySurvivesGarbageCollection) {
  // The dependee's abort must reach t2 even when finished records are
  // collected in between, as IngestRuntime::Drain does.
  Fixture f(CounterClass());
  TxnId t1 = f.db.Begin().value();
  TxnId t2 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.AddCommitDependency(t2, t1));
  ODE_ASSERT_OK(f.db.Abort(t1));
  f.db.txns().GarbageCollect();  // Keeps t1: active t2 depends on it.
  EXPECT_EQ(f.db.Commit(t2).code(), StatusCode::kAborted);
  EXPECT_EQ(f.db.txn(t2)->state(), TxnState::kAborted);
  // With no active dependant left, both records go.
  f.db.txns().GarbageCollect();
  EXPECT_EQ(f.db.txn(t1), nullptr);
  EXPECT_EQ(f.db.txn(t2), nullptr);
}

TEST(TxnEventsTest, SelfDependencyRejected) {
  Fixture f(CounterClass());
  TxnId t = f.db.Begin().value();
  EXPECT_EQ(f.db.AddCommitDependency(t, t).code(),
            StatusCode::kInvalidArgument);
}

// §6: committed-view trigger states are part of the object and are
// restored on abort; full-view states are not.
TEST(HistoryViewTest, CommittedViewRollsBackOnAbort) {
  ClassDef def = CounterClass();
  {
    Result<TriggerSpec> spec = ParseTriggerSpec(
        "C(): perpetual choose 2 (after bump) ==> bump_fired");
    ASSERT_TRUE(spec.ok());
    def.AddTrigger(*spec, HistoryView::kCommitted);
  }
  {
    Result<TriggerSpec> spec = ParseTriggerSpec(
        "F(): perpetual choose 2 (after bump) ==> bump_fired");
    ASSERT_TRUE(spec.ok());
    def.AddTrigger(*spec, HistoryView::kFull);
  }
  Fixture f(std::move(def));
  TxnId t0 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "C"));
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "F"));
  ODE_ASSERT_OK(f.db.Commit(t0));

  // Transaction A bumps once and aborts: the committed view forgets the
  // bump, the full view remembers it.
  TxnId ta = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(ta, f.obj, "bump").status());
  ODE_ASSERT_OK(f.db.Abort(ta));

  // Transaction B bumps once and commits.
  TxnId tb = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(tb, f.obj, "bump").status());
  ODE_ASSERT_OK(f.db.Commit(tb));

  // Full view: B's bump is the 2nd `after bump` → F fired.
  EXPECT_EQ(f.db.FireCount(f.obj, "F"), 1u);
  // Committed view: B's bump is only the 1st → C did not fire.
  EXPECT_EQ(f.db.FireCount(f.obj, "C"), 0u);

  // One more committed bump trips C.
  TxnId tc = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(tc, f.obj, "bump").status());
  ODE_ASSERT_OK(f.db.Commit(tc));
  EXPECT_EQ(f.db.FireCount(f.obj, "C"), 1u);
}

// The §6 Claim, engine-level: a committed-view trigger (state in the
// object) and the A′-transform trigger (state outside, pair construction)
// fire identically across aborts.
TEST(HistoryViewTest, TransformMatchesCommittedView) {
  ClassDef def = CounterClass();
  {
    Result<TriggerSpec> spec = ParseTriggerSpec(
        "C(): perpetual choose 3 (after bump) ==> bump_fired");
    ASSERT_TRUE(spec.ok());
    def.AddTrigger(*spec, HistoryView::kCommitted);
  }
  {
    Result<TriggerSpec> spec = ParseTriggerSpec(
        "X(): perpetual choose 3 (after bump) ==> bump_fired");
    ASSERT_TRUE(spec.ok());
    def.AddTrigger(*spec, HistoryView::kCommittedViaTransform);
  }
  Fixture f(std::move(def));
  TxnId t0 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "C"));
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "X"));
  ODE_ASSERT_OK(f.db.Commit(t0));

  // Deterministic mix of committing and aborting transactions.
  std::vector<std::pair<int, bool>> script = {
      {1, true}, {2, false}, {1, true}, {1, false}, {1, true}, {2, true}};
  for (auto [bumps, commit] : script) {
    TxnId t = f.db.Begin().value();
    for (int i = 0; i < bumps; ++i) {
      ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
    }
    if (commit) {
      ODE_ASSERT_OK(f.db.Commit(t));
    } else {
      ODE_ASSERT_OK(f.db.Abort(t));
    }
    EXPECT_EQ(f.db.FireCount(f.obj, "C"), f.db.FireCount(f.obj, "X"))
        << "after txn with bumps=" << bumps << " commit=" << commit;
  }
  EXPECT_GT(f.db.FireCount(f.obj, "C"), 0u);
}


TEST(TxnEventsTest, DeferredTriggerAbortsTheCommit) {
  // A before-tcomplete trigger whose action is tabort: the commit attempt
  // turns into an abort (the §6 loop never completes).
  ClassDef def = CounterClass();
  def.AddTrigger("Veto(): relative(after bump, before tcomplete) ==> tabort");
  Fixture f(std::move(def));
  TxnId t0 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "Veto"));
  ODE_ASSERT_OK(f.db.Commit(t0));

  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());
  EXPECT_EQ(f.db.Commit(t).code(), StatusCode::kAborted);
  EXPECT_EQ(f.db.txn(t)->state(), TxnState::kAborted);
  // The bump was rolled back.
  EXPECT_EQ(f.db.PeekAttr(f.obj, "n").value().AsInt().value(), 0);
}

TEST(TxnEventsTest, ClockBlockedByConflictingTransaction) {
  // A timer firing must lock the object; a user transaction holding the
  // lock surfaces as WouldBlock from AdvanceClock.
  ClassDef def = CounterClass();
  def.AddTrigger("D(): perpetual at time(HR=1) ==> bump_fired");
  Fixture f(std::move(def));
  TxnId t0 = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.ActivateTrigger(t0, f.obj, "D"));
  ODE_ASSERT_OK(f.db.Commit(t0));

  TxnId t = f.db.Begin().value();
  ODE_ASSERT_OK(f.db.Call(t, f.obj, "bump").status());  // X lock held.
  EXPECT_EQ(f.db.AdvanceClock(2 * 3600 * 1000).code(),
            StatusCode::kWouldBlock);
  ODE_ASSERT_OK(f.db.Commit(t));
  // After the lock is gone the timer fires on the next advance.
  ODE_ASSERT_OK(f.db.AdvanceClock(1));
  EXPECT_EQ(f.db.FireCount(f.obj, "D"), 1u);
}

}  // namespace
}  // namespace ode
