#include "ode/database.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ode {
namespace {

// Histories are opt-in; the cases that read Database::history turn them on.
DatabaseOptions WithHistories() {
  DatabaseOptions opts;
  opts.record_histories = true;
  return opts;
}

ClassDef AccountClass() {
  ClassDef def("account");
  def.AddAttr("balance", Value(0));
  def.AddMethod(MethodDef{
      "deposit",
      {{"int", "amount"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value balance, ctx->Get("balance"));
        ODE_ASSIGN_OR_RETURN(Value amount, ctx->Arg("amount"));
        ODE_ASSIGN_OR_RETURN(Value sum, balance.Add(amount));
        return ctx->Set("balance", sum);
      }});
  def.AddMethod(MethodDef{
      "read_balance",
      {},
      MethodKind::kReadOnly,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value balance, ctx->Get("balance"));
        ctx->SetResult(balance);
        return Status::OK();
      }});
  return def;
}

TEST(DatabaseTest, CreateWithDefaultsAndInit) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  Oid b = db.New(t, "account", {{"balance", Value(100)}}).value();
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 0);
  EXPECT_EQ(db.PeekAttr(b, "balance").value().AsInt().value(), 100);
  EXPECT_NE(a, b);
  ODE_ASSERT_OK(db.Commit(t));
}

// Commit's out-parameter separates "rolled back" from "committed but the
// after-tcommit system transaction failed" — callers that replay on
// failure (the ingest shards) must not replay the latter.
TEST(DatabaseTest, CommitOutcomeDistinguishesEpilogueFailure) {
  bool armed = false;
  ClassDef def = AccountClass();
  def.AddTrigger("E(): perpetual after tcommit ==> boom");
  Database db;
  ODE_ASSERT_OK(db.RegisterAction(
      "boom", [&armed](const ActionContext&) -> Status {
        return armed ? Status::Internal("epilogue action failure")
                     : Status::OK();
      }));
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());

  Oid a;
  {
    TxnId t = db.Begin().value();
    a = db.New(t, "account").value();
    ODE_ASSERT_OK(db.ActivateTrigger(t, a, "E"));
    Database::CommitOutcome outcome = Database::CommitOutcome::kNotCommitted;
    ODE_ASSERT_OK(db.Commit(t, &outcome));
    EXPECT_EQ(outcome, Database::CommitOutcome::kCommitted);
  }

  // A commit that never happens reports kNotCommitted.
  {
    TxnId dep = db.Begin().value();
    TxnId t = db.Begin().value();
    ODE_ASSERT_OK(db.AddCommitDependency(t, dep));
    ODE_ASSERT_OK(db.Abort(dep));
    Database::CommitOutcome outcome = Database::CommitOutcome::kCommitted;
    EXPECT_EQ(db.Commit(t, &outcome).code(), StatusCode::kAborted);
    EXPECT_EQ(outcome, Database::CommitOutcome::kNotCommitted);
  }

  // Armed: the user transaction commits (its write survives) even though
  // the epilogue's posting fails.
  armed = true;
  TxnId t = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(7)}).status());
  Database::CommitOutcome outcome = Database::CommitOutcome::kNotCommitted;
  Status s = db.Commit(t, &outcome);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(outcome, Database::CommitOutcome::kEpilogueFailed);
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 7);
}

TEST(DatabaseTest, UnknownClassAndAttrRejected) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  EXPECT_EQ(db.New(t, "nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.New(t, "account", {{"bogus", Value(1)}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, MethodBodyMutatesThroughTxn) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(40)}).status());
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(2)}).status());
  EXPECT_EQ(db.Call(t, a, "read_balance").value().AsInt().value(), 42);
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 42);
}

TEST(DatabaseTest, MethodArityChecked) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  EXPECT_EQ(db.Call(t, a, "deposit").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Call(t, a, "nope").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, AbortRestoresAttributes) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t1 = db.Begin().value();
  Oid a = db.New(t1, "account", {{"balance", Value(10)}}).value();
  ODE_ASSERT_OK(db.Commit(t1));

  TxnId t2 = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t2, a, "deposit", {Value(99)}).status());
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 109);
  ODE_ASSERT_OK(db.Abort(t2));
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 10);
}

TEST(DatabaseTest, AbortRemovesCreatedObjects) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  EXPECT_TRUE(db.Exists(a));
  ODE_ASSERT_OK(db.Abort(t));
  EXPECT_FALSE(db.Exists(a));
}

TEST(DatabaseTest, AbortRestoresDeletedObjects) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t1 = db.Begin().value();
  Oid a = db.New(t1, "account", {{"balance", Value(5)}}).value();
  ODE_ASSERT_OK(db.Commit(t1));

  TxnId t2 = db.Begin().value();
  ODE_ASSERT_OK(db.Delete(t2, a));
  EXPECT_FALSE(db.Exists(a));
  ODE_ASSERT_OK(db.Abort(t2));
  ASSERT_TRUE(db.Exists(a));
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 5);
}

TEST(DatabaseTest, CommittedDeleteIsPermanent) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t1 = db.Begin().value();
  Oid a = db.New(t1, "account").value();
  ODE_ASSERT_OK(db.Commit(t1));
  TxnId t2 = db.Begin().value();
  ODE_ASSERT_OK(db.Delete(t2, a));
  ODE_ASSERT_OK(db.Commit(t2));
  EXPECT_FALSE(db.Exists(a));
  EXPECT_EQ(db.Call(db.Begin().value(), a, "deposit", {Value(1)})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, FinishedTxnsRejectOperations) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_EQ(db.Call(t, a, "deposit", {Value(1)}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Commit(t).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Abort(t).code(), StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, LazyTbeginPosting) {
  // §3.1: after tbegin is posted only immediately before the first access.
  Database db(WithHistories());
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t1 = db.Begin().value();
  Oid a = db.New(t1, "account").value();
  ODE_ASSERT_OK(db.Commit(t1));

  TxnId t2 = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t2, a, "deposit", {Value(1)}).status());
  ODE_ASSERT_OK(db.Call(t2, a, "deposit", {Value(1)}).status());
  ODE_ASSERT_OK(db.Commit(t2));

  const EventHistory* h = db.history(a);
  ASSERT_NE(h, nullptr);
  int tbegin_count = 0;
  for (const PostedEvent& e : h->events()) {
    if (e.kind == BasicEventKind::kTbegin && e.txn == t2) ++tbegin_count;
  }
  EXPECT_EQ(tbegin_count, 1);  // Once per transaction, not per access.
}

TEST(DatabaseTest, EventOrderAroundMethod) {
  Database db(WithHistories());
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(1)}).status());

  const EventHistory* h = db.history(a);
  ASSERT_NE(h, nullptr);
  // after tbegin, after create, then the deposit's seven events.
  std::vector<std::string> got;
  for (const PostedEvent& e : h->events()) {
    std::string tag(EventQualifierName(e.qualifier));
    tag += " ";
    tag += e.kind == BasicEventKind::kMethod
               ? e.method_name
               : std::string(BasicEventKindName(e.kind));
    got.push_back(tag);
  }
  std::vector<std::string> want = {
      "after tbegin", "after create",
      "before deposit", "before access", "before update",
      "after update", "after access", "after deposit"};
  EXPECT_EQ(got, want);
}

TEST(DatabaseTest, ReadOnlyMethodPostsReadEvents) {
  Database db(WithHistories());
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "read_balance").status());
  const EventHistory* h = db.history(a);
  bool saw_read = false, saw_update_from_read = false;
  for (const PostedEvent& e : h->events()) {
    if (e.kind == BasicEventKind::kRead) saw_read = true;
    if (e.kind == BasicEventKind::kUpdate) saw_update_from_read = true;
  }
  EXPECT_TRUE(saw_read);
  EXPECT_FALSE(saw_update_from_read);
}

TEST(DatabaseTest, PostingPolicySuppressesCategories) {
  ClassDef def("quiet");
  def.AddAttr("x", Value(0));
  def.AddMethod(MethodDef{"touch", {}, MethodKind::kUpdate, nullptr});
  EventPostingPolicy policy;
  policy.method_events = false;
  policy.read_update_events = false;
  def.SetPostingPolicy(policy);

  Database db(WithHistories());
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "quiet").value();
  ODE_ASSERT_OK(db.Call(t, a, "touch").status());
  const EventHistory* h = db.history(a);
  for (const PostedEvent& e : h->events()) {
    EXPECT_NE(e.kind, BasicEventKind::kMethod);
    EXPECT_NE(e.kind, BasicEventKind::kUpdate);
  }
}

TEST(DatabaseTest, LockConflictSurfacesAsWouldBlock) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t1 = db.Begin().value();
  Oid a = db.New(t1, "account").value();
  ODE_ASSERT_OK(db.Commit(t1));

  TxnId t2 = db.Begin().value();
  TxnId t3 = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t2, a, "deposit", {Value(1)}).status());
  EXPECT_EQ(db.Call(t3, a, "deposit", {Value(1)}).status().code(),
            StatusCode::kWouldBlock);
  // Readers also blocked by the writer.
  EXPECT_EQ(db.Call(t3, a, "read_balance").status().code(),
            StatusCode::kWouldBlock);
  ODE_ASSERT_OK(db.Commit(t2));
  ODE_ASSERT_OK(db.Call(t3, a, "deposit", {Value(1)}).status());
  ODE_ASSERT_OK(db.Commit(t3));
}

TEST(DatabaseTest, SharedReadersThenUpgradeConflict) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t1 = db.Begin().value();
  Oid a = db.New(t1, "account").value();
  ODE_ASSERT_OK(db.Commit(t1));

  TxnId t2 = db.Begin().value();
  TxnId t3 = db.Begin().value();
  ODE_ASSERT_OK(db.Call(t2, a, "read_balance").status());
  ODE_ASSERT_OK(db.Call(t3, a, "read_balance").status());
  EXPECT_EQ(db.Call(t2, a, "deposit", {Value(1)}).status().code(),
            StatusCode::kWouldBlock);
  ODE_ASSERT_OK(db.Commit(t3));
  ODE_ASSERT_OK(db.Call(t2, a, "deposit", {Value(1)}).status());
  ODE_ASSERT_OK(db.Commit(t2));
}

TEST(DatabaseTest, StatsCount) {
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(1)}).status());
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_GT(db.stats().events_posted, 0u);
  EXPECT_GT(db.stats().system_txns, 0u);
  EXPECT_EQ(db.txns().num_committed(), 1u);  // User commits only.
}


TEST(DatabaseTest, MethodBodyErrorPropagatesWithoutAutoAbort) {
  // A body failure is the caller's decision to handle: the transaction
  // stays active (only trigger-requested aborts auto-abort). The before
  // events were posted; the after events were not.
  ClassDef def("fragile");
  def.AddAttr("x", Value(0));
  def.AddMethod(MethodDef{"boom",
                          {},
                          MethodKind::kUpdate,
                          [](MethodContext*) -> Status {
                            return Status::InvalidArgument("body failed");
                          }});
  Database db(WithHistories());
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid obj = db.New(t, "fragile").value();
  EXPECT_EQ(db.Call(t, obj, "boom").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.txn(t)->state(), TxnState::kActive);
  const EventHistory* h = db.history(obj);
  bool saw_before = false, saw_after = false;
  for (const PostedEvent& e : h->events()) {
    if (e.kind == BasicEventKind::kMethod && e.method_name == "boom") {
      if (e.qualifier == EventQualifier::kBefore) saw_before = true;
      if (e.qualifier == EventQualifier::kAfter) saw_after = true;
    }
  }
  EXPECT_TRUE(saw_before);
  EXPECT_FALSE(saw_after);
  // The caller can still roll everything back.
  ODE_ASSERT_OK(db.Abort(t));
  EXPECT_FALSE(db.Exists(obj));
}

TEST(DatabaseTest, CommitFreesUndoLog) {
  // A commit never rolls back, so it frees its undo log and access set at
  // once; only the small record waits for TxnManager::GarbageCollect.
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(5)}).status());
  ASSERT_FALSE(db.txn(t)->undo_log().empty());
  ODE_ASSERT_OK(db.Commit(t));
  const Transaction* committed = db.txn(t);
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->state(), TxnState::kCommitted);
  EXPECT_TRUE(committed->undo_log().empty());
  EXPECT_TRUE(committed->accessed().empty());
  EXPECT_EQ(db.PeekAttr(a, "balance").value().AsInt().value(), 5);
}

TEST(DatabaseTest, HistoriesDisabledOption) {
  // Off by default: no detection path reads a history (§5).
  Database db;
  ODE_ASSERT_OK(db.RegisterClass(AccountClass()).status());
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "account").value();
  ODE_ASSERT_OK(db.Call(t, a, "deposit", {Value(1)}).status());
  ODE_ASSERT_OK(db.Commit(t));
  EXPECT_EQ(db.history(a), nullptr);  // Nothing recorded...
  EXPECT_GT(db.stats().events_posted, 0u);  // ...but events were posted.
}

}  // namespace
}  // namespace ode
