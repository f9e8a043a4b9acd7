// Fraud watch: a banking scenario exercising the library's §9 extensions —
// a per-account composite fraud pattern with argument capture, a
// class-scope trigger auditing the merged stream of every account, and a
// post-hoc history query for the analyst's report.
//
//   $ ./build/examples/fraud_watch
#include <cstdio>

#include "event/history_query.h"
#include "ode/database.h"

using namespace ode;

int main() {
  // The analyst's report below queries full event histories, which the
  // database records only on request: detection itself needs none (§5).
  DatabaseOptions options;
  options.record_histories = true;
  Database db(options);

  ClassDef account("account");
  account.AddAttr("balance", Value(10000));
  account.AddAttr("owner", Value("?"));
  auto adjust = [](MethodContext* ctx, int sign) -> Status {
    ODE_ASSIGN_OR_RETURN(Value balance, ctx->Get("balance"));
    ODE_ASSIGN_OR_RETURN(Value q, ctx->Arg("q"));
    ODE_ASSIGN_OR_RETURN(Value delta, q.Mul(Value(sign)));
    ODE_ASSIGN_OR_RETURN(Value next, balance.Add(delta));
    return ctx->Set("balance", next);
  };
  account.AddMethod(MethodDef{"deposit",
                              {{"int", "q"}},
                              MethodKind::kUpdate,
                              [adjust](MethodContext* c) {
                                return adjust(c, 1);
                              }});
  account.AddMethod(MethodDef{"withdraw",
                              {{"int", "q"}},
                              MethodKind::kUpdate,
                              [adjust](MethodContext* c) {
                                return adjust(c, -1);
                              }});

  // Per-account fraud pattern (auto-activated on creation): anchored at a
  // large withdrawal, fires at the completion of two more with no deposit
  // in between — fa's "no intervening event" semantics (§3.4).
  account.AddTrigger(
      "Fraud(): perpetual fa(after withdraw (q) && q > 500, "
      "relative(after withdraw (q) && q > 500, "
      "after withdraw (q) && q > 500), after deposit) ==> alert",
      HistoryView::kFull, /*auto_activate=*/true);
  // Bank-wide audit: every 3rd large withdrawal anywhere in the class —
  // the merged-stream semantics is the point of class-scope monitoring.
  account.AddTrigger(
      "Audit(): perpetual every 3 (after withdraw (q) && q > 500) "
      "==> audit");

  Status s = db.RegisterAction(
      "alert", [](const ActionContext& ctx) -> Status {
        Result<Value> owner = ctx.db->PeekAttr(ctx.self, "owner");
        // §9 argument capture: the composite itself has no parameters, but
        // the witnesses carry the constituents' arguments.
        Value last_q = ctx.WitnessArg("withdraw", "q");
        std::printf("  !! FRAUD ALERT on %s's account — third large "
                    "withdrawal (last amount %s) with no deposit between\n",
                    owner.ok() ? owner->AsString().value_or("?").c_str()
                               : "?",
                    last_q.ToString().c_str());
        return Status::OK();
      });
  if (!s.ok()) return 1;
  s = db.RegisterAction("audit", [](const ActionContext& ctx) -> Status {
    std::printf("  -- bank-wide audit checkpoint (triggered by account "
                "@%llu)\n",
                static_cast<unsigned long long>(ctx.self.id));
    return Status::OK();
  });
  if (!s.ok()) return 1;
  if (!db.RegisterClass(std::move(account)).ok()) return 1;

  // One class-scope activation covers every instance — the §9 "system
  // level" monitoring question.
  if (Status a = db.ActivateClassTrigger("account", "Audit"); !a.ok()) {
    std::printf("activation failed: %s\n", a.ToString().c_str());
    return 1;
  }

  TxnId t = db.Begin().value();
  Oid alice = db.New(t, "account", {{"owner", Value("alice")}}).value();
  Oid bob = db.New(t, "account", {{"owner", Value("bob")}}).value();
  (void)db.Commit(t);

  auto run = [&](Oid who, const char* method, int q) {
    TxnId txn = db.Begin().value();
    std::printf("%s %s %d\n",
                db.PeekAttr(who, "owner").value().AsString().value().c_str(),
                method, q);
    (void)db.Call(txn, who, method, {Value(q)});
    (void)db.Commit(txn);
  };

  // Alice: two large withdrawals, a deposit resets the fraud pattern, one
  // more large — no alert (but the bank-wide audit counts all of them).
  run(alice, "withdraw", 800);
  run(alice, "withdraw", 900);
  run(alice, "deposit", 100);
  run(alice, "withdraw", 700);  // 3rd large bank-wide → audit fires.

  // Bob: three large withdrawals in a row — fraud alert on the third,
  // which is also the 6th large bank-wide → audit fires too.
  run(bob, "withdraw", 600);
  run(bob, "withdraw", 1200);
  run(bob, "withdraw", 2500);

  // Post-hoc analysis with history expressions (§9).
  std::printf("\nanalyst report (history expressions):\n");
  for (Oid who : {alice, bob}) {
    const EventHistory* h = db.history(who);
    if (h == nullptr) continue;
    HistoryQuery large =
        HistoryQuery::Over(*h)
            .Method("withdraw", EventQualifier::kAfter)
            .Where([](const PostedEvent& e) {
              return e.FindArg("q")->AsInt().value() > 500;
            });
    std::printf("  %s: %zu large withdrawals, total %s, max %s\n",
                db.PeekAttr(who, "owner").value().AsString().value().c_str(),
                large.Count(), large.SumArg("q").value().ToString().c_str(),
                large.Empty()
                    ? "-"
                    : large.MaxArg("q").value().ToString().c_str());
  }
  std::printf("fraud alerts: alice=%llu bob=%llu; bank-wide audits: %llu\n",
              static_cast<unsigned long long>(db.FireCount(alice, "Fraud")),
              static_cast<unsigned long long>(db.FireCount(bob, "Fraud")),
              static_cast<unsigned long long>(
                  db.ClassFireCount("account", "Audit")));
  return 0;
}
