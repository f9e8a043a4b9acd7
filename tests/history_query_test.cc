#include "event/history_query.h"

#include <gtest/gtest.h>

#include "ode/database.h"
#include "test_util.h"

namespace ode {
namespace {

EventHistory MakeHistory() {
  EventHistory h;
  auto method = [](EventQualifier q, const char* name, int arg_q,
                   TxnId txn, TimeMs t) {
    PostedEvent e =
        MakePostedMethod(q, name, {{"q", Value(arg_q)}}, txn);
    e.time = t;
    return e;
  };
  h.Append(MakePosted(BasicEventKind::kCreate, EventQualifier::kAfter, 1));
  h.Append(method(EventQualifier::kAfter, "deposit", 100, 1, 10));
  h.Append(method(EventQualifier::kAfter, "withdraw", 30, 1, 20));
  h.Append(method(EventQualifier::kAfter, "withdraw", 200, 2, 30));
  h.Append(MakePosted(BasicEventKind::kTcommit, EventQualifier::kAfter, 2));
  h.Append(method(EventQualifier::kAfter, "deposit", 50, 3, 40));
  h.Append(method(EventQualifier::kBefore, "withdraw", 7, 3, 50));
  return h;
}

TEST(HistoryQueryTest, CountAndFilters) {
  EventHistory h = MakeHistory();
  EXPECT_EQ(HistoryQuery::Over(h).Count(), 7u);
  EXPECT_EQ(HistoryQuery::Over(h).Method("withdraw").Count(), 3u);
  EXPECT_EQ(
      HistoryQuery::Over(h).Method("withdraw", EventQualifier::kAfter).Count(),
      2u);
  EXPECT_EQ(HistoryQuery::Over(h).Kind(BasicEventKind::kTcommit).Count(), 1u);
  EXPECT_EQ(HistoryQuery::Over(h).InTxn(1).Count(), 3u);
  EXPECT_EQ(HistoryQuery::Over(h).Between(20, 40).Count(), 3u);
}

TEST(HistoryQueryTest, FiltersCompose) {
  EventHistory h = MakeHistory();
  size_t n = HistoryQuery::Over(h)
                 .Method("withdraw", EventQualifier::kAfter)
                 .Where([](const PostedEvent& e) {
                   return e.FindArg("q")->AsInt().value() > 100;
                 })
                 .Count();
  EXPECT_EQ(n, 1u);
}

TEST(HistoryQueryTest, FirstAndLast) {
  EventHistory h = MakeHistory();
  HistoryQuery deposits = HistoryQuery::Over(h).Method("deposit");
  ASSERT_NE(deposits.First(), nullptr);
  EXPECT_EQ(deposits.First()->FindArg("q")->AsInt().value(), 100);
  EXPECT_EQ(deposits.Last()->FindArg("q")->AsInt().value(), 50);
  EXPECT_EQ(HistoryQuery::Over(h).Method("nothing").First(), nullptr);
}

TEST(HistoryQueryTest, Aggregates) {
  EventHistory h = MakeHistory();
  HistoryQuery withdraws =
      HistoryQuery::Over(h).Method("withdraw", EventQualifier::kAfter);
  EXPECT_EQ(withdraws.SumArg("q").value().AsInt().value(), 230);
  EXPECT_EQ(withdraws.MinArg("q").value().AsInt().value(), 30);
  EXPECT_EQ(withdraws.MaxArg("q").value().AsInt().value(), 200);
  // Sum over nothing is 0; min over nothing errors.
  EXPECT_EQ(HistoryQuery::Over(h).Method("x").SumArg("q").value()
                .AsInt()
                .value(),
            0);
  EXPECT_FALSE(HistoryQuery::Over(h).Method("x").MinArg("q").ok());
}

TEST(HistoryQueryTest, AggregateErrorsOnMissingArg) {
  EventHistory h = MakeHistory();
  // The create event has no q argument.
  EXPECT_FALSE(HistoryQuery::Over(h).SumArg("q").ok());
}

TEST(HistoryQueryTest, SinceLastTruncation) {
  EventHistory h = MakeHistory();
  // §4-style truncation: events after the last commit.
  BasicEvent commit =
      BasicEvent::Make(BasicEventKind::kTcommit, EventQualifier::kAfter);
  HistoryQuery after_commit = HistoryQuery::Over(h).SinceLast(commit);
  EXPECT_EQ(after_commit.Count(), 2u);
  // Anchor absent → whole history.
  BasicEvent abort_marker =
      BasicEvent::Make(BasicEventKind::kTabort, EventQualifier::kAfter);
  EXPECT_EQ(HistoryQuery::Over(h).SinceLast(abort_marker).Count(), 7u);
}

TEST(HistoryQueryTest, MatchingHonorsArity) {
  EventHistory h = MakeHistory();
  BasicEvent one_arg = BasicEvent::Method(EventQualifier::kAfter, "withdraw",
                                          {{"int", "q"}});
  BasicEvent two_args = BasicEvent::Method(
      EventQualifier::kAfter, "withdraw", {{"Item", "i"}, {"int", "q"}});
  EXPECT_EQ(HistoryQuery::Over(h).Matching(one_arg).Count(), 2u);
  EXPECT_EQ(HistoryQuery::Over(h).Matching(two_args).Count(), 0u);
}

TEST(HistoryQueryTest, EndToEndWithDatabase) {
  // The intended §9 use: post-hoc analysis of a live object's history.
  ClassDef def("account");
  def.AddAttr("balance", Value(1000));
  def.AddMethod(MethodDef{"withdraw",
                          {{"int", "q"}},
                          MethodKind::kUpdate,
                          nullptr});
  DatabaseOptions opts;
  opts.record_histories = true;  // Histories are opt-in.
  Database db(opts);
  ODE_ASSERT_OK(db.RegisterClass(std::move(def)).status());
  TxnId t = db.Begin().value();
  Oid acct = db.New(t, "account").value();
  for (int q : {10, 250, 40, 300}) {
    ODE_ASSERT_OK(db.Call(t, acct, "withdraw", {Value(q)}).status());
  }
  ODE_ASSERT_OK(db.Commit(t));

  const EventHistory* h = db.history(acct);
  ASSERT_NE(h, nullptr);
  HistoryQuery large =
      HistoryQuery::Over(*h)
          .Method("withdraw", EventQualifier::kAfter)
          .Where([](const PostedEvent& e) {
            return e.FindArg("q")->AsInt().value() > 100;
          });
  EXPECT_EQ(large.Count(), 2u);
  EXPECT_EQ(large.SumArg("q").value().AsInt().value(), 550);
}

}  // namespace
}  // namespace ode
