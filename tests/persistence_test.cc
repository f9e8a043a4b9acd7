#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "ode/database.h"
#include "ode/snapshot_codec.h"
#include "test_util.h"

namespace ode {
namespace {

ClassDef CounterClass() {
  ClassDef def("counter");
  def.AddAttr("n", Value(0));
  def.AddAttr("label", Value("x"));
  def.AddAttr("ratio", Value(0.5));
  def.AddAttr("peer", Value(kNullOid));
  def.AddMethod(MethodDef{
      "bump",
      {},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value n, ctx->Get("n"));
        ODE_ASSIGN_OR_RETURN(Value next, n.Add(Value(1)));
        return ctx->Set("n", next);
      }});
  def.AddTrigger("T(): perpetual choose 3 (after bump) ==> noop");
  def.AddTrigger("D(): perpetual at time(HR=17) ==> noop");
  return def;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Registers the actions and classes a database needs before it can load
/// a counter snapshot (class definitions are code, not data).
void SetUpSchema(Database* db) {
  EXPECT_TRUE(db->RegisterAction("noop", [](const ActionContext&) -> Status {
                  return Status::OK();
                }).ok());
  EXPECT_TRUE(db->RegisterClass(CounterClass()).status().ok());
}

TEST(PersistenceTest, RoundTripObjectsAndValues) {
  std::string path = TempPath("snap1.ode");
  Database db;
  SetUpSchema(&db);
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "counter", {{"n", Value(7)},
                                {"label", Value("hello world")},
                                {"ratio", Value(2.25)}})
              .value();
  Oid b = db.New(t, "counter", {{"peer", Value(a)}}).value();
  ODE_ASSERT_OK(db.Commit(t));
  ODE_ASSERT_OK(db.SaveSnapshot(path));

  Database db2;
  SetUpSchema(&db2);
  ODE_ASSERT_OK(db2.LoadSnapshot(path));
  EXPECT_EQ(db2.PeekAttr(a, "n").value().AsInt().value(), 7);
  EXPECT_EQ(db2.PeekAttr(a, "label").value().AsString().value(),
            "hello world");
  EXPECT_EQ(db2.PeekAttr(a, "ratio").value().AsDouble().value(), 2.25);
  EXPECT_EQ(db2.PeekAttr(b, "peer").value().AsOid().value(), a);
}

TEST(PersistenceTest, TriggerStateSurvives) {
  // The §5 point: the one-word automaton state is all that must persist —
  // two committed bumps before the snapshot mean the third after reload
  // fires the choose-3 trigger.
  std::string path = TempPath("snap2.ode");
  Database db;
  SetUpSchema(&db);
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "counter").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, a, "T"));
  ODE_ASSERT_OK(db.Commit(t));
  for (int i = 0; i < 2; ++i) {
    TxnId ti = db.Begin().value();
    ODE_ASSERT_OK(db.Call(ti, a, "bump").status());
    ODE_ASSERT_OK(db.Commit(ti));
  }
  EXPECT_EQ(db.FireCount(a, "T"), 0u);
  ODE_ASSERT_OK(db.SaveSnapshot(path));

  Database db2;
  SetUpSchema(&db2);
  ODE_ASSERT_OK(db2.LoadSnapshot(path));
  EXPECT_TRUE(db2.TriggerActive(a, "T").value());
  EXPECT_EQ(db2.TriggerState(a, "T").value(), db.TriggerState(a, "T").value());
  TxnId t3 = db2.Begin().value();
  ODE_ASSERT_OK(db2.Call(t3, a, "bump").status());
  ODE_ASSERT_OK(db2.Commit(t3));
  EXPECT_EQ(db2.FireCount(a, "T"), 1u);
}

TEST(PersistenceTest, ClockAndTimersSurvive) {
  std::string path = TempPath("snap3.ode");
  Database db;
  SetUpSchema(&db);
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "counter").value();
  ODE_ASSERT_OK(db.ActivateTrigger(t, a, "D"));
  ODE_ASSERT_OK(db.Commit(t));
  ODE_ASSERT_OK(db.AdvanceClock(3600 * 1000));  // 01:00.
  ODE_ASSERT_OK(db.SaveSnapshot(path));

  Database db2;
  SetUpSchema(&db2);
  ODE_ASSERT_OK(db2.LoadSnapshot(path));
  EXPECT_EQ(db2.clock().now(), 3600 * 1000);
  EXPECT_EQ(db2.clock().num_timers(), 1u);
  // The 17:00 timer fires after reload.
  ODE_ASSERT_OK(db2.AdvanceClockTo(18 * 3600 * 1000));
  EXPECT_EQ(db2.FireCount(a, "D"), 1u);
}

TEST(PersistenceTest, OidAllocationContinues) {
  std::string path = TempPath("snap4.ode");
  Database db;
  SetUpSchema(&db);
  TxnId t = db.Begin().value();
  Oid a = db.New(t, "counter").value();
  ODE_ASSERT_OK(db.Commit(t));
  ODE_ASSERT_OK(db.SaveSnapshot(path));

  Database db2;
  SetUpSchema(&db2);
  ODE_ASSERT_OK(db2.LoadSnapshot(path));
  TxnId t2 = db2.Begin().value();
  Oid b = db2.New(t2, "counter").value();
  EXPECT_GT(b.id, a.id);  // No oid reuse.
}

TEST(PersistenceTest, ChecksumDetectsCorruption) {
  std::string path = TempPath("snap5.ode");
  Database db;
  SetUpSchema(&db);
  TxnId t = db.Begin().value();
  ODE_ASSERT_OK(db.New(t, "counter", {{"n", Value(7)}}).status());
  ODE_ASSERT_OK(db.Commit(t));
  ODE_ASSERT_OK(db.SaveSnapshot(path));

  // Flip a digit in the body.
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  size_t pos = content.find("int:7");
  ASSERT_NE(pos, std::string::npos);
  content[pos + 4] = '8';
  std::ofstream out(path, std::ios::trunc);
  out << content;
  out.close();

  Database db2;
  SetUpSchema(&db2);
  EXPECT_EQ(db2.LoadSnapshot(path).code(), StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, MissingClassRejected) {
  std::string path = TempPath("snap6.ode");
  Database db;
  SetUpSchema(&db);
  TxnId t = db.Begin().value();
  ODE_ASSERT_OK(db.New(t, "counter").status());
  ODE_ASSERT_OK(db.Commit(t));
  ODE_ASSERT_OK(db.SaveSnapshot(path));

  Database empty;  // No classes registered.
  EXPECT_EQ(empty.LoadSnapshot(path).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistenceTest, MissingFileIsNotFound) {
  Database db;
  SetUpSchema(&db);
  EXPECT_EQ(db.LoadSnapshot(TempPath("does_not_exist.ode")).code(),
            StatusCode::kNotFound);
}

// Malformed value text is reported, not thrown: a crafted WAL record or
// snapshot must not abort the process, and a number must parse whole.
TEST(PersistenceTest, MalformedValuesAreInvalidArgument) {
  for (const char* text : {"int:x", "int:5x", "int:", "int: 5",
                           "int:99999999999999999999", "dbl:1.5q", "dbl:",
                           "oid:-1", "oid:7 ", "bool:2", "bool:", "nope:1"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(DecodeSnapshotValue(text).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const Value& v :
       {Value(), Value(std::numeric_limits<int64_t>::min()), Value(0.1),
        Value(-1e300), Value(std::numeric_limits<double>::infinity()),
        Value(true), Value(false), Value("a\nb\\c:"), Value(Oid{7})}) {
    const std::string text = EncodeSnapshotValue(v);
    SCOPED_TRACE(text);
    Result<Value> back = DecodeSnapshotValue(text);
    ODE_ASSERT_OK(back.status());
    EXPECT_EQ(EncodeSnapshotValue(*back), text);
  }
}

TEST(PersistenceTest, MalformedChecksumLineIsInvalidArgument) {
  std::string path = TempPath("snap_checksum.ode");
  Database db;
  SetUpSchema(&db);
  ODE_ASSERT_OK(db.SaveSnapshot(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  size_t pos = content.rfind("checksum ");
  ASSERT_NE(pos, std::string::npos);
  std::ofstream out(path, std::ios::trunc);
  out << content.substr(0, pos) << "checksum zz\n";
  out.close();

  Database db2;
  SetUpSchema(&db2);
  EXPECT_EQ(db2.LoadSnapshot(path).code(), StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, MalformedTimerSpecIsInvalidArgument) {
  Database db;
  SetUpSchema(&db);
  EXPECT_EQ(db.LoadSnapshotText("ODE-SNAPSHOT v1\n"
                                "timer 1 0 0 1 x * * * * * *\n")
                .code(),
            StatusCode::kInvalidArgument);
}

// SaveSnapshot publishes through a temp file and a rename: an existing
// snapshot is replaced whole and nothing is left beside it.
TEST(PersistenceTest, SaveReplacesAnExistingSnapshotWhole) {
  std::string path = TempPath("snap_replace.ode");
  Database big;
  SetUpSchema(&big);
  TxnId t = big.Begin().value();
  for (int i = 0; i < 20; ++i) {
    ODE_ASSERT_OK(big.New(t, "counter", {{"n", Value(i)}}).status());
  }
  ODE_ASSERT_OK(big.Commit(t));
  ODE_ASSERT_OK(big.SaveSnapshot(path));

  Database small;
  SetUpSchema(&small);
  t = small.Begin().value();
  Oid only = small.New(t, "counter", {{"n", Value(42)}}).value();
  ODE_ASSERT_OK(small.Commit(t));
  ODE_ASSERT_OK(small.SaveSnapshot(path));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  Database loaded;
  SetUpSchema(&loaded);
  ODE_ASSERT_OK(loaded.LoadSnapshot(path));
  EXPECT_EQ(loaded.PeekAttr(only, "n").value().AsInt().value(), 42);
  EXPECT_FALSE(loaded.PeekAttr(Oid{only.id + 1}, "n").ok());
}

}  // namespace
}  // namespace ode
