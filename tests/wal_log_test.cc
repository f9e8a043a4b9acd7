// Durable event log unit tests: SeqSet algebra, record codec roundtrips
// and caps, writer/reader roundtrips under every fsync policy, torn-tail
// and bit-flip detection, checkpoint file roundtrips, and clean-restart
// recovery through IngestRuntime (stop → new runtime over the same dir →
// identical state, each event applied exactly once).
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "ode/database.h"
#include "runtime/ingest_runtime.h"
#include "seq/order_log.h"
#include "test_util.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/recovery.h"

namespace ode {
namespace {

using runtime::IngestOptions;
using runtime::IngestRuntime;
using wal::CheckpointData;
using wal::FsyncPolicy;
using wal::LogReadResult;
using wal::LogWriter;
using wal::SeqSet;
using wal::WalOptions;
using wal::WalRecord;

/// Self-cleaning temp directory for one test.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ode-wal-test-XXXXXX";
    char* got = mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : "";
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::string cmd = "rm -rf '" + path_ + "'";
      (void)!system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- SeqSet ------------------------------------------------------------

TEST(SeqSetTest, AddAndContains) {
  SeqSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(1));
  EXPECT_EQ(s.max_seq(), 0u);

  s.Add(5);
  s.Add(3);
  s.Add(4);  // Bridges 3..5 into one run.
  s.Add(9);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(4));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(6));
  EXPECT_TRUE(s.Contains(9));
  EXPECT_EQ(s.max_seq(), 9u);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.run_count(), 2u);
  EXPECT_EQ(s.ToString(), "3-5,9");
}

TEST(SeqSetTest, DuplicateAddIsNoOp) {
  SeqSet s;
  s.Add(7);
  s.Add(7);
  s.Add(7);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.run_count(), 1u);
}

TEST(SeqSetTest, MergesAdjacentRuns) {
  SeqSet s;
  s.Add(1);
  s.Add(3);
  EXPECT_EQ(s.run_count(), 2u);
  s.Add(2);  // Closes the hole.
  EXPECT_EQ(s.run_count(), 1u);
  EXPECT_EQ(s.ToString(), "1-3");
}

TEST(SeqSetTest, ParseRoundtrip) {
  SeqSet s;
  for (uint64_t v : {1, 2, 3, 4, 5, 7, 9, 10, 11, 12}) s.Add(v);
  EXPECT_EQ(s.ToString(), "1-5,7,9-12");
  Result<SeqSet> parsed = SeqSet::Parse(s.ToString());
  ODE_ASSERT_OK(parsed.status());
  EXPECT_EQ(*parsed, s);

  Result<SeqSet> empty = SeqSet::Parse("");
  ODE_ASSERT_OK(empty.status());
  EXPECT_TRUE(empty->empty());

  EXPECT_FALSE(SeqSet::Parse("3-1").ok());     // Inverted run.
  EXPECT_FALSE(SeqSet::Parse("1,,2").ok());    // Empty element.
  EXPECT_FALSE(SeqSet::Parse("banana").ok());  // Not numbers.
  EXPECT_FALSE(SeqSet::Parse("3,4").ok());     // Adjacent runs.
  // Overlap after a run ending at 2^64-1 (prev_hi + 1 would wrap), and
  // repeats or adjacency after a run ending at 0.
  EXPECT_FALSE(SeqSet::Parse("1-18446744073709551615,5").ok());
  EXPECT_FALSE(SeqSet::Parse("0,0").ok());
  EXPECT_FALSE(SeqSet::Parse("0,1").ok());
  ODE_EXPECT_OK(SeqSet::Parse("0,2").status());
  ODE_EXPECT_OK(SeqSet::Parse("1-5,7-18446744073709551615").status());
}

// ---- Record codec ------------------------------------------------------

WalRecord SampleRecord() {
  WalRecord r;
  r.oid = Oid{42};
  r.method = "add";
  r.args = {Value(7), Value("text with spaces\nand newline")};
  r.producer_id = "client-a";
  r.producer_seq = 19;
  return r;
}

/// One framed shard WAL record, as LogWriter writes it.
std::string Framed(const WalRecord& record) {
  std::string payload;
  EXPECT_TRUE(wal::EncodeRecordPayload(&payload, record).ok());
  std::string framed;
  wal::AppendFrame(&framed, payload);
  return framed;
}

TEST(WalRecordTest, EncodeDecodeRoundtrip) {
  WalRecord in = SampleRecord();
  in.lsn = 3;
  const std::string buf = Framed(in);

  std::string_view payload;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(wal::DecodeFrame(buf.data(), buf.size(), &payload, &consumed,
                             &error),
            wal::DecodeStatus::kRecord)
      << error;
  EXPECT_EQ(consumed, buf.size());
  WalRecord out;
  ODE_ASSERT_OK(wal::DecodeRecordPayload(payload, &out));
  EXPECT_EQ(out.lsn, 3u);
  EXPECT_EQ(out.oid.id, 42u);
  EXPECT_EQ(out.method, "add");
  ASSERT_EQ(out.args.size(), 2u);
  EXPECT_EQ(out.args[0].AsInt().value(), 7);
  EXPECT_EQ(out.producer_id, "client-a");
  EXPECT_EQ(out.producer_seq, 19u);
}

// Pinned bytes: the codec must keep producing exactly this record. Round
// trips alone would pass a change made the same way to encoder and
// decoder.
TEST(WalRecordTest, EncodingMatchesGolden) {
  WalRecord in = SampleRecord();
  in.lsn = 3;
  EXPECT_EQ(testing_util::HexOf(Framed(in)),
            "53000000ff273cee03000000000000002a000000000000001300000000000000"
            "0800636c69656e742d61030061646402000500696e743a3721007374723a7465"
            "78742077697468207370616365735c6e616e64206e65776c696e65");
}

TEST(WalRecordTest, RejectsOverCapRecords) {
  std::string payload;
  WalRecord method_too_long = SampleRecord();
  method_too_long.method.assign(wal::kMaxWalMethodLen + 1, 'm');
  EXPECT_EQ(wal::EncodeRecordPayload(&payload, method_too_long).code(),
            StatusCode::kInvalidArgument);

  WalRecord too_many_args = SampleRecord();
  too_many_args.args.assign(wal::kMaxWalArgs + 1, Value(1));
  EXPECT_EQ(wal::EncodeRecordPayload(&payload, too_many_args).code(),
            StatusCode::kInvalidArgument);
}

TEST(WalRecordTest, TruncatedBufferNeedsMore) {
  const std::string buf = Framed(SampleRecord());
  std::string_view payload;
  size_t consumed = 0;
  std::string error;
  for (size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(wal::DecodeFrame(buf.data(), n, &payload, &consumed, &error),
              wal::DecodeStatus::kNeedMore)
        << "at prefix " << n;
  }
}

TEST(WalRecordTest, BitFlipFailsCrc) {
  std::string buf = Framed(SampleRecord());
  // Flip one payload bit (past the 8-byte header).
  buf[10] = static_cast<char>(buf[10] ^ 0x40);
  std::string_view payload;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(wal::DecodeFrame(buf.data(), buf.size(), &payload, &consumed,
                             &error),
            wal::DecodeStatus::kCorrupt);
  EXPECT_FALSE(error.empty());
}

// ---- Writer / reader ---------------------------------------------------

WalOptions PolicyOptions(const std::string& dir, FsyncPolicy policy) {
  WalOptions o;
  o.dir = dir;
  o.fsync = policy;
  o.fsync_every_n = 3;
  return o;
}

TEST(LogWriterTest, RoundtripUnderEveryPolicy) {
  for (FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kEveryN,
                             FsyncPolicy::kEveryMs, FsyncPolicy::kNever}) {
    SCOPED_TRACE(wal::FsyncPolicyName(policy));
    TempDir dir;
    const std::string path = wal::ShardLogPath(dir.path(), 0);
    LogWriter writer;
    ODE_ASSERT_OK(writer.Open(path, /*start_lsn=*/0,
                              PolicyOptions(dir.path(), policy)));
    for (int i = 0; i < 10; ++i) {
      WalRecord r = SampleRecord();
      r.producer_seq = static_cast<uint64_t>(i + 1);
      ODE_ASSERT_OK(writer.Append(&r));
      EXPECT_EQ(r.lsn, static_cast<uint64_t>(i + 1));
    }
    ODE_ASSERT_OK(writer.Sync());
    EXPECT_EQ(writer.last_lsn(), 10u);
    writer.Close();

    Result<LogReadResult> log = wal::ReadLogFile(path);
    ODE_ASSERT_OK(log.status());
    EXPECT_FALSE(log->torn);
    ASSERT_EQ(log->records.size(), 10u);
    EXPECT_EQ(log->records.back().lsn, 10u);
    EXPECT_EQ(log->records.back().producer_seq, 10u);
  }
}

TEST(LogWriterTest, ReopenContinuesLsnAndTruncateKeepsCounter) {
  TempDir dir;
  const std::string path = wal::ShardLogPath(dir.path(), 0);
  WalOptions options = PolicyOptions(dir.path(), FsyncPolicy::kAlways);
  {
    LogWriter writer;
    ODE_ASSERT_OK(writer.Open(path, 0, options));
    WalRecord r = SampleRecord();
    ODE_ASSERT_OK(writer.Append(&r));
    EXPECT_EQ(r.lsn, 1u);
  }
  {
    // Reopen where the file left off (recovery's append mode).
    LogWriter writer;
    ODE_ASSERT_OK(writer.Open(path, /*start_lsn=*/1, options));
    WalRecord r = SampleRecord();
    ODE_ASSERT_OK(writer.Append(&r));
    EXPECT_EQ(r.lsn, 2u);

    // Truncation empties the file but the lsn counter keeps running, so
    // later records stay above any checkpoint's covered lsn.
    ODE_ASSERT_OK(writer.Truncate());
    r = SampleRecord();
    ODE_ASSERT_OK(writer.Append(&r));
    EXPECT_EQ(r.lsn, 3u);
  }
  Result<LogReadResult> log = wal::ReadLogFile(path);
  ODE_ASSERT_OK(log.status());
  ASSERT_EQ(log->records.size(), 1u);
  EXPECT_EQ(log->records[0].lsn, 3u);
}

// ---- Reader: both logs through one frame scanner ------------------------

seq::SeqEvent SampleOrderEvent() {
  seq::SeqEvent ev;
  ev.class_id = 2;
  ev.oid = Oid{42};
  ev.lane = 1;
  ev.lane_seq = 7;
  ev.event.method_name = "add";
  ev.event.args = {EventArg{"d", Value(5)}, EventArg{"s", Value("x y")}};
  ev.event.object = Oid{42};
  ev.event.txn = 9;
  ev.event.time = 1234;
  ev.event.seq = 3;
  ev.syms = {seq::SeqSym{0, 1}, seq::SeqSym{2, 3}};
  return ev;
}

TEST(OrderRecordTest, EncodingMatchesGoldenAndRoundtrips) {
  std::string payload;
  ODE_ASSERT_OK(seq::EncodeOrderRecord(&payload, SampleOrderEvent()));
  std::string framed;
  wal::AppendFrame(&framed, payload);
  EXPECT_EQ(testing_util::HexOf(framed),
            "630000007129fedd010000000700000000000000020000002a00000000000000"
            "0501030061646400000900000000000000d20400000000000003000000000000"
            "0002000000000001000000020000000300000002000100640500696e743a3501"
            "007307007374723a782079");

  seq::SeqEvent out;
  ODE_ASSERT_OK(seq::DecodeOrderRecord(payload, &out));
  EXPECT_EQ(out.lane_seq, 7u);
  EXPECT_EQ(out.event.time, 1234);
  ASSERT_EQ(out.event.args.size(), 2u);
  EXPECT_EQ(out.event.args[1].value.AsString().value(), "x y");
  ASSERT_EQ(out.syms.size(), 2u);
  EXPECT_EQ(out.syms[1].symbol, 3);
}

/// A framed log file read back: its clean prefix's record count and the
/// number of its last record, and the scan.
struct ReadBack {
  size_t records = 0;
  uint64_t last_number = 0;
  wal::LogScan scan;
};

/// One framed log as the reader cases see it. The shard WAL and the
/// sequencer order log share wal::LogWriter and the frame scanner, so
/// every case runs over both.
struct LogKind {
  const char* name;
  /// Payload of the log's record `i` (from 0), numbered i + 1: the shard
  /// WAL's lsn, the order log's lane_seq. Its one int argument encodes as
  /// "int:".
  std::string (*payload)(uint64_t i);
  Result<ReadBack> (*read)(const std::string& path);
};

std::string ShardWalPayload(uint64_t i) {
  WalRecord record = SampleRecord();
  record.lsn = i + 1;
  std::string payload;
  EXPECT_TRUE(wal::EncodeRecordPayload(&payload, record).ok());
  return payload;
}

std::string OrderLogPayload(uint64_t i) {
  seq::SeqEvent event = SampleOrderEvent();
  event.lane_seq = i + 1;
  std::string payload;
  EXPECT_TRUE(seq::EncodeOrderRecord(&payload, event).ok());
  return payload;
}

Result<ReadBack> ReadShardWal(const std::string& path) {
  ODE_ASSIGN_OR_RETURN(LogReadResult log, wal::ReadLogFile(path));
  return ReadBack{log.records.size(), log.last_lsn(), log};
}

Result<ReadBack> ReadOrderLog(const std::string& path) {
  ODE_ASSIGN_OR_RETURN(wal::LogContents<seq::SeqEvent> log,
                       seq::ReadOrderLog(path));
  return ReadBack{log.records.size(),
                  log.records.empty() ? 0 : log.records.back().lane_seq, log};
}

class LogReaderTest : public ::testing::TestWithParam<LogKind> {
 protected:
  /// Payloads of records 0..n-1.
  std::vector<std::string> Payloads(uint64_t n) {
    std::vector<std::string> payloads;
    for (uint64_t i = 0; i < n; ++i) payloads.push_back(GetParam().payload(i));
    return payloads;
  }

  /// Appends `payloads` through one kAlways writer; returns the byte
  /// offset at which each record ends.
  std::vector<uint64_t> Write(const std::vector<std::string>& payloads) {
    LogWriter writer;
    EXPECT_TRUE(
        writer.Open(path_, 0, PolicyOptions(dir_.path(), FsyncPolicy::kAlways))
            .ok());
    std::vector<uint64_t> ends;
    for (const std::string& payload : payloads) {
      EXPECT_TRUE(writer.AppendPayload(payload).ok());
      ends.push_back(writer.bytes_written());
    }
    return ends;
  }

  ReadBack Read() {
    Result<ReadBack> read = GetParam().read(path_);
    EXPECT_TRUE(read.ok()) << read.status().ToString();
    return read.ok() ? *read : ReadBack{};
  }

  TempDir dir_;
  const std::string path_ = dir_.path() + "/framed.log";
};

TEST_P(LogReaderTest, TornTailIsReportedAndPrefixKept) {
  std::vector<uint64_t> ends = Write(Payloads(4));
  // Cut the file mid-way through the last record: a crash torn tail.
  ODE_ASSERT_OK(wal::TruncateLogFile(path_, ends.back() - 5));

  ReadBack torn = Read();
  EXPECT_TRUE(torn.scan.torn);
  EXPECT_EQ(torn.records, 3u);
  EXPECT_EQ(torn.last_number, 3u);
  EXPECT_EQ(torn.scan.valid_bytes, ends[2]);
  EXPECT_GT(torn.scan.torn_bytes(), 0u);

  // Repair (what ode-waldump --repair does) leaves a clean log.
  ODE_ASSERT_OK(wal::TruncateLogFile(path_, torn.scan.valid_bytes));
  ReadBack repaired = Read();
  EXPECT_FALSE(repaired.scan.torn);
  EXPECT_EQ(repaired.records, 3u);
}

TEST_P(LogReaderTest, BitFlippedRecordCutsTheLog) {
  std::vector<uint64_t> ends = Write(Payloads(3));
  // Flip a bit inside the second record's payload.
  FILE* f = fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, static_cast<long>(ends[0]) + 12, SEEK_SET), 0);
  int c = fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(fseek(f, -1, SEEK_CUR), 0);
  fputc(c ^ 0x01, f);
  fclose(f);

  ReadBack read = Read();
  EXPECT_TRUE(read.scan.torn);
  EXPECT_EQ(read.records, 1u);  // Only the intact prefix survives.
  EXPECT_EQ(read.last_number, 1u);
  EXPECT_EQ(read.scan.valid_bytes, ends[0]);
}

TEST_P(LogReaderTest, MalformedPayloadWithValidCrcCutsTheLog) {
  // A record whose CRC matches but whose value text does not parse
  // ("int:x"): a writer bug or a crafted file, reported as a corrupt
  // record instead of aborting the reader.
  std::vector<std::string> payloads = Payloads(4);
  std::string& malformed = payloads[2];
  const size_t at = malformed.find("int:");
  ASSERT_NE(at, std::string::npos);
  malformed[at + 4] = 'x';
  std::vector<uint64_t> ends = Write(payloads);

  ReadBack read = Read();
  EXPECT_TRUE(read.scan.torn);
  EXPECT_EQ(read.records, 2u);
  EXPECT_EQ(read.last_number, 2u);
  EXPECT_EQ(read.scan.valid_bytes, ends[1]);
  EXPECT_NE(read.scan.torn_error.find("int:x"), std::string::npos)
      << read.scan.torn_error;
}

INSTANTIATE_TEST_SUITE_P(
    Logs, LogReaderTest,
    ::testing::Values(LogKind{"ShardWal", ShardWalPayload, ReadShardWal},
                      LogKind{"OrderLog", OrderLogPayload, ReadOrderLog}),
    [](const ::testing::TestParamInfo<LogKind>& info) {
      return std::string(info.param.name);
    });

// ---- Checkpoint file ---------------------------------------------------

TEST(CheckpointTest, RoundtripAllSections) {
  TempDir dir;
  CheckpointData in;
  in.num_shards = 2;
  in.snapshot_body = "ODE-SNAPSHOT v1\nclock 5\nnext_oid 9\n";
  in.covered_lsn[0] = 17;
  in.covered_lsn[3] = 4;  // Orphan file from an older shard layout.
  in.shard_metrics.resize(2);
  in.shard_metrics[0].enqueued = 100;
  in.shard_metrics[1].fired = 7;
  in.base_metrics.processed = 55;
  in.has_base_metrics = true;
  in.applied["client a"].Add(1);  // Space forces token escaping.
  in.applied["client a"].Add(2);
  in.applied["client a"].Add(9);
  in.inflight.resize(2);
  in.inflight[1].push_back(SampleRecord());
  ODE_ASSERT_OK(wal::WriteCheckpointFile(dir.path(), in));

  Result<CheckpointData> out = wal::ReadCheckpointFile(dir.path());
  ODE_ASSERT_OK(out.status());
  EXPECT_EQ(out->num_shards, 2u);
  EXPECT_EQ(out->snapshot_body, in.snapshot_body);
  EXPECT_EQ(out->covered_lsn, in.covered_lsn);
  ASSERT_EQ(out->shard_metrics.size(), 2u);
  EXPECT_EQ(out->shard_metrics[0].enqueued, 100u);
  EXPECT_EQ(out->shard_metrics[1].fired, 7u);
  EXPECT_TRUE(out->has_base_metrics);
  EXPECT_EQ(out->base_metrics.processed, 55u);
  ASSERT_EQ(out->applied.count("client a"), 1u);
  EXPECT_EQ(out->applied.at("client a").ToString(), "1-2,9");
  ASSERT_EQ(out->inflight.size(), 2u);
  ASSERT_EQ(out->inflight[1].size(), 1u);
  EXPECT_EQ(out->inflight[1][0].method, "add");
  EXPECT_EQ(out->inflight[1][0].producer_id, "client-a");
}

TEST(CheckpointTest, FileMatchesGolden) {
  TempDir dir;
  CheckpointData in;
  in.num_shards = 2;
  in.snapshot_body = "ODE-SNAPSHOT v1\nclock 5\nnext_oid 9\n";
  in.covered_lsn[0] = 17;
  in.covered_lsn[3] = 4;
  in.shard_metrics.resize(2);
  in.shard_metrics[0].enqueued = 100;
  in.shard_metrics[1].fired = 7;
  in.base_metrics.processed = 55;
  in.has_base_metrics = true;
  in.applied["client a"].Add(1);
  in.applied["client a"].Add(2);
  in.applied["client a"].Add(9);
  in.seqlane = {3, 0, 1};
  in.inflight.resize(2);
  in.inflight[1].push_back(SampleRecord());
  ODE_ASSERT_OK(wal::WriteCheckpointFile(dir.path(), in));

  Result<std::string> bytes = ReadFileToString(wal::CheckpointPath(dir.path()));
  ODE_ASSERT_OK(bytes.status());
  EXPECT_EQ(*bytes, R"(ODE-CHECKPOINT v1
shards 2
covered 0 17
covered 3 4
shardmetric 0 100 0 0 0 0 0 0 0 0 0 0
shardmetric 1 0 0 0 0 7 0 0 0 0 0 0
basemetric 0 0 0 55 0 0 0 0 0 0 0
watermark client%20a 1-2,9
seqlane 0 3
seqlane 1 0
seqlane 2 1
inflight 1 42 19 client%2Da add 2
iarg int:7
iarg str:text with spaces\nand newline
snapshot 35
ODE-SNAPSHOT v1
clock 5
next_oid 9

checksum 0d85a4faba814993
)");
}

TEST(CheckpointTest, MissingIsNotFoundCorruptIsInvalid) {
  TempDir dir;
  Result<CheckpointData> missing = wal::ReadCheckpointFile(dir.path());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  CheckpointData data;
  data.num_shards = 1;
  data.snapshot_body = "ODE-SNAPSHOT v1\n";
  data.inflight.resize(1);
  ODE_ASSERT_OK(wal::WriteCheckpointFile(dir.path(), data));
  // Flip a byte: the checksum must catch it, and a corrupt checkpoint is
  // a hard error (silently skipping it would replay the full log against
  // an empty database).
  const std::string path = wal::CheckpointPath(dir.path());
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, 20, SEEK_SET), 0);
  fputc('!', f);
  fclose(f);
  Result<CheckpointData> corrupt = wal::ReadCheckpointFile(dir.path());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);
}

// ---- LoadDurableState --------------------------------------------------

TEST(RecoveryTest, FiltersRecordsCoveredByTheCheckpoint) {
  TempDir dir;
  {
    LogWriter writer;
    ODE_ASSERT_OK(writer.Open(wal::ShardLogPath(dir.path(), 0), 0,
                              PolicyOptions(dir.path(),
                                            FsyncPolicy::kAlways)));
    for (int i = 0; i < 6; ++i) {
      WalRecord r = SampleRecord();
      ODE_ASSERT_OK(writer.Append(&r));
    }
  }
  CheckpointData ckpt;
  ckpt.num_shards = 1;
  ckpt.snapshot_body = "ODE-SNAPSHOT v1\n";
  ckpt.covered_lsn[0] = 4;  // Crash landed between rename and truncate.
  ckpt.inflight.resize(1);
  ODE_ASSERT_OK(wal::WriteCheckpointFile(dir.path(), ckpt));

  Result<wal::RecoveredState> state = wal::LoadDurableState(dir.path());
  ODE_ASSERT_OK(state.status());
  EXPECT_TRUE(state->had_checkpoint);
  ASSERT_EQ(state->replay.count(0), 1u);
  ASSERT_EQ(state->replay.at(0).size(), 2u);  // lsns 5 and 6 only.
  EXPECT_EQ(state->replay.at(0)[0].lsn, 5u);
  EXPECT_EQ(state->skipped_covered, 4u);
  EXPECT_EQ(state->file_last_lsn.at(0), 6u);
}

TEST(RecoveryTest, MalformedRecordIsATornTailNotACrash) {
  TempDir dir;
  {
    LogWriter writer;
    ODE_ASSERT_OK(writer.Open(wal::ShardLogPath(dir.path(), 0), 0,
                              PolicyOptions(dir.path(),
                                            FsyncPolicy::kAlways)));
    WalRecord r = SampleRecord();
    ODE_ASSERT_OK(writer.Append(&r));
    std::string malformed;
    r.lsn = 2;
    ODE_ASSERT_OK(wal::EncodeRecordPayload(&malformed, r));
    malformed[malformed.find("int:7") + 4] = 'x';  // CRC stays valid.
    ODE_ASSERT_OK(writer.AppendPayload(malformed));
  }
  Result<wal::RecoveredState> state = wal::LoadDurableState(dir.path());
  ODE_ASSERT_OK(state.status());
  EXPECT_EQ(state->torn_files, 1u);
  ASSERT_EQ(state->replay.count(0), 1u);
  EXPECT_EQ(state->replay.at(0).size(), 1u);
}

// ---- Runtime recovery (clean restart) ----------------------------------

Status CountAction(const ActionContext& ctx) {
  Result<Value> t = ctx.db->PeekAttr(ctx.self, "touches");
  if (!t.ok()) return t.status();
  Result<Value> next = t->Add(Value(1));
  if (!next.ok()) return next.status();
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", next.value());
}

ClassDef CellClass() {
  ClassDef def("cell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddTrigger("T1(): perpetual every 3 (after add) ==> count");
  return def;
}

std::vector<Oid> SetupCells(Database* db, size_t n) {
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterClass(CellClass()).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < n; ++i) {
    Result<Oid> oid = db->New(t, "cell");
    EXPECT_TRUE(oid.ok());
    oids.push_back(*oid);
    ODE_EXPECT_OK(db->ActivateTrigger(t, *oid, "T1"));
  }
  ODE_EXPECT_OK(db->Commit(t));
  return oids;
}

IngestOptions DurableOptions(const std::string& dir) {
  IngestOptions o;
  o.num_shards = 2;
  o.durability.dir = dir;
  o.durability.fsync = FsyncPolicy::kAlways;
  return o;
}

TEST(DurableRuntimeTest, CleanRestartRestoresStateWithoutReplay) {
  TempDir dir;
  constexpr int kEvents = 50;
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 4);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    for (int i = 0; i < kEvents; ++i) {
      ODE_ASSERT_OK(rt.Post(oids[i % oids.size()], "add", {Value(1)}));
    }
    ODE_ASSERT_OK(rt.Drain());
    ODE_ASSERT_OK(rt.Checkpoint());  // Everything lands in the snapshot.
    ODE_ASSERT_OK(rt.Stop());
  }
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 4);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    EXPECT_TRUE(rt.recovery().had_checkpoint);
    EXPECT_EQ(rt.recovery().replayed_events, 0u);  // Checkpoint covered all.
    int64_t total = 0;
    int64_t touches = 0;
    for (const Oid& oid : oids) {
      total += db.PeekAttr(oid, "v").value().AsInt().value();
      touches += db.PeekAttr(oid, "touches").value().AsInt().value();
    }
    EXPECT_EQ(total, kEvents);
    // 50 adds over 4 cells: 12+13+13+12 adds → 4+4+4+4 T1 firings... the
    // exact split depends on oid routing, so check the invariant instead:
    // touches == sum over cells of floor(adds/3).
    int64_t expect_touches = 0;
    for (const Oid& oid : oids) {
      expect_touches += db.PeekAttr(oid, "v").value().AsInt().value() / 3;
    }
    EXPECT_EQ(touches, expect_touches);
    // Metrics baselines carried the first run's history.
    EXPECT_GE(rt.Metrics().total.processed, static_cast<uint64_t>(kEvents));
    ODE_ASSERT_OK(rt.Stop());
  }
}

TEST(DurableRuntimeTest, StopWithoutCheckpointReplaysTheLog) {
  TempDir dir;
  constexpr int kEvents = 30;
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 2);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    for (int i = 0; i < kEvents; ++i) {
      ODE_ASSERT_OK(rt.Post(oids[i % oids.size()], "add", {Value(1)}));
    }
    ODE_ASSERT_OK(rt.Stop());  // Graceful, but no checkpoint: WAL keeps all.
  }
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 2);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    // The baseline checkpoint from run 1's Start covered the pre-Start
    // state; all posts after it replay from the log.
    EXPECT_EQ(rt.recovery().replayed_events, static_cast<uint64_t>(kEvents));
    int64_t total = 0;
    for (const Oid& oid : oids) {
      total += db.PeekAttr(oid, "v").value().AsInt().value();
    }
    EXPECT_EQ(total, kEvents);
    ODE_ASSERT_OK(rt.Stop());
  }
}

TEST(DurableRuntimeTest, AppliedSeqsSurviveRestartExactlyOnce) {
  TempDir dir;
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 1);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    for (uint64_t seq = 1; seq <= 10; ++seq) {
      ODE_ASSERT_OK(
          rt.Post(oids[0], "add", {Value(1)}, nullptr, "client-x", seq));
    }
    ODE_ASSERT_OK(rt.Drain());
    ODE_ASSERT_OK(rt.Checkpoint());
    ODE_ASSERT_OK(rt.Stop());
  }
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 1);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    SeqSet applied = rt.AppliedSeqs("client-x");
    EXPECT_EQ(applied.ToString(), "1-10");
    EXPECT_TRUE(applied.Contains(5));
    EXPECT_TRUE(rt.AppliedSeqs("nobody").empty());
    ODE_ASSERT_OK(rt.Stop());
  }
}

TEST(DurableRuntimeTest, WalDisabledLeavesCheckpointUnavailable) {
  Database db;
  std::vector<Oid> oids = SetupCells(&db, 1);
  IngestRuntime rt(&db);  // No durability configured.
  ODE_ASSERT_OK(rt.Start());
  EXPECT_FALSE(rt.recovery().attempted);
  EXPECT_EQ(rt.Checkpoint().code(), StatusCode::kFailedPrecondition);
  // Identity tracking still works without a WAL (in-memory dedup).
  ODE_ASSERT_OK(rt.Post(oids[0], "add", {Value(1)}, nullptr, "mem-client", 1));
  ODE_ASSERT_OK(rt.Drain());
  EXPECT_TRUE(rt.AppliedSeqs("mem-client").Contains(1));
  ODE_ASSERT_OK(rt.Stop());
}

// A value whose snapshot text is over the WAL's 65,535-byte cap (a legal
// wire frame can carry one) is refused before it is queued. Logging stays
// on: every accepted post is in the log.
TEST(DurableRuntimeTest, OversizedValueIsRefusedAndLoggingStaysOn) {
  TempDir dir;
  Database db;
  std::vector<Oid> oids = SetupCells(&db, 1);
  IngestOptions o = DurableOptions(dir.path());
  o.num_shards = 1;
  IngestRuntime rt(&db, o);
  ODE_ASSERT_OK(rt.Start());
  for (int i = 0; i < 5; ++i) {
    ODE_ASSERT_OK(rt.Post(oids[0], "add", {Value(1)}));
  }
  Status big = rt.Post(oids[0], "add", {Value(std::string(70000, 'x'))});
  EXPECT_EQ(big.code(), StatusCode::kInvalidArgument) << big.ToString();
  for (int i = 0; i < 5; ++i) {
    ODE_ASSERT_OK(rt.Post(oids[0], "add", {Value(1)}));
  }
  ODE_ASSERT_OK(rt.Drain());
  EXPECT_FALSE(rt.wal_degraded());
  EXPECT_EQ(db.PeekAttr(oids[0], "v").value().AsInt().value(), 10);
  ODE_ASSERT_OK(rt.Stop());

  Result<LogReadResult> log = wal::ReadLogFile(wal::ShardLogPath(dir.path(), 0));
  ODE_ASSERT_OK(log.status());
  EXPECT_FALSE(log->torn);
  EXPECT_EQ(log->records.size(), 10u);
}

/// `add`'s object-scope trigger echoes a `note` inside the shard
/// transaction, so the note publishes on the shard's sequencer lane; the
/// note of add(2) carries a value text over the order record's
/// 65,535-byte cap. The class-scope trigger counts every note in
/// `touches`.
Status EchoAction(const ActionContext& ctx) {
  const Value* d = ctx.event->FindArg("d");
  const size_t len = d != nullptr && d->AsInt().value() == 2 ? 70000 : 1;
  return ctx.db
      ->Call(ctx.txn, ctx.self, "note", {Value(std::string(len, 'x'))})
      .status();
}

Oid SetupEchoCell(Database* db) {
  ClassDef def("ecell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(MethodDef{"note",
                          {{"string", "text"}},
                          MethodKind::kUpdate,
                          [](MethodContext*) { return Status::OK(); }});
  def.AddTrigger("Echo(): perpetual after add ==> echo");
  def.AddTrigger("NT(): perpetual after note ==> count");
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterAction("echo", EchoAction).ok());
  EXPECT_TRUE(db->RegisterClass(std::move(def)).status().ok());
  TxnId t = db->Begin().value();
  Oid oid = db->New(t, "ecell").value();
  ODE_EXPECT_OK(db->ActivateTrigger(t, oid, "Echo"));
  ODE_EXPECT_OK(db->Commit(t));
  ODE_EXPECT_OK(db->ActivateClassTrigger("ecell", "NT"));
  return oid;
}

// The over-cap note's order record is skipped, leaving a hole in its
// lane's lane_seqs. Recovery re-applies the lane only up to the hole and
// leaves the rest to shard replay, so that note still counts after a
// restart from the logs.
TEST(DurableRuntimeTest, OrderLogHoleIsReDerivedByShardReplay) {
  TempDir dir;
  IngestOptions o = DurableOptions(dir.path());
  o.num_shards = 1;
  int64_t touches = 0;
  {
    Database db;
    Oid oid = SetupEchoCell(&db);
    IngestRuntime rt(&db, o);
    ODE_ASSERT_OK(rt.Start());
    for (int d : {1, 1, 2, 1, 1}) {
      ODE_ASSERT_OK(rt.Post(oid, "add", {Value(d)}));
    }
    ODE_ASSERT_OK(rt.Drain());
    EXPECT_EQ(rt.Metrics().sequencer.apply_errors, 1u);
    EXPECT_FALSE(rt.wal_degraded());
    touches = db.PeekAttr(oid, "touches").value().AsInt().value();
    ODE_ASSERT_OK(rt.Stop());  // No checkpoint: the restart replays the logs.
  }
  EXPECT_EQ(touches, 5);  // One count per note.
  Result<wal::LogContents<seq::SeqEvent>> order =
      seq::ReadOrderLog(seq::OrderLogPath(dir.path()));
  ODE_ASSERT_OK(order.status());
  ASSERT_EQ(order->records.size(), 4u);
  EXPECT_EQ(order->records[1].lane_seq, 2u);
  EXPECT_EQ(order->records[2].lane_seq, 4u);
  {
    Database db;
    Oid oid = SetupEchoCell(&db);
    IngestRuntime rt(&db, o);
    ODE_ASSERT_OK(rt.Start());
    EXPECT_EQ(rt.recovery().sequenced_replayed, 2u);
    EXPECT_EQ(db.PeekAttr(oid, "v").value().AsInt().value(), 6);
    EXPECT_EQ(db.PeekAttr(oid, "touches").value().AsInt().value(), touches);
    ODE_ASSERT_OK(rt.Stop());
  }
}

/// `xcell`: the class-scope CT counts every third add anywhere and echoes a
/// note on the object that completed the cycle; the class-scope NT counts
/// every note in `touches`. The notes come from class actions, so they
/// publish on the shards' firing lanes.
Status ClassEchoAction(const ActionContext& ctx) {
  return ctx.db->Call(ctx.txn, ctx.self, "note", {Value(1)}).status();
}

std::vector<Oid> SetupClassEchoCells(Database* db, size_t n) {
  ClassDef def("xcell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(MethodDef{"note",
                          {{"int", "n"}},
                          MethodKind::kUpdate,
                          [](MethodContext*) { return Status::OK(); }});
  def.AddTrigger("CT(): perpetual every 3 (after add) ==> echo");
  def.AddTrigger("NT(): perpetual after note ==> count");
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterAction("echo", ClassEchoAction).ok());
  EXPECT_TRUE(db->RegisterClass(std::move(def)).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < n; ++i) oids.push_back(db->New(t, "xcell").value());
  ODE_EXPECT_OK(db->Commit(t));
  ODE_EXPECT_OK(db->ActivateClassTrigger("xcell", "CT"));
  ODE_EXPECT_OK(db->ActivateClassTrigger("xcell", "NT"));
  return oids;
}

// A restart from the logs alone re-applies the order log, whose records
// include the notes the echo actions posted on the firing lanes. The log
// keeps only a prefix of the apply order, as after a crash (it is written
// behind each apply). The recovered firings run again on their shards;
// their notes, and the replayed adds, are dropped as replays up to each
// lane's watermark and applied past it. That needs each lane's regenerated
// sequence to match the original, which holds only because notes never
// share a lane with the WAL-ordered adds: the counts match the
// uninterrupted run.
TEST(DurableRuntimeTest, ActionPostedEventsRecoverFromTheOrderLog) {
  TempDir dir;
  constexpr int kAdds = 60;
  IngestOptions o = DurableOptions(dir.path());
  o.num_shards = 4;
  struct Counts {
    uint64_t ct = 0;
    uint64_t nt = 0;
    int64_t touches = 0;
    int64_t v = 0;
  };
  auto counts = [](const Database& db, const std::vector<Oid>& oids) {
    Counts c;
    c.ct = db.ClassFireCount("xcell", "CT");
    c.nt = db.ClassFireCount("xcell", "NT");
    for (const Oid& oid : oids) {
      c.touches += db.PeekAttr(oid, "touches").value().AsInt().value();
      c.v += db.PeekAttr(oid, "v").value().AsInt().value();
    }
    return c;
  };
  Counts uninterrupted;
  {
    Database db;
    std::vector<Oid> oids = SetupClassEchoCells(&db, 6);
    IngestRuntime rt(&db, o);
    ODE_ASSERT_OK(rt.Start());
    for (int i = 0; i < kAdds; ++i) {
      ODE_ASSERT_OK(rt.Post(oids[i % oids.size()], "add", {Value(1)}));
    }
    ODE_ASSERT_OK(rt.Drain());
    uninterrupted = counts(db, oids);
    ODE_ASSERT_OK(rt.Stop());  // No checkpoint: the restart replays the logs.
  }
  EXPECT_EQ(uninterrupted.ct, static_cast<uint64_t>(kAdds / 3));
  EXPECT_EQ(uninterrupted.nt, static_cast<uint64_t>(kAdds / 3));
  EXPECT_EQ(uninterrupted.touches, kAdds / 3);
  EXPECT_EQ(uninterrupted.v, kAdds);
  const std::string order_path = seq::OrderLogPath(dir.path());
  Result<wal::LogContents<seq::SeqEvent>> order = seq::ReadOrderLog(order_path);
  ODE_ASSERT_OK(order.status());
  const size_t kept = order->records.size() / 2;
  ASSERT_GT(kept, 0u);
  {
    LogWriter writer;
    ODE_ASSERT_OK(writer.Open(order_path, 0, o.durability));
    ODE_ASSERT_OK(writer.Truncate());
    std::string payload;
    for (size_t i = 0; i < kept; ++i) {
      payload.clear();
      ODE_ASSERT_OK(seq::EncodeOrderRecord(&payload, order->records[i]));
      ODE_ASSERT_OK(writer.AppendPayload(payload));
    }
    ODE_ASSERT_OK(writer.Sync());
  }
  {
    Database db;
    std::vector<Oid> oids = SetupClassEchoCells(&db, 6);
    IngestRuntime rt(&db, o);
    ODE_ASSERT_OK(rt.Start());
    EXPECT_EQ(rt.recovery().sequenced_replayed, kept);
    Counts recovered = counts(db, oids);
    EXPECT_EQ(recovered.ct, uninterrupted.ct);
    EXPECT_EQ(recovered.nt, uninterrupted.nt);
    EXPECT_EQ(recovered.touches, uninterrupted.touches);
    EXPECT_EQ(recovered.v, uninterrupted.v);
    EXPECT_EQ(rt.Metrics().sequencer.apply_errors, 0u);
    ODE_ASSERT_OK(rt.Stop());
  }
}

// A checkpoint taken while a decided class firing has not run yet must
// wait for it: the snapshot already holds the automaton step that decided
// the firing, and the checkpoint truncates the order log that could
// re-decide it. The checkpoint starts once the shard has committed the
// adds, typically before the merge thread (one fsync per order record)
// decides the firing, so the firing reaches a parked worker; the action is
// slow, so it is still running when the snapshot would be taken.
TEST(DurableRuntimeTest, CheckpointWaitsForDecidedFirings) {
  TempDir dir;
  auto setup = [](Database* db) {
    ClassDef def("slow");
    def.AddAttr("touches", Value(0));
    def.AddMethod(MethodDef{"add",
                            {{"int", "d"}},
                            MethodKind::kUpdate,
                            [](MethodContext*) { return Status::OK(); }});
    def.AddTrigger("CT(): perpetual every 3 (after add) ==> slow_count");
    EXPECT_TRUE(db->RegisterAction("slow_count", [](const ActionContext& ctx) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    return CountAction(ctx);
                  }).ok());
    EXPECT_TRUE(db->RegisterClass(std::move(def)).status().ok());
    TxnId t = db->Begin().value();
    Oid oid = db->New(t, "slow").value();
    ODE_EXPECT_OK(db->Commit(t));
    ODE_EXPECT_OK(db->ActivateClassTrigger("slow", "CT"));
    return oid;
  };
  {
    Database db;
    Oid oid = setup(&db);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    for (int i = 0; i < 3; ++i) {
      ODE_ASSERT_OK(rt.Post(oid, "add", {Value(1)}));
    }
    while (rt.Metrics().total.processed < 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ODE_ASSERT_OK(rt.Checkpoint());
    EXPECT_EQ(db.PeekAttr(oid, "touches").value().AsInt().value(), 1);
    ODE_ASSERT_OK(rt.Stop());
  }
  {
    Database db;
    Oid oid = setup(&db);
    IngestRuntime rt(&db, DurableOptions(dir.path()));
    ODE_ASSERT_OK(rt.Start());
    EXPECT_EQ(rt.recovery().replayed_events, 0u);
    EXPECT_EQ(db.PeekAttr(oid, "touches").value().AsInt().value(), 1);
    ODE_ASSERT_OK(rt.Stop());
  }
}

TEST(DurableRuntimeTest, ShardCountChangeReplaysOrphanLogs) {
  TempDir dir;
  constexpr int kEvents = 24;
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 3);
    IngestOptions o = DurableOptions(dir.path());
    o.num_shards = 4;
    IngestRuntime rt(&db, o);
    ODE_ASSERT_OK(rt.Start());
    for (int i = 0; i < kEvents; ++i) {
      ODE_ASSERT_OK(rt.Post(oids[i % oids.size()], "add", {Value(1)}));
    }
    ODE_ASSERT_OK(rt.Stop());
  }
  {
    Database db;
    std::vector<Oid> oids = SetupCells(&db, 3);
    IngestOptions o = DurableOptions(dir.path());
    o.num_shards = 1;  // Fewer shards: files 1..3 become orphans.
    IngestRuntime rt(&db, o);
    ODE_ASSERT_OK(rt.Start());
    EXPECT_EQ(rt.recovery().replayed_events, static_cast<uint64_t>(kEvents));
    int64_t total = 0;
    for (const Oid& oid : oids) {
      total += db.PeekAttr(oid, "v").value().AsInt().value();
    }
    EXPECT_EQ(total, kEvents);
    // The post-recovery checkpoint unlinked the orphan files.
    EXPECT_EQ(wal::ListShardLogs(dir.path()), std::vector<size_t>{0});
    ODE_ASSERT_OK(rt.Stop());
  }
}

}  // namespace
}  // namespace ode
