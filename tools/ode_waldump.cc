// ode-waldump: inspect (and repair) a durable event log directory.
//
// Prints the checkpoint summary and every WAL record in a directory
// written by IngestRuntime's durability subsystem (docs/DURABILITY.md).
// The dump is the operator's view of exactly what recovery would do:
// which records a checkpoint already covers, which would replay, and
// where a torn tail or corrupt record cuts a log short.
//
// Exit codes: 0 = directory is clean; 1 = damage found (torn tail, a
// corrupt/unreadable checkpoint, or a per-lane seqorder watermark gap) —
// everything readable is still printed; 2 = usage or I/O error.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ode/database.h"
#include "ode/snapshot_codec.h"
#include "runtime/ingest_runtime.h"
#include "seq/order_log.h"
#include "wal/checkpoint.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace {

constexpr char kUsage[] =
    "usage: ode-waldump [options] <wal-dir>\n"
    "\n"
    "Dumps the checkpoint, per-shard WAL records, and sequencer order\n"
    "log (seqorder.log) of a durable event log directory\n"
    "(docs/DURABILITY.md, docs/SEQUENCER.md), distinguishing records a\n"
    "checkpoint already covers from records recovery would replay. The\n"
    "order log is also checked for per-lane watermark gaps (lane_seq must\n"
    "be contiguous within a lane after its first record): a gap means\n"
    "sequenced events were lost and counts as damage.\n"
    "\n"
    "options:\n"
    "  --summary       per-file totals only, no per-record lines\n"
    "  --repair        truncate torn tails in place (fsynced), the same\n"
    "                  cut recovery would make in memory\n"
    "  --gen-fixture   populate <wal-dir> with a small demo log +\n"
    "                  checkpoint (for smoke tests), then dump it\n"
    "  -h, --help      show this help\n"
    "\n"
    "exit status: 0 clean, 1 damage found, 2 usage/IO error\n";

void PrintRecord(const ode::wal::WalRecord& r, bool covered) {
  std::printf("    lsn=%" PRIu64 " oid=%" PRIu64 " method=%s argc=%zu", r.lsn,
              r.oid.id, r.method.c_str(), r.args.size());
  for (const ode::Value& v : r.args) {
    std::printf(" %s", ode::EncodeSnapshotValue(v).c_str());
  }
  if (!r.producer_id.empty()) {
    std::printf(" producer=%s seq=%" PRIu64, r.producer_id.c_str(),
                r.producer_seq);
  }
  std::printf("%s\n", covered ? " [covered]" : "");
}

/// Writes a small but representative fixture: a demo runtime posts through
/// the durable path, checkpoints mid-stream (so the checkpoint carries
/// state and covered lsns), then posts more (so live records remain for
/// replay), including identified posts (so watermarks are present).
int GenFixture(const std::string& dir) {
  ode::Database db;
  ode::ClassDef def("cell");
  def.AddAttr("v", ode::Value(0));
  def.AddMethod(ode::MethodDef{
      "add",
      {{"int", "d"}},
      ode::MethodKind::kUpdate,
      [](ode::MethodContext* ctx) -> ode::Status {
        ODE_ASSIGN_OR_RETURN(ode::Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(ode::Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(ode::Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  // One class-scope trigger so the fixture also exercises the sequencer
  // order log (the posts after the checkpoint leave seqorder records).
  def.AddTrigger("CT(): perpetual every 2 (after add) ==> count");
  ode::Status reg = db.RegisterAction(
      "count", [](const ode::ActionContext&) { return ode::Status::OK(); });
  if (!reg.ok()) {
    std::fprintf(stderr, "ode-waldump: %s\n", reg.ToString().c_str());
    return 2;
  }
  ode::Result<ode::ClassId> cls = db.RegisterClass(std::move(def));
  if (!cls.ok()) {
    std::fprintf(stderr, "ode-waldump: %s\n", cls.status().ToString().c_str());
    return 2;
  }
  ode::Result<ode::TxnId> txn = db.Begin();
  if (!txn.ok()) {
    std::fprintf(stderr, "ode-waldump: %s\n", txn.status().ToString().c_str());
    return 2;
  }
  // Two cells, whose oids hash to different shards: both shard logs end
  // up holding records.
  std::vector<ode::Oid> cells;
  for (int i = 0; i < 2; ++i) {
    ode::Result<ode::Oid> created = db.New(*txn, "cell");
    if (!created.ok()) break;
    cells.push_back(*created);
  }
  if (cells.size() != 2 || !db.Commit(*txn).ok()) {
    std::fprintf(stderr, "ode-waldump: fixture schema setup failed\n");
    return 2;
  }
  ode::Status act = db.ActivateClassTrigger("cell", "CT");
  if (!act.ok()) {
    std::fprintf(stderr, "ode-waldump: %s\n", act.ToString().c_str());
    return 2;
  }

  ode::runtime::IngestOptions options;
  options.num_shards = 2;
  options.durability.dir = dir;
  options.durability.fsync = ode::wal::FsyncPolicy::kAlways;
  ode::runtime::IngestRuntime rt(&db, options);
  ode::Status s = rt.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "ode-waldump: %s\n", s.ToString().c_str());
    return 2;
  }
  for (int i = 1; s.ok() && i <= 4; ++i) {
    s = rt.Post(cells[i % 2], "add", {ode::Value(1)}, nullptr,
                "fixture-client", static_cast<uint64_t>(i));
  }
  if (s.ok()) s = rt.Drain();
  if (s.ok()) s = rt.Checkpoint();
  for (int i = 5; s.ok() && i <= 8; ++i) {
    s = rt.Post(cells[i % 2], "add", {ode::Value(1)}, nullptr,
                "fixture-client", static_cast<uint64_t>(i));
  }
  if (s.ok()) s = rt.Drain();
  ode::Status stop = rt.Stop();
  if (s.ok()) s = stop;
  if (!s.ok()) {
    std::fprintf(stderr, "ode-waldump: fixture: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("ode-waldump: wrote fixture under %s\n\n", dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool summary_only = false;
  bool repair = false;
  bool gen_fixture = false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-h") == 0 || std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(arg, "--summary") == 0) {
      summary_only = true;
    } else if (std::strcmp(arg, "--repair") == 0) {
      repair = true;
    } else if (std::strcmp(arg, "--gen-fixture") == 0) {
      gen_fixture = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "ode-waldump: unknown option '%s'\n%s", arg,
                   kUsage);
      return 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      std::fprintf(stderr, "ode-waldump: more than one directory given\n%s",
                   kUsage);
      return 2;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (gen_fixture) {
    int rc = GenFixture(dir);
    if (rc != 0) return rc;
  }

  bool damage = false;

  // Checkpoint first: its covered lsns decide how records are labeled.
  std::map<size_t, uint64_t> covered;
  ode::Result<ode::wal::CheckpointData> ckpt =
      ode::wal::ReadCheckpointFile(dir);
  if (ckpt.ok()) {
    covered = ckpt->covered_lsn;
    size_t inflight = 0;
    for (const auto& q : ckpt->inflight) inflight += q.size();
    std::printf("checkpoint: shards=%zu snapshot_bytes=%zu inflight=%zu\n",
                ckpt->num_shards, ckpt->snapshot_body.size(), inflight);
    for (const auto& entry : ckpt->covered_lsn) {
      std::printf("  covered: shard-%zu.wal through lsn %" PRIu64 "\n",
                  entry.first, entry.second);
    }
    for (const auto& entry : ckpt->applied) {
      std::printf("  watermark: %s applied %" PRIu64 " seq(s): %s\n",
                  entry.first.c_str(), entry.second.count(),
                  entry.second.ToString().c_str());
    }
    if (!summary_only) {
      for (size_t i = 0; i < ckpt->inflight.size(); ++i) {
        for (const ode::wal::WalRecord& r : ckpt->inflight[i]) {
          std::printf("  inflight shard %zu:\n", i);
          PrintRecord(r, /*covered=*/false);
        }
      }
    }
  } else if (ckpt.status().code() == ode::StatusCode::kNotFound) {
    std::printf("checkpoint: none\n");
  } else {
    std::printf("checkpoint: CORRUPT — %s\n",
                ckpt.status().message().c_str());
    damage = true;
  }

  std::vector<size_t> indices = ode::wal::ListShardLogs(dir);
  if (indices.empty() && !ckpt.ok() &&
      ckpt.status().code() == ode::StatusCode::kNotFound) {
    std::fprintf(stderr, "ode-waldump: no checkpoint or logs under %s\n",
                 dir.c_str());
    return 2;
  }
  for (size_t index : indices) {
    const std::string path = ode::wal::ShardLogPath(dir, index);
    ode::Result<ode::wal::LogReadResult> log = ode::wal::ReadLogFile(path);
    if (!log.ok()) {
      std::fprintf(stderr, "ode-waldump: %s: %s\n", path.c_str(),
                   log.status().ToString().c_str());
      return 2;
    }
    const uint64_t cover =
        covered.count(index) != 0 ? covered.at(index) : 0;
    size_t replay = 0;
    for (const ode::wal::WalRecord& r : log->records) {
      if (r.lsn > cover) ++replay;
    }
    std::printf(
        "shard-%zu.wal: records=%zu replay=%zu bytes=%" PRIu64
        " last_lsn=%" PRIu64 "%s\n",
        index, log->records.size(), replay, log->total_bytes,
        log->last_lsn(), log->torn ? " TORN" : "");
    if (!summary_only) {
      for (const ode::wal::WalRecord& r : log->records) {
        PrintRecord(r, r.lsn <= cover);
      }
    }
    if (log->torn) {
      damage = true;
      std::printf("  torn tail: %" PRIu64 " byte(s) after lsn %" PRIu64
                  " — %s\n",
                  log->torn_bytes(), log->last_lsn(),
                  log->torn_error.c_str());
      if (repair) {
        ode::Status ts =
            ode::wal::TruncateLogFile(path, log->valid_bytes);
        if (!ts.ok()) {
          std::fprintf(stderr, "ode-waldump: repair %s: %s\n", path.c_str(),
                       ts.ToString().c_str());
          return 2;
        }
        std::printf("  repaired: truncated to %" PRIu64 " byte(s)\n",
                    log->valid_bytes);
      }
    }
  }

  // Sequencer order log: the merged class-scope order the sequencer
  // already applied (docs/SEQUENCER.md). Absent when the run had no
  // class-scope activity (the file is created lazily) or predates the
  // sequencer.
  const std::string seqpath = ode::seq::OrderLogPath(dir);
  ode::Result<ode::wal::LogContents<ode::seq::SeqEvent>> seqlog =
      ode::seq::ReadOrderLog(seqpath);
  if (!seqlog.ok()) {
    std::fprintf(stderr, "ode-waldump: %s: %s\n", seqpath.c_str(),
                 seqlog.status().ToString().c_str());
    return 2;
  }
  if (!seqlog->records.empty() || seqlog->torn || seqlog->valid_bytes > 0) {
    std::map<ode::ClassId, uint64_t> per_class;
    uint64_t max_lane = 0;
    // Per-lane watermark check: within one lane the sequencer assigns
    // lane_seq contiguously, so after the first record seen for a lane
    // (the starting watermark is arbitrary — a checkpoint may have
    // truncated the prefix) every record must follow its predecessor by
    // exactly one. A gap means order records were lost or reordered:
    // recovery re-applies the lane only up to the gap and re-derives the
    // rest from the shard logs, so the class order is not exact past it.
    struct LaneGap {
      uint32_t lane;
      uint64_t prev, got;
    };
    std::map<uint32_t, uint64_t> lane_watermark;
    std::vector<LaneGap> gaps;
    for (const ode::seq::SeqEvent& r : seqlog->records) {
      ++per_class[r.class_id];
      if (r.lane > max_lane) max_lane = r.lane;
      auto it = lane_watermark.find(r.lane);
      if (it == lane_watermark.end()) {
        lane_watermark.emplace(r.lane, r.lane_seq);
      } else {
        if (r.lane_seq != it->second + 1) {
          gaps.push_back(LaneGap{r.lane, it->second, r.lane_seq});
        }
        it->second = r.lane_seq;
      }
    }
    std::printf("seqorder.log: records=%zu lanes<=%" PRIu64
                " bytes=%" PRIu64 "%s\n",
                seqlog->records.size(), max_lane + 1, seqlog->valid_bytes,
                seqlog->torn ? " TORN" : "");
    for (const auto& entry : per_class) {
      std::printf("  class %u: sequenced=%" PRIu64 "\n", entry.first,
                  entry.second);
    }
    for (const LaneGap& gap : gaps) {
      damage = true;
      std::printf("  lane %u: WATERMARK GAP — lane_seq %" PRIu64
                  " follows %" PRIu64 " (expected %" PRIu64
                  "); sequenced events were lost or reordered\n",
                  gap.lane, gap.got, gap.prev, gap.prev + 1);
    }
    if (!summary_only) {
      for (const ode::seq::SeqEvent& r : seqlog->records) {
        std::printf("    lane=%u seq=%" PRIu64 " class=%u oid=%" PRIu64
                    " method=%s syms=%zu\n",
                    r.lane, r.lane_seq, r.class_id, r.oid.id,
                    r.event.method_name.c_str(), r.syms.size());
      }
    }
    if (seqlog->torn) {
      damage = true;
      std::printf("  torn tail after %zu record(s) — %s\n",
                  seqlog->records.size(), seqlog->torn_error.c_str());
      if (repair) {
        ode::Status ts =
            ode::wal::TruncateLogFile(seqpath, seqlog->valid_bytes);
        if (!ts.ok()) {
          std::fprintf(stderr, "ode-waldump: repair %s: %s\n",
                       seqpath.c_str(), ts.ToString().c_str());
          return 2;
        }
        std::printf("  repaired: truncated to %" PRIu64 " byte(s)\n",
                    seqlog->valid_bytes);
      }
    }
  }
  return damage ? 1 : 0;
}
