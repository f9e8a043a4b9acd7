#include "wal/checkpoint.h"

#include <cstring>

#include "common/file_io.h"
#include "common/strutil.h"
#include "ode/snapshot_codec.h"

namespace ode {
namespace wal {

namespace {

constexpr std::string_view kMagic = "ODE-CHECKPOINT v1";

/// Tokens (producer identities, method names) are percent-escaped so the
/// line format survives arbitrary bytes; the empty string becomes "-".
std::string EscapeToken(std::string_view s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_';
    if (safe) {
      out.push_back(static_cast<char>(c));
    } else {
      static const char* kHex = "0123456789ABCDEF";
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    }
  }
  return out;
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

Result<std::string> UnescapeToken(std::string_view s) {
  if (s == "-") return std::string();
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) {
      return Status::InvalidArgument("truncated %-escape in token");
    }
    int hi = HexNibble(s[i + 1]);
    int lo = HexNibble(s[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad %-escape in token");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

void AppendMetricCounters(std::string* out,
                          const runtime::ShardMetricsSnapshot& m) {
  *out += StrFormat(
      " %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
      (unsigned long long)m.enqueued, (unsigned long long)m.dropped,
      (unsigned long long)m.rejected, (unsigned long long)m.processed,
      (unsigned long long)m.fired, (unsigned long long)m.aborted,
      (unsigned long long)m.retried, (unsigned long long)m.dead_lettered,
      (unsigned long long)m.epilogue_failures, (unsigned long long)m.batches,
      (unsigned long long)m.queue_high_water);
}

bool ParseMetricCounters(const std::vector<std::string>& tokens, size_t at,
                         runtime::ShardMetricsSnapshot* m) {
  uint64_t* fields[11] = {&m->enqueued,          &m->dropped,
                          &m->rejected,          &m->processed,
                          &m->fired,             &m->aborted,
                          &m->retried,           &m->dead_lettered,
                          &m->epilogue_failures, &m->batches,
                          &m->queue_high_water};
  if (tokens.size() != at + 11) return false;
  for (size_t i = 0; i < 11; ++i) {
    if (!ParseNumber(tokens[at + i], fields[i])) return false;
  }
  return true;
}

std::string Serialize(const CheckpointData& data) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += StrFormat("shards %zu\n", data.num_shards);
  for (const auto& [file, lsn] : data.covered_lsn) {
    out += StrFormat("covered %zu %llu\n", file, (unsigned long long)lsn);
  }
  for (size_t i = 0; i < data.shard_metrics.size(); ++i) {
    out += StrFormat("shardmetric %zu", i);
    AppendMetricCounters(&out, data.shard_metrics[i]);
    out += '\n';
  }
  if (data.has_base_metrics) {
    out += "basemetric";
    AppendMetricCounters(&out, data.base_metrics);
    out += '\n';
  }
  for (const auto& [id, seqs] : data.applied) {
    if (seqs.empty()) continue;
    out += StrFormat("watermark %s %s\n", EscapeToken(id).c_str(),
                     seqs.ToString().c_str());
  }
  for (size_t lane = 0; lane < data.seqlane.size(); ++lane) {
    out += StrFormat("seqlane %zu %llu\n", lane,
                     (unsigned long long)data.seqlane[lane]);
  }
  for (size_t shard = 0; shard < data.inflight.size(); ++shard) {
    for (const WalRecord& record : data.inflight[shard]) {
      out += StrFormat("inflight %zu %llu %llu %s %s %zu\n", shard,
                       (unsigned long long)record.oid.id,
                       (unsigned long long)record.producer_seq,
                       EscapeToken(record.producer_id).c_str(),
                       EscapeToken(record.method).c_str(),
                       record.args.size());
      for (const Value& arg : record.args) {
        out += "iarg ";
        out += EncodeSnapshotValue(arg);
        out += '\n';
      }
    }
  }
  out += StrFormat("snapshot %zu\n", data.snapshot_body.size());
  out += data.snapshot_body;
  out += '\n';
  out += StrFormat("checksum %016llx\n",
                   (unsigned long long)Fnv1a64(out));
  return out;
}

/// Line iterator over the checkpoint text that can also hand out a raw
/// byte block (the embedded snapshot body).
struct LineCursor {
  std::string_view content;
  size_t pos = 0;

  bool NextLine(std::string_view* line) {
    if (pos >= content.size()) return false;
    size_t nl = content.find('\n', pos);
    if (nl == std::string_view::npos) {
      *line = content.substr(pos);
      pos = content.size();
    } else {
      *line = content.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  }

  bool TakeRaw(size_t n, std::string_view* out) {
    // The raw block is followed by an explicit '\n' separator.
    if (content.size() - pos < n + 1 || content[pos + n] != '\n') {
      return false;
    }
    *out = content.substr(pos, n);
    pos += n + 1;
    return true;
  }
};

Result<CheckpointData> Parse(std::string_view content) {
  auto corrupt = [](const char* what) {
    return Status::InvalidArgument(
        StrFormat("corrupt checkpoint: %s", what));
  };

  // Validate the trailing checksum line first: it covers every byte before
  // the line itself, so any torn or flipped content is caught up front.
  size_t checksum_at = content.rfind("checksum ");
  if (checksum_at == std::string_view::npos ||
      (checksum_at != 0 && content[checksum_at - 1] != '\n')) {
    return corrupt("missing checksum line");
  }
  std::string_view checksum_line = content.substr(checksum_at);
  if (!checksum_line.empty() && checksum_line.back() == '\n') {
    checksum_line.remove_suffix(1);
  }
  uint64_t want = 0;
  if (!ParseNumber(checksum_line.substr(strlen("checksum ")), &want, 16) ||
      want != Fnv1a64(content.substr(0, checksum_at))) {
    return corrupt("checksum mismatch");
  }

  LineCursor cursor{content.substr(0, checksum_at)};
  std::string_view line;
  if (!cursor.NextLine(&line) || line != kMagic) {
    return corrupt("bad magic");
  }

  CheckpointData data;
  bool saw_shards = false;
  bool saw_snapshot = false;
  while (cursor.NextLine(&line)) {
    std::vector<std::string> tokens = Split(line, ' ');
    if (tokens.empty()) return corrupt("empty line");
    const std::string& kind = tokens[0];

    if (kind == "shards") {
      uint64_t n = 0;
      if (tokens.size() != 2 || !ParseNumber(tokens[1], &n) || n == 0 ||
          n > 4096) {
        return corrupt("bad shards line");
      }
      data.num_shards = static_cast<size_t>(n);
      data.inflight.resize(data.num_shards);
      saw_shards = true;
    } else if (kind == "covered") {
      uint64_t file = 0, lsn = 0;
      if (tokens.size() != 3 || !ParseNumber(tokens[1], &file) ||
          !ParseNumber(tokens[2], &lsn)) {
        return corrupt("bad covered line");
      }
      data.covered_lsn[static_cast<size_t>(file)] = lsn;
    } else if (kind == "shardmetric") {
      uint64_t index = 0;
      runtime::ShardMetricsSnapshot m;
      if (tokens.size() != 13 || !ParseNumber(tokens[1], &index) ||
          index != data.shard_metrics.size() ||
          !ParseMetricCounters(tokens, 2, &m)) {
        return corrupt("bad shardmetric line");
      }
      data.shard_metrics.push_back(m);
    } else if (kind == "basemetric") {
      if (!ParseMetricCounters(tokens, 1, &data.base_metrics)) {
        return corrupt("bad basemetric line");
      }
      data.has_base_metrics = true;
    } else if (kind == "watermark") {
      if (tokens.size() != 3) return corrupt("bad watermark line");
      ODE_ASSIGN_OR_RETURN(std::string id, UnescapeToken(tokens[1]));
      ODE_ASSIGN_OR_RETURN(SeqSet seqs, SeqSet::Parse(tokens[2]));
      data.applied[std::move(id)] = std::move(seqs);
    } else if (kind == "seqlane") {
      uint64_t lane = 0, count = 0;
      if (tokens.size() != 3 || !ParseNumber(tokens[1], &lane) ||
          lane != data.seqlane.size() || lane > 4096 ||
          !ParseNumber(tokens[2], &count)) {
        return corrupt("bad seqlane line");
      }
      data.seqlane.push_back(count);
    } else if (kind == "inflight") {
      uint64_t shard = 0, oid = 0, seq = 0, argc = 0;
      if (tokens.size() != 7 || !saw_shards ||
          !ParseNumber(tokens[1], &shard) || shard >= data.num_shards ||
          !ParseNumber(tokens[2], &oid) || !ParseNumber(tokens[3], &seq) ||
          !ParseNumber(tokens[6], &argc) || argc > kMaxWalArgs) {
        return corrupt("bad inflight line");
      }
      WalRecord record;
      record.oid = Oid{oid};
      record.producer_seq = seq;
      ODE_ASSIGN_OR_RETURN(record.producer_id, UnescapeToken(tokens[4]));
      ODE_ASSIGN_OR_RETURN(record.method, UnescapeToken(tokens[5]));
      if (record.producer_id.size() > kMaxWalIdentityLen ||
          record.method.empty() || record.method.size() > kMaxWalMethodLen) {
        return corrupt("inflight token exceeds caps");
      }
      record.args.reserve(argc);
      for (uint64_t i = 0; i < argc; ++i) {
        std::string_view arg_line;
        if (!cursor.NextLine(&arg_line) ||
            arg_line.substr(0, 5) != "iarg ") {
          return corrupt("missing iarg line");
        }
        ODE_ASSIGN_OR_RETURN(Value value,
                             DecodeSnapshotValue(arg_line.substr(5)));
        record.args.push_back(std::move(value));
      }
      data.inflight[static_cast<size_t>(shard)].push_back(std::move(record));
    } else if (kind == "snapshot") {
      uint64_t n = 0;
      if (tokens.size() != 2 || !ParseNumber(tokens[1], &n)) {
        return corrupt("bad snapshot line");
      }
      std::string_view body;
      if (!cursor.TakeRaw(static_cast<size_t>(n), &body)) {
        return corrupt("snapshot block truncated");
      }
      data.snapshot_body = std::string(body);
      saw_snapshot = true;
    } else {
      return corrupt("unknown line kind");
    }
  }
  if (!saw_shards) return corrupt("missing shards line");
  if (!saw_snapshot) return corrupt("missing snapshot block");
  return data;
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.ode";
}

std::string CheckpointTmpPath(const std::string& dir) {
  return dir + "/checkpoint.tmp";
}

Status WriteCheckpointFile(const std::string& dir,
                           const CheckpointData& data) {
  return WriteFileAtomically(CheckpointPath(dir), Serialize(data),
                             CheckpointTmpPath(dir));
}

Result<CheckpointData> ReadCheckpointFile(const std::string& dir) {
  const std::string path = CheckpointPath(dir);
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) {
    return Status::NotFound(
        StrFormat("no checkpoint at '%s'", path.c_str()));
  }
  return Parse(*content);
}

}  // namespace wal
}  // namespace ode
