#ifndef ODE_WAL_LOG_READER_H_
#define ODE_WAL_LOG_READER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wal/log_format.h"

namespace ode {
namespace wal {

/// How far a framed log file (log_format.h framing) reads cleanly.
/// Everything up to `valid_bytes` passed its CRC and decoded. `torn` is
/// set when trailing bytes after that prefix failed — a write cut
/// mid-record by a crash, rot flagged by the CRC, or a payload that does
/// not decode. Torn tails are expected after a kill; recovery reports and
/// discards them.
struct LogScan {
  uint64_t valid_bytes = 0;
  uint64_t total_bytes = 0;
  bool torn = false;
  std::string torn_error;

  uint64_t torn_bytes() const { return total_bytes - valid_bytes; }
};

/// A framed log file read back: the records of its clean prefix.
template <typename Record>
struct LogContents : LogScan {
  std::vector<Record> records;
};

/// The frame scanner of every log: reads `path` whole and hands each
/// CRC-checked payload to `on_payload`, in order, stopping at the first
/// frame that is torn, fails its CRC, or that `on_payload` refuses.
/// kNotFound when the file is missing.
Status ScanLogFile(const std::string& path,
                   const std::function<Status(std::string_view)>& on_payload,
                   LogScan* out);

/// ScanLogFile with `decode` turning each payload into a record.
template <typename Record>
Status ReadLogContents(const std::string& path,
                       Status (*decode)(std::string_view, Record*),
                       LogContents<Record>* out) {
  return ScanLogFile(
      path,
      [&](std::string_view payload) {
        Record record;
        ODE_RETURN_IF_ERROR(decode(payload, &record));
        out->records.push_back(std::move(record));
        return Status::OK();
      },
      out);
}

/// A shard WAL file read back.
struct LogReadResult : LogContents<WalRecord> {
  /// Highest lsn in the clean prefix (0 when empty).
  uint64_t last_lsn() const {
    return records.empty() ? 0 : records.back().lsn;
  }
};

/// Reads and validates one shard log file. kNotFound when the file is
/// missing; a torn tail is NOT an error (see LogContents).
Result<LogReadResult> ReadLogFile(const std::string& path);

/// Cuts `path` down to `to_bytes` (tail repair for ode-waldump --repair
/// and tests). Fsyncs the result.
Status TruncateLogFile(const std::string& path, uint64_t to_bytes);

/// Indices of every shard-<i>.wal present under `dir`, sorted ascending.
/// An unreadable or absent directory yields an empty list.
std::vector<size_t> ListShardLogs(const std::string& dir);

}  // namespace wal
}  // namespace ode

#endif  // ODE_WAL_LOG_READER_H_
