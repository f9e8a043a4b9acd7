#include "wal/log_reader.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/file_io.h"
#include "common/strutil.h"

namespace ode {
namespace wal {

Status ScanLogFile(const std::string& path,
                   const std::function<Status(std::string_view)>& on_payload,
                   LogScan* out) {
  ODE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  out->total_bytes = bytes.size();
  size_t pos = 0;
  while (pos < bytes.size()) {
    std::string_view payload;
    size_t consumed = 0;
    std::string error;
    DecodeStatus s = DecodeFrame(bytes.data() + pos, bytes.size() - pos,
                                 &payload, &consumed, &error);
    if (s == DecodeStatus::kRecord) {
      Status decoded = on_payload(payload);
      if (decoded.ok()) {
        pos += consumed;
        continue;
      }
      s = DecodeStatus::kCorrupt;
      error = decoded.message();
    }
    out->torn = true;
    out->torn_error =
        s == DecodeStatus::kNeedMore
            ? StrFormat("torn record at offset %zu (file ends mid-record)",
                        pos)
            : StrFormat("corrupt record at offset %zu: %s", pos,
                        error.c_str());
    break;
  }
  out->valid_bytes = pos;
  return Status::OK();
}

Result<LogReadResult> ReadLogFile(const std::string& path) {
  LogReadResult result;
  ODE_RETURN_IF_ERROR(ReadLogContents(path, DecodeRecordPayload, &result));
  return result;
}

Status TruncateLogFile(const std::string& path, uint64_t to_bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(
        StrFormat("open '%s': %s", path.c_str(), std::strerror(errno)));
  }
  Status status = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(to_bytes)) != 0 ||
      ::fsync(fd) != 0) {
    status = Status::Internal(
        StrFormat("truncate '%s': %s", path.c_str(), std::strerror(errno)));
  }
  ::close(fd);
  return status;
}

std::vector<size_t> ListShardLogs(const std::string& dir) {
  std::vector<size_t> indices;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return indices;
  while (dirent* entry = ::readdir(d)) {
    std::string_view name(entry->d_name);
    constexpr std::string_view kPrefix = "shard-";
    constexpr std::string_view kSuffix = ".wal";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.substr(0, kPrefix.size()) != kPrefix ||
        name.substr(name.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    size_t index = 0;
    if (ParseNumber(name.substr(kPrefix.size(), name.size() - kPrefix.size() -
                                                    kSuffix.size()),
                    &index)) {
      indices.push_back(index);
    }
  }
  ::closedir(d);
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace wal
}  // namespace ode
