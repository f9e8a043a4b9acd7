#include "wal/log_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strutil.h"

namespace ode {
namespace wal {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(
      StrFormat("%s '%s': %s", op, path.c_str(), std::strerror(errno)));
}

}  // namespace

std::string ShardLogPath(const std::string& dir, size_t index) {
  return StrFormat("%s/shard-%zu.wal", dir.c_str(), index);
}

Status LogWriter::Open(const std::string& path, uint64_t start_lsn,
                       const WalOptions& options) {
  Close();
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) return Errno("open", path);
  path_ = path;
  options_ = options;
  last_lsn_.store(start_lsn, std::memory_order_relaxed);
  unsynced_records_.store(0, std::memory_order_relaxed);
  last_sync_ = std::chrono::steady_clock::now();
  has_failed_.store(false, std::memory_order_relaxed);
  failed_ = Status::OK();
  pending_.clear();
  writing_.clear();
  if (buffered()) {
    flush_stop_ = false;
    flush_requested_ = false;
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
  return Status::OK();
}

Status LogWriter::GetFailed() {
  std::lock_guard<std::mutex> lock(failed_mu_);
  return failed_;
}

void LogWriter::SetFailed(const Status& s) {
  {
    std::lock_guard<std::mutex> lock(failed_mu_);
    if (failed_.ok()) failed_ = s;
  }
  has_failed_.store(true, std::memory_order_release);
}

Status LogWriter::WriteFully(const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::write(fd_, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A partial record may now sit at the tail; the CRC framing makes it
      // indistinguishable from a torn write and recovery truncates it.
      Status s = Errno("write", path_);
      SetFailed(s);
      return s;
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status LogWriter::EncodeNext(WalRecord* record, std::string* payload) const {
  record->lsn = next_lsn();
  payload->clear();
  return EncodeRecordPayload(payload, *record);
}

Status LogWriter::Append(WalRecord* record) {
  ODE_RETURN_IF_ERROR(EncodeNext(record, &payload_));
  return AppendPayload(payload_);
}

Status LogWriter::AppendPayload(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("wal writer is not open");
  if (has_failed_.load(std::memory_order_acquire)) return GetFailed();
  buf_.clear();
  AppendFrame(&buf_, payload);
  if (buffered()) {
    // Group commit: stage the framed record in memory; the flusher turns
    // whole groups into one write + one fsync. The poster pays a memcpy.
    std::lock_guard<std::mutex> lock(buf_mu_);
    pending_.append(buf_);
  } else {
    ODE_RETURN_IF_ERROR(WriteFully(buf_.data(), buf_.size()));
  }
  last_lsn_.fetch_add(1, std::memory_order_relaxed);
  appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(buf_.size(), std::memory_order_relaxed);
  uint64_t unsynced =
      unsynced_records_.fetch_add(1, std::memory_order_relaxed) + 1;

  switch (options_.fsync) {
    case FsyncPolicy::kAlways: {
      std::lock_guard<std::mutex> lock(sync_mu_);
      return FlushAndSyncLocked();
    }
    case FsyncPolicy::kEveryN:
      if (unsynced >= options_.fsync_every_n) {
        // Hand the group to the flusher; the poster keeps going. Setting
        // the flag under the mutex makes the notify race-free.
        {
          std::lock_guard<std::mutex> lock(flush_mu_);
          flush_requested_ = true;
        }
        flush_cv_.notify_one();
      }
      return Status::OK();
    case FsyncPolicy::kEveryMs:
      // The flusher wakes on its own interval clock; nothing to do here.
      return Status::OK();
    case FsyncPolicy::kNever:
      return Status::OK();
  }
  return Status::OK();
}

void LogWriter::FlusherLoop() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  while (!flush_stop_) {
    if (options_.fsync == FsyncPolicy::kEveryMs) {
      flush_cv_.wait_for(lock, options_.fsync_interval, [&] {
        return flush_stop_ || flush_requested_;
      });
    } else {
      flush_cv_.wait(lock,
                     [&] { return flush_stop_ || flush_requested_; });
    }
    if (flush_stop_) break;
    flush_requested_ = false;
    lock.unlock();
    if (unsynced_records_.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> sync_lock(sync_mu_);
      // Failure is sticky; the next Append reports it.
      (void)FlushAndSyncLocked();
    }
    lock.lock();
  }
}

void LogWriter::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_stop_ = true;
  }
  flush_cv_.notify_one();
  flusher_.join();
}

Status LogWriter::Sync() {
  if (fd_ < 0) return Status::OK();
  if (has_failed_.load(std::memory_order_acquire)) return GetFailed();
  if (unsynced_records_.load(std::memory_order_relaxed) == 0) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(sync_mu_);
  return FlushAndSyncLocked();
}

Status LogWriter::FlushAndSyncLocked() {
  // Take the staged group. Everything appended so far is either already
  // on the file or in this group, so the count read under buf_mu_ is
  // exactly what this fsync will cover; records staged afterwards stay in
  // the unsynced count. sync_mu_ (held by the caller) keeps groups
  // hitting the file in lsn order.
  uint64_t covered;
  {
    std::lock_guard<std::mutex> lock(buf_mu_);
    std::swap(writing_, pending_);
    covered = unsynced_records_.load(std::memory_order_relaxed);
  }
  if (!writing_.empty()) {
    Status s = WriteFully(writing_.data(), writing_.size());
    writing_.clear();
    ODE_RETURN_IF_ERROR(s);
  }
  if (::fsync(fd_) != 0) {
    Status s = Errno("fsync", path_);
    SetFailed(s);
    return s;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  unsynced_records_.fetch_sub(covered, std::memory_order_relaxed);
  last_sync_ = std::chrono::steady_clock::now();
  return Status::OK();
}

Status LogWriter::Truncate() {
  if (fd_ < 0) return Status::FailedPrecondition("wal writer is not open");
  if (has_failed_.load(std::memory_order_acquire)) return GetFailed();
  std::lock_guard<std::mutex> lock(sync_mu_);
  {
    // Staged records are all <= the checkpoint's covered lsn (producers
    // are gated out while this runs); drop them with the file bytes.
    std::lock_guard<std::mutex> buf_lock(buf_mu_);
    pending_.clear();
    unsynced_records_.store(0, std::memory_order_relaxed);
  }
  if (::ftruncate(fd_, 0) != 0) {
    Status s = Errno("ftruncate", path_);
    SetFailed(s);
    return s;
  }
  if (::fsync(fd_) != 0) {
    Status s = Errno("fsync", path_);
    SetFailed(s);
    return s;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  last_sync_ = std::chrono::steady_clock::now();
  return Status::OK();
}

void LogWriter::Close() {
  StopFlusher();
  if (fd_ >= 0) {
    if (unsynced_records_.load(std::memory_order_relaxed) > 0 &&
        !has_failed_.load(std::memory_order_acquire)) {
      // Final group: no threads left, but the locks are cheap and keep
      // the invariants obvious.
      std::lock_guard<std::mutex> lock(sync_mu_);
      (void)FlushAndSyncLocked();
    }
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace wal
}  // namespace ode
