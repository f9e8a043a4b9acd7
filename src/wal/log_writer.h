#ifndef ODE_WAL_LOG_WRITER_H_
#define ODE_WAL_LOG_WRITER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"
#include "wal/log_format.h"

namespace ode {
namespace wal {

/// Appender over one framed log file: a shard's WAL, or the sequencer
/// order log (seq/order_log.h). Appends are not internally synchronized:
/// the owning Shard serializes them under its wal mutex (which also pins
/// queue order == log order), the sequencer appends from its one merge
/// thread, and checkpoint/truncate runs only while the shards are paused
/// and producers are gated out of Post.
///
/// Group commit: under kEveryN and kEveryMs, Append only copies the
/// framed record into an in-memory buffer; a background flusher thread
/// drains the buffer with one write(2) + fsync(2) per group, so posters
/// never touch the disk (the classic WAL-writer design). Those policies
/// were never ACK-implies-durable — their loss bound stays "roughly the
/// group size", now counting buffered as well as unsynced records.
/// kAlways and kNever write through in Append; kAlways additionally
/// fsyncs before returning, so OK means the record is on disk.
class LogWriter {
 public:
  LogWriter() = default;
  ~LogWriter() { Close(); }

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Opens (creates) `path` in append mode — existing bytes are preserved
  /// so recovery can open writers before the old log has been replayed.
  /// New records get lsn start_lsn+1, start_lsn+2, ... (the order log's
  /// payload carries no lsn; there the counter only counts appends).
  Status Open(const std::string& path, uint64_t start_lsn,
              const WalOptions& options);

  /// Stamps `record` with next_lsn() and encodes it into *payload
  /// (replacing its contents): the shard WAL payload the next
  /// AppendPayload must carry. kInvalidArgument for a record over the
  /// codec caps; the writer is untouched.
  Status EncodeNext(WalRecord* record, std::string* payload) const;

  /// Frames `payload` as the record with lsn next_lsn(), appends it, and
  /// applies the fsync policy. On an I/O failure the log is no longer
  /// trusted and subsequent appends fail fast with the same error.
  Status AppendPayload(std::string_view payload);

  /// EncodeNext + AppendPayload. A record over the codec caps is
  /// kInvalidArgument and leaves the writer usable.
  Status Append(WalRecord* record);

  /// Fsync barrier: flushes anything the policy left unsynced.
  Status Sync();

  /// Empties the file (checkpoint truncation) and fsyncs. The lsn counter
  /// keeps running — records appended after a truncate stay above the
  /// checkpoint's covered lsn.
  Status Truncate();

  void Close();

  bool open() const { return fd_ >= 0; }
  // Counters are relaxed atomics so a metrics thread can sample them while
  // the owning shard appends.
  uint64_t last_lsn() const {
    return last_lsn_.load(std::memory_order_relaxed);
  }
  uint64_t next_lsn() const { return last_lsn() + 1; }
  uint64_t appends() const {
    return appends_.load(std::memory_order_relaxed);
  }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  Status WriteFully(const char* data, size_t size);
  Status FlushAndSyncLocked();
  Status GetFailed();
  void SetFailed(const Status& s);
  void FlusherLoop();
  void StopFlusher();
  bool buffered() const {
    return options_.fsync == FsyncPolicy::kEveryN ||
           options_.fsync == FsyncPolicy::kEveryMs;
  }

  int fd_ = -1;
  std::string path_;
  WalOptions options_;
  std::atomic<uint64_t> last_lsn_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> bytes_written_{0};
  /// Records not yet known to be on disk (buffered or written-unsynced).
  std::atomic<uint64_t> unsynced_records_{0};
  std::string payload_;  ///< Append(WalRecord*) encode scratch.
  std::string buf_;      ///< Framing scratch, reused per append.

  // Sticky first I/O failure, shared between poster and flusher.
  std::atomic<bool> has_failed_{false};
  std::mutex failed_mu_;
  Status failed_ = Status::OK();

  /// Serializes flush/fsync/ftruncate between poster barriers and the
  /// flusher; posters never take it on the Append fast path.
  std::mutex sync_mu_;
  std::chrono::steady_clock::time_point last_sync_{};

  // Group-commit buffer (buffered policies only). Appends go to pending_
  // under buf_mu_; the flusher swaps it into writing_ (while holding
  // sync_mu_, so groups hit the file in lsn order) and writes + fsyncs
  // outside buf_mu_.
  std::mutex buf_mu_;
  std::string pending_;
  std::string writing_;

  // Background flusher (buffered policies only).
  std::thread flusher_;
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  bool flush_requested_ = false;
  bool flush_stop_ = false;
};

/// `<dir>/shard-<index>.wal`.
std::string ShardLogPath(const std::string& dir, size_t index);

}  // namespace wal
}  // namespace ode

#endif  // ODE_WAL_LOG_WRITER_H_
