#ifndef ODE_WAL_LOG_FORMAT_H_
#define ODE_WAL_LOG_FORMAT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_codec.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace ode {
namespace wal {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Every WAL record frames its
/// payload with this checksum so recovery can tell a torn tail or a
/// bit-flipped record from valid history.
uint32_t Crc32(const void* data, size_t n);

/// When the log writer calls fsync(2):
///  * kAlways   — after every record. A Post that returned OK is durable
///                (the ACK-implies-durable setting; slowest).
///  * kEveryN   — group commit: after every `fsync_every_n` records (and
///                at Sync/Truncate/Stop barriers). A crash can lose up to
///                N-1 recent *acknowledged-but-unsynced* records; they are
///                replayed by the client on reconnect (docs/DURABILITY.md).
///  * kEveryMs  — after a record if `fsync_interval` elapsed since the
///                last sync. Same loss window, bounded in time not count.
///  * kNever    — only at explicit Sync/Truncate/Stop barriers (bench
///                baseline; not a durability mode).
enum class FsyncPolicy { kAlways, kEveryN, kEveryMs, kNever };

const char* FsyncPolicyName(FsyncPolicy policy);

/// Durability configuration carried inside runtime::IngestOptions. An
/// empty `dir` disables the subsystem entirely (zero hot-path cost).
struct WalOptions {
  /// Directory holding shard-<i>.wal logs and the checkpoint file.
  /// Created (one level) if missing. Empty = durability off.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kEveryN;
  size_t fsync_every_n = 64;
  std::chrono::milliseconds fsync_interval{5};

  bool enabled() const { return !dir.empty(); }
};

/// One durable event: what Shard::Enqueue accepted into a queue, in queue
/// order. `lsn` is per-shard-log monotone (assigned by LogWriter).
/// `producer_id`/`producer_seq` carry the network client's durable
/// identity for exactly-once replay dedup; both are empty/0 for anonymous
/// in-process posts.
struct WalRecord {
  uint64_t lsn = 0;
  Oid oid;
  std::string method;
  std::vector<Value> args;
  std::string producer_id;
  uint64_t producer_seq = 0;
};

/// Caps mirroring the wire protocol's (src/net/wire.h): a record that a
/// legal frame could carry always encodes, and a corrupt length field
/// cannot make the reader allocate unboundedly.
inline constexpr size_t kMaxWalPayload = 1u << 20;
inline constexpr size_t kMaxWalMethodLen = 4096;
inline constexpr size_t kMaxWalArgs = 1024;
inline constexpr size_t kMaxWalIdentityLen = 256;

/// Appends `payload` in the framing of every log file (the shard WALs and
/// the sequencer order log): u32 payload_len | u32 crc32(payload) |
/// payload, little-endian. Callers keep it within kMaxWalPayload.
void AppendFrame(std::string* out, std::string_view payload);

enum class DecodeStatus {
  kRecord,    ///< *out holds the next record; *consumed advanced.
  kNeedMore,  ///< The buffer ends mid-record (torn tail).
  kCorrupt,   ///< Framing or CRC violation at the cursor; see *error.
};

/// Splits the frame at the front of [data, data+size). On kRecord,
/// *payload views its CRC-checked payload and *consumed is the framed
/// size; kNeedMore/kCorrupt leave *consumed at 0.
DecodeStatus DecodeFrame(const char* data, size_t size,
                         std::string_view* payload, size_t* consumed,
                         std::string* error);

/// An argument value as both logs store it: u16 len | value-text, the
/// snapshot value codec (ode/snapshot_codec.h). kInvalidArgument for text
/// over 65,535 bytes, which a legal wire frame can carry.
Status PutValueText(std::string* payload, const Value& value);
/// Reads one; kInvalidArgument when truncated or not a value encoding.
Status ReadValueText(ByteReader* in, Value* out);

/// The shard WAL's record payload:
///   u64 lsn | u64 oid | u64 producer_seq | u16 id_len | id
///   | u16 method_len | method | u16 argc | argc x (u16 len | value-text)
/// with each argument a PutValueText. Appends to *payload;
/// kInvalidArgument (and *payload unspecified) when the record exceeds the
/// caps.
Status EncodeRecordPayload(std::string* payload, const WalRecord& record);
/// Decodes one whole payload; kInvalidArgument when it is malformed.
Status DecodeRecordPayload(std::string_view payload, WalRecord* out);

/// A set of u64 sequence numbers stored as sorted disjoint closed runs —
/// the per-producer "applied" set behind exactly-once replay dedup. A
/// single max-watermark is NOT sound here: the client re-sends bounced
/// (ERR_WOULD_BLOCK) posts under fresh seqs but replays unacked posts with
/// their original seqs, so the applied set can legitimately have holes
/// (post 8 bounced with the reply lost, post 9 applied). Runs keep the
/// common dense case O(1) in memory.
class SeqSet {
 public:
  void Add(uint64_t seq);
  bool Contains(uint64_t seq) const;

  bool empty() const { return runs_.empty(); }
  /// Largest member; 0 when empty (seq 0 is never used by producers).
  uint64_t max_seq() const { return runs_.empty() ? 0 : runs_.back().second; }
  uint64_t count() const;
  size_t run_count() const { return runs_.size(); }

  /// "1-5,7,9-12" (empty string for the empty set).
  std::string ToString() const;
  static Result<SeqSet> Parse(std::string_view text);

  bool operator==(const SeqSet& other) const { return runs_ == other.runs_; }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> runs_;  ///< Closed [lo, hi].
};

}  // namespace wal
}  // namespace ode

#endif  // ODE_WAL_LOG_FORMAT_H_
