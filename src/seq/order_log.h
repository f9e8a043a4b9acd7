#ifndef ODE_SEQ_ORDER_LOG_H_
#define ODE_SEQ_ORDER_LOG_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "seq/seq_event.h"
#include "wal/log_reader.h"

namespace ode {
namespace seq {

/// Durable record of the sequencer's merged order: one framed entry per
/// applied SeqEvent, written *behind* the apply (logged ⊆ applied, so a
/// crash loses at most the applied-but-unlogged suffix, which shard-WAL
/// replay re-derives and re-applies — see docs/SEQUENCER.md#durability).
/// The file is a wal::LogWriter log (same framing, fsync policies, group
/// commit and sticky failure as a shard WAL); only the payload is the
/// order log's own: (lane, lane_seq, class, oid), the full posted event,
/// and the publish-time classification, so recovery replays the exact
/// symbols without re-evaluating masks against post-recovery state.
///
/// Appends one payload to *payload. An event over the codec caps (at most
/// kMaxWalPayload bytes, 65,535 per value text) is kInvalidArgument; the
/// sequencer counts it as an apply error and keeps logging.
Status EncodeOrderRecord(std::string* payload, const SeqEvent& event);
/// Decodes one whole payload; kInvalidArgument when it is malformed.
Status DecodeOrderRecord(std::string_view payload, SeqEvent* out);

/// The file holding the sequencer order log under a WAL directory. The
/// ".log" suffix keeps it invisible to wal::ListShardLogs ("shard-*.wal").
std::string OrderLogPath(const std::string& dir);

/// Reads every valid record; a missing file yields an empty result. Torn
/// or corrupt tails are tolerated and reported, as by wal::ReadLogFile
/// (the order log is truncate-on-checkpoint, so corruption mid-file is a
/// torn tail from the crash, not silent history loss).
Result<wal::LogContents<SeqEvent>> ReadOrderLog(const std::string& path);

}  // namespace seq
}  // namespace ode

#endif  // ODE_SEQ_ORDER_LOG_H_
