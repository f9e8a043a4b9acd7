#ifndef ODE_NET_WIRE_H_
#define ODE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "runtime/metrics.h"

namespace ode {
namespace net {

/// The ingest wire protocol: length-prefixed binary frames over a byte
/// stream (TCP). Every frame is
///
///   u32 payload_len | u8 type | payload (payload_len bytes)
///
/// with all integers little-endian. Every payload begins with a u64
/// sequence number: requests carry a client-chosen seq, replies echo the
/// seq they answer (ACK carries a cumulative watermark instead). See
/// docs/NETWORK.md for the full format table and session semantics.
inline constexpr size_t kFrameHeaderBytes = 5;
/// Upper bound on one frame's payload. A decoder seeing a larger length
/// declares the stream malformed rather than buffering unboundedly.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;
/// Sanity caps inside a POST payload (both far below kMaxFramePayload;
/// they bound allocation before the full payload is validated).
inline constexpr size_t kMaxMethodLen = 4096;
inline constexpr size_t kMaxPostArgs = 1024;
/// Cap on a HELLO identity (mirrors the WAL's kMaxWalIdentityLen).
inline constexpr size_t kMaxIdentityLen = 256;

enum class FrameType : uint8_t {
  // Requests (client → server).
  kPost = 1,     ///< One method invocation; replied to only on failure.
  kDrain = 2,    ///< Barrier; server replies kDrainOk when fully processed.
  kMetrics = 3,  ///< Runtime counter snapshot request.
  kPing = 4,     ///< Liveness probe; server replies kPong.
  kHello = 5,    ///< Durable identity announcement; server replies kHelloOk.
  // Replies (server → client).
  kAck = 16,           ///< Cumulative: every post seq <= watermark that was
                       ///< not individually ERRed has been accepted.
  kDrainOk = 17,       ///< The kDrain with this seq completed.
  kErr = 18,           ///< Typed failure for the request with this seq.
  kPong = 19,          ///< Reply to kPing.
  kMetricsReply = 20,  ///< Serialized RemoteMetrics.
  kHelloOk = 21,       ///< Echoes the kHello seq + the server's max applied
                       ///< seq for that identity (exactly-once handshake).
};

const char* FrameTypeName(FrameType type);

/// Typed error codes carried by kErr frames.
enum class WireError : uint16_t {
  kMalformed = 1,     ///< Protocol violation; the server closes the stream.
  kWouldBlock = 2,    ///< kReject backpressure bounced the post; retry.
  kShuttingDown = 3,  ///< Runtime stopped; the server closes after this.
  kNotFound = 4,      ///< Unknown object/method on the server.
  kInvalidArgument = 5,
  kInternal = 6,
  kUnsupported = 7,   ///< Frame type the server does not accept.
};

const char* WireErrorName(WireError code);

/// Maps a runtime Post/Drain status onto the wire (kOk asserts).
WireError WireErrorFromStatus(const Status& status);
/// Reconstructs a client-side Status from a kErr frame.
Status StatusFromWireError(WireError code, std::string message);

/// Counter snapshot as carried by kMetricsReply: the shard totals and
/// breakdown (histograms are not serialized and arrive zeroed) plus the
/// per-producer (per-connection) attribution.
struct RemoteMetrics {
  runtime::ShardMetricsSnapshot total;
  std::vector<runtime::ShardMetricsSnapshot> shards;
  std::vector<runtime::ProducerMetricsSnapshot> producers;
  /// Class-scope sequencer counters of the serving runtime.
  seq::SequencerMetricsSnapshot sequencer;

  std::string ToString() const;
};

/// One decoded frame. A plain product type rather than a variant: only the
/// fields implied by `type` are meaningful, everything else is default.
struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t seq = 0;  ///< Request seq / echoed seq / ACK watermark.
  // kPost:
  Oid oid;
  std::string method;
  std::vector<Value> args;
  // kErr:
  WireError error = WireError::kInternal;
  std::string message;
  // kMetricsReply:
  RemoteMetrics metrics;
  // kHello:
  std::string identity;
  // kHelloOk: the server's highest applied seq for the identity (0 = none).
  uint64_t watermark = 0;
};

// --- Encoders: append one complete frame to *out. -----------------------

/// Unlike the other encoders, AppendPost validates its input against the
/// protocol caps (kMaxMethodLen, kMaxPostArgs, kMaxFramePayload): a post
/// that cannot be encoded as a legal frame returns kInvalidArgument and
/// leaves *out untouched, instead of emitting bytes the server would
/// reject as malformed.
Status AppendPost(std::string* out, uint64_t seq, Oid oid,
                  std::string_view method, const std::vector<Value>& args);
void AppendDrain(std::string* out, uint64_t seq);
/// Validates the identity against kMaxIdentityLen (and rejects an empty
/// one — anonymous sessions simply don't send HELLO).
Status AppendHello(std::string* out, uint64_t seq, std::string_view identity);
void AppendHelloOk(std::string* out, uint64_t seq, uint64_t max_applied);
void AppendMetricsRequest(std::string* out, uint64_t seq);
void AppendPing(std::string* out, uint64_t seq);
void AppendAck(std::string* out, uint64_t watermark);
void AppendDrainOk(std::string* out, uint64_t seq);
void AppendErr(std::string* out, uint64_t seq, WireError code,
               std::string_view message);
void AppendPong(std::string* out, uint64_t seq);
void AppendMetricsReply(std::string* out, uint64_t seq,
                        const RemoteMetrics& metrics);

/// Incremental frame splitter + decoder over a connection's receive
/// stream. Feed arbitrary byte chunks with Append; pull frames with Next.
///
/// Robustness contract (tests/net_codec_test.cc): any byte sequence —
/// truncated, oversized, bit-flipped — yields kNeedMore or kError, never a
/// crash or a read past the buffered bytes. After kError the decoder is
/// poisoned (the stream has lost framing); the connection must be closed.
class FrameDecoder {
 public:
  enum class State {
    kNeedMore,  ///< No complete frame buffered yet.
    kFrame,     ///< *out holds the next frame.
    kError,     ///< Protocol violation; see error(). Terminal.
  };

  /// Buffers `n` more stream bytes.
  void Append(const char* data, size_t n);

  /// Extracts and decodes the next frame if fully buffered.
  State Next(Frame* out);

  const std::string& error() const { return error_; }
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  State Fail(std::string why);

  std::string buf_;
  size_t pos_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace net
}  // namespace ode

#endif  // ODE_NET_WIRE_H_
