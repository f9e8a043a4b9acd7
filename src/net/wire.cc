#include "net/wire.h"

#include <bit>
#include <cstring>

#include "common/byte_codec.h"
#include "common/strutil.h"

namespace ode {
namespace net {

namespace {

// --- Value (de)serialization. -------------------------------------------

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kInt:
      PutU64(out, static_cast<uint64_t>(v.AsInt().value()));
      break;
    case ValueKind::kDouble:
      PutU64(out, std::bit_cast<uint64_t>(v.AsDouble().value()));
      break;
    case ValueKind::kBool:
      PutU8(out, v.AsBool().value() ? 1 : 0);
      break;
    case ValueKind::kString: {
      std::string s = v.AsString().value();
      PutU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      break;
    }
    case ValueKind::kOid:
      PutU64(out, v.AsOid().value().id);
      break;
  }
}

bool ReadValue(ByteReader* in, Value* out) {
  uint8_t kind;
  if (!in->ReadU8(&kind)) return false;
  switch (static_cast<ValueKind>(kind)) {
    case ValueKind::kNull:
      *out = Value();
      return true;
    case ValueKind::kInt: {
      uint64_t v;
      if (!in->ReadU64(&v)) return false;
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    case ValueKind::kDouble: {
      uint64_t bits;
      if (!in->ReadU64(&bits)) return false;
      *out = Value(std::bit_cast<double>(bits));
      return true;
    }
    case ValueKind::kBool: {
      uint8_t b;
      if (!in->ReadU8(&b)) return false;
      if (b > 1) return false;
      *out = Value(b == 1);
      return true;
    }
    case ValueKind::kString: {
      uint32_t len;
      if (!in->ReadU32(&len)) return false;
      if (len > kMaxFramePayload) return false;
      std::string s;
      if (!in->ReadBytes(len, &s)) return false;
      *out = Value(std::move(s));
      return true;
    }
    case ValueKind::kOid: {
      uint64_t id;
      if (!in->ReadU64(&id)) return false;
      *out = Value(Oid{id});
      return true;
    }
  }
  return false;  // Unknown kind tag.
}

// --- Shard/producer counter (de)serialization. --------------------------

void PutShardCounters(std::string* out, const runtime::ShardMetricsSnapshot& s) {
  PutU64(out, s.enqueued);
  PutU64(out, s.dropped);
  PutU64(out, s.rejected);
  PutU64(out, s.processed);
  PutU64(out, s.fired);
  PutU64(out, s.aborted);
  PutU64(out, s.retried);
  PutU64(out, s.dead_lettered);
  PutU64(out, s.epilogue_failures);
  PutU64(out, s.batches);
  PutU64(out, s.queue_high_water);
}

bool ReadShardCounters(ByteReader* in,
                       runtime::ShardMetricsSnapshot* s) {
  return in->ReadU64(&s->enqueued) && in->ReadU64(&s->dropped) &&
         in->ReadU64(&s->rejected) && in->ReadU64(&s->processed) &&
         in->ReadU64(&s->fired) && in->ReadU64(&s->aborted) &&
         in->ReadU64(&s->retried) && in->ReadU64(&s->dead_lettered) &&
         in->ReadU64(&s->epilogue_failures) && in->ReadU64(&s->batches) &&
         in->ReadU64(&s->queue_high_water);
}

/// Opens a frame in *out and returns the offset of its length field, to be
/// patched by CloseFrame once the payload is appended.
size_t OpenFrame(std::string* out, FrameType type) {
  size_t at = out->size();
  PutU32(out, 0);  // Patched below.
  PutU8(out, static_cast<uint8_t>(type));
  return at;
}

void CloseFrame(std::string* out, size_t at) {
  StoreFixed(out->data() + at,
             static_cast<uint32_t>(out->size() - at - kFrameHeaderBytes));
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kPost: return "POST";
    case FrameType::kDrain: return "DRAIN";
    case FrameType::kMetrics: return "METRICS";
    case FrameType::kPing: return "PING";
    case FrameType::kHello: return "HELLO";
    case FrameType::kAck: return "ACK";
    case FrameType::kDrainOk: return "DRAIN_OK";
    case FrameType::kErr: return "ERR";
    case FrameType::kPong: return "PONG";
    case FrameType::kMetricsReply: return "METRICS_REPLY";
    case FrameType::kHelloOk: return "HELLO_OK";
  }
  return "UNKNOWN";
}

const char* WireErrorName(WireError code) {
  switch (code) {
    case WireError::kMalformed: return "ERR_MALFORMED";
    case WireError::kWouldBlock: return "ERR_WOULD_BLOCK";
    case WireError::kShuttingDown: return "ERR_SHUTTING_DOWN";
    case WireError::kNotFound: return "ERR_NOT_FOUND";
    case WireError::kInvalidArgument: return "ERR_INVALID_ARGUMENT";
    case WireError::kInternal: return "ERR_INTERNAL";
    case WireError::kUnsupported: return "ERR_UNSUPPORTED";
  }
  return "ERR_UNKNOWN";
}

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kWouldBlock:
      return WireError::kWouldBlock;
    case StatusCode::kShutdown:
      return WireError::kShuttingDown;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return WireError::kInvalidArgument;
    case StatusCode::kUnimplemented:
      return WireError::kUnsupported;
    default:
      return WireError::kInternal;
  }
}

Status StatusFromWireError(WireError code, std::string message) {
  switch (code) {
    case WireError::kMalformed:
      return Status::InvalidArgument("malformed frame: " + message);
    case WireError::kWouldBlock:
      return Status::WouldBlock(std::move(message));
    case WireError::kShuttingDown:
      return Status::Shutdown(std::move(message));
    case WireError::kNotFound:
      return Status::NotFound(std::move(message));
    case WireError::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireError::kUnsupported:
      return Status::Unimplemented(std::move(message));
    case WireError::kInternal:
      return Status::Internal(std::move(message));
  }
  return Status::Internal("unknown wire error: " + message);
}

std::string RemoteMetrics::ToString() const {
  runtime::RuntimeMetricsSnapshot snap;
  snap.total = total;
  snap.shards = shards;
  snap.producers = producers;
  snap.sequencer = sequencer;
  return snap.ToString();
}

Status AppendPost(std::string* out, uint64_t seq, Oid oid,
                  std::string_view method, const std::vector<Value>& args) {
  if (method.size() > kMaxMethodLen) {
    return Status::InvalidArgument(
        StrFormat("method name is %zu bytes, limit %zu", method.size(),
                  kMaxMethodLen));
  }
  if (args.size() > kMaxPostArgs) {
    return Status::InvalidArgument(StrFormat(
        "post has %zu args, limit %zu", args.size(), kMaxPostArgs));
  }
  size_t at = OpenFrame(out, FrameType::kPost);
  PutU64(out, seq);
  PutU64(out, oid.id);
  PutU16(out, static_cast<uint16_t>(method.size()));
  out->append(method);
  PutU16(out, static_cast<uint16_t>(args.size()));
  for (const Value& v : args) PutValue(out, v);
  size_t payload = out->size() - at - kFrameHeaderBytes;
  if (payload > kMaxFramePayload) {
    out->resize(at);  // Roll the partial frame back out of the buffer.
    return Status::InvalidArgument(
        StrFormat("encoded post payload is %zu bytes, limit %u", payload,
                  kMaxFramePayload));
  }
  CloseFrame(out, at);
  return Status::OK();
}

void AppendDrain(std::string* out, uint64_t seq) {
  size_t at = OpenFrame(out, FrameType::kDrain);
  PutU64(out, seq);
  CloseFrame(out, at);
}

Status AppendHello(std::string* out, uint64_t seq,
                   std::string_view identity) {
  if (identity.empty()) {
    return Status::InvalidArgument("HELLO requires a non-empty identity");
  }
  if (identity.size() > kMaxIdentityLen) {
    return Status::InvalidArgument(
        StrFormat("identity is %zu bytes, limit %zu", identity.size(),
                  kMaxIdentityLen));
  }
  size_t at = OpenFrame(out, FrameType::kHello);
  PutU64(out, seq);
  PutU16(out, static_cast<uint16_t>(identity.size()));
  out->append(identity);
  CloseFrame(out, at);
  return Status::OK();
}

void AppendHelloOk(std::string* out, uint64_t seq, uint64_t max_applied) {
  size_t at = OpenFrame(out, FrameType::kHelloOk);
  PutU64(out, seq);
  PutU64(out, max_applied);
  CloseFrame(out, at);
}

void AppendMetricsRequest(std::string* out, uint64_t seq) {
  size_t at = OpenFrame(out, FrameType::kMetrics);
  PutU64(out, seq);
  CloseFrame(out, at);
}

void AppendPing(std::string* out, uint64_t seq) {
  size_t at = OpenFrame(out, FrameType::kPing);
  PutU64(out, seq);
  CloseFrame(out, at);
}

void AppendAck(std::string* out, uint64_t watermark) {
  size_t at = OpenFrame(out, FrameType::kAck);
  PutU64(out, watermark);
  CloseFrame(out, at);
}

void AppendDrainOk(std::string* out, uint64_t seq) {
  size_t at = OpenFrame(out, FrameType::kDrainOk);
  PutU64(out, seq);
  CloseFrame(out, at);
}

void AppendErr(std::string* out, uint64_t seq, WireError code,
               std::string_view message) {
  if (message.size() > 1024) message = message.substr(0, 1024);
  size_t at = OpenFrame(out, FrameType::kErr);
  PutU64(out, seq);
  PutU16(out, static_cast<uint16_t>(code));
  PutU16(out, static_cast<uint16_t>(message.size()));
  out->append(message);
  CloseFrame(out, at);
}

void AppendPong(std::string* out, uint64_t seq) {
  size_t at = OpenFrame(out, FrameType::kPong);
  PutU64(out, seq);
  CloseFrame(out, at);
}

void AppendMetricsReply(std::string* out, uint64_t seq,
                        const RemoteMetrics& metrics) {
  size_t at = OpenFrame(out, FrameType::kMetricsReply);
  PutU64(out, seq);
  PutU32(out, static_cast<uint32_t>(metrics.shards.size()));
  PutShardCounters(out, metrics.total);
  for (const auto& s : metrics.shards) PutShardCounters(out, s);
  PutU32(out, static_cast<uint32_t>(metrics.producers.size()));
  for (const auto& p : metrics.producers) {
    PutU16(out, static_cast<uint16_t>(p.name.size()));
    out->append(p.name);
    PutU64(out, p.posted);
    PutU64(out, p.accepted);
    PutU64(out, p.rejected);
    PutU64(out, p.failed);
  }
  const seq::SequencerMetricsSnapshot& sq = metrics.sequencer;
  PutU8(out, sq.enabled ? 1 : 0);
  PutU64(out, sq.published);
  PutU64(out, sq.sequenced);
  PutU64(out, sq.firings);
  PutU64(out, sq.dropped);
  PutU64(out, sq.apply_errors);
  PutU64(out, 0);  // Retired lock-timeout counter: kept for older decoders.
  PutU64(out, sq.queue_depth);
  PutU64(out, sq.queue_high_water);
  PutU64(out, sq.merge_lag);
  PutU64(out, sq.replay_deduped);
  PutU16(out, static_cast<uint16_t>(sq.lane_watermark.size()));
  for (uint64_t w : sq.lane_watermark) PutU64(out, w);
  CloseFrame(out, at);
}

void FrameDecoder::Append(const char* data, size_t n) {
  if (poisoned_) return;
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::State FrameDecoder::Fail(std::string why) {
  poisoned_ = true;
  error_ = std::move(why);
  return State::kError;
}

FrameDecoder::State FrameDecoder::Next(Frame* out) {
  if (poisoned_) return State::kError;
  if (buffered() < kFrameHeaderBytes) return State::kNeedMore;
  const char* head = buf_.data() + pos_;
  const uint32_t payload_len = GetU32(head);
  if (payload_len > kMaxFramePayload) {
    return Fail(StrFormat("frame payload %u exceeds limit %u", payload_len,
                          kMaxFramePayload));
  }
  if (buffered() < kFrameHeaderBytes + payload_len) return State::kNeedMore;
  FrameType type = static_cast<FrameType>(static_cast<uint8_t>(head[4]));
  ByteReader in(head + kFrameHeaderBytes, payload_len);

  *out = Frame{};
  out->type = type;
  bool ok = in.ReadU64(&out->seq);
  switch (type) {
    case FrameType::kPost: {
      uint64_t oid = 0;
      uint16_t method_len = 0, argc = 0;
      ok = ok && in.ReadU64(&oid) && in.ReadU16(&method_len);
      if (ok && method_len > kMaxMethodLen) ok = false;
      ok = ok && in.ReadBytes(method_len, &out->method) && in.ReadU16(&argc);
      if (ok && argc > kMaxPostArgs) ok = false;
      if (ok) {
        out->oid = Oid{oid};
        out->args.reserve(argc);
        for (uint16_t i = 0; ok && i < argc; ++i) {
          Value v;
          ok = ReadValue(&in, &v);
          if (ok) out->args.push_back(std::move(v));
        }
      }
      break;
    }
    case FrameType::kDrain:
    case FrameType::kMetrics:
    case FrameType::kPing:
    case FrameType::kAck:
    case FrameType::kDrainOk:
    case FrameType::kPong:
      break;  // seq only.
    case FrameType::kHello: {
      uint16_t id_len = 0;
      ok = ok && in.ReadU16(&id_len);
      if (ok && (id_len == 0 || id_len > kMaxIdentityLen)) ok = false;
      ok = ok && in.ReadBytes(id_len, &out->identity);
      break;
    }
    case FrameType::kHelloOk:
      ok = ok && in.ReadU64(&out->watermark);
      break;
    case FrameType::kErr: {
      uint16_t code = 0, msg_len = 0;
      ok = ok && in.ReadU16(&code) && in.ReadU16(&msg_len) &&
           in.ReadBytes(msg_len, &out->message);
      if (ok) {
        if (code < 1 || code > 7) {
          ok = false;
        } else {
          out->error = static_cast<WireError>(code);
        }
      }
      break;
    }
    case FrameType::kMetricsReply: {
      uint32_t shard_count = 0;
      ok = ok && in.ReadU32(&shard_count);
      // 11 u64 counters per shard: reject counts the payload cannot hold.
      if (ok && shard_count > kMaxFramePayload / (11 * 8)) ok = false;
      ok = ok && ReadShardCounters(&in, &out->metrics.total);
      for (uint32_t i = 0; ok && i < shard_count; ++i) {
        runtime::ShardMetricsSnapshot s;
        ok = ReadShardCounters(&in, &s);
        if (ok) out->metrics.shards.push_back(s);
      }
      uint32_t producer_count = 0;
      ok = ok && in.ReadU32(&producer_count);
      if (ok && producer_count > kMaxFramePayload / (4 * 8)) ok = false;
      for (uint32_t i = 0; ok && i < producer_count; ++i) {
        runtime::ProducerMetricsSnapshot p;
        uint16_t name_len = 0;
        ok = in.ReadU16(&name_len) && in.ReadBytes(name_len, &p.name) &&
             in.ReadU64(&p.posted) && in.ReadU64(&p.accepted) &&
             in.ReadU64(&p.rejected) && in.ReadU64(&p.failed);
        if (ok) out->metrics.producers.push_back(std::move(p));
      }
      seq::SequencerMetricsSnapshot& sq = out->metrics.sequencer;
      uint8_t seq_enabled = 0;
      uint16_t lane_count = 0;
      uint64_t retired = 0;  // The retired lock-timeout counter, always 0.
      ok = ok && in.ReadU8(&seq_enabled) && in.ReadU64(&sq.published) &&
           in.ReadU64(&sq.sequenced) && in.ReadU64(&sq.firings) &&
           in.ReadU64(&sq.dropped) && in.ReadU64(&sq.apply_errors) &&
           in.ReadU64(&retired) && in.ReadU64(&sq.queue_depth) &&
           in.ReadU64(&sq.queue_high_water) && in.ReadU64(&sq.merge_lag) &&
           in.ReadU64(&sq.replay_deduped) && in.ReadU16(&lane_count);
      if (ok && seq_enabled > 1) ok = false;
      if (ok) sq.enabled = seq_enabled != 0;
      for (uint16_t i = 0; ok && i < lane_count; ++i) {
        uint64_t w = 0;
        ok = in.ReadU64(&w);
        if (ok) sq.lane_watermark.push_back(w);
      }
      break;
    }
    default:
      return Fail(StrFormat("unknown frame type %u",
                            static_cast<unsigned>(type)));
  }
  if (!ok || !in.ok()) {
    return Fail(StrFormat("truncated %s payload", FrameTypeName(type)));
  }
  if (!in.exhausted()) {
    return Fail(StrFormat("%s payload has trailing bytes",
                          FrameTypeName(type)));
  }
  pos_ += kFrameHeaderBytes + payload_len;
  return State::kFrame;
}

}  // namespace net
}  // namespace ode
