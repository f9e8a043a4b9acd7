#include "seq/order_log.h"

#include <utility>

#include "common/byte_codec.h"
#include "common/strutil.h"

namespace ode {
namespace seq {

Status EncodeOrderRecord(std::string* payload, const SeqEvent& ev) {
  if (ev.event.method_name.size() > wal::kMaxWalMethodLen ||
      ev.event.time_key.size() > wal::kMaxWalMethodLen ||
      ev.event.args.size() > wal::kMaxWalArgs ||
      ev.syms.size() > 0xffff) {
    return Status::InvalidArgument("order record exceeds codec caps");
  }
  const size_t start = payload->size();
  PutU32(payload, ev.lane);
  PutU64(payload, ev.lane_seq);
  PutU32(payload, ev.class_id);
  PutU64(payload, ev.oid.id);
  PutU8(payload, static_cast<uint8_t>(ev.event.kind));
  PutU8(payload, static_cast<uint8_t>(ev.event.qualifier));
  PutU16(payload, static_cast<uint16_t>(ev.event.method_name.size()));
  payload->append(ev.event.method_name);
  PutU16(payload, static_cast<uint16_t>(ev.event.time_key.size()));
  payload->append(ev.event.time_key);
  PutU64(payload, ev.event.txn);
  PutU64(payload, static_cast<uint64_t>(ev.event.time));
  PutU64(payload, ev.event.seq);
  PutU16(payload, static_cast<uint16_t>(ev.syms.size()));
  for (const SeqSym& s : ev.syms) {
    PutU32(payload, static_cast<uint32_t>(s.trigger_idx));
    PutU32(payload, static_cast<uint32_t>(s.symbol));
  }
  PutU16(payload, static_cast<uint16_t>(ev.event.args.size()));
  for (const EventArg& arg : ev.event.args) {
    if (arg.name.size() > wal::kMaxWalMethodLen) {
      return Status::InvalidArgument("order record arg name exceeds cap");
    }
    PutU16(payload, static_cast<uint16_t>(arg.name.size()));
    payload->append(arg.name);
    ODE_RETURN_IF_ERROR(wal::PutValueText(payload, arg.value));
  }
  if (payload->size() - start > wal::kMaxWalPayload) {
    return Status::InvalidArgument("order record exceeds payload cap");
  }
  return Status::OK();
}

Status DecodeOrderRecord(std::string_view payload, SeqEvent* out) {
  ByteReader in(payload);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  uint16_t u16 = 0;

  in.ReadU32(&u32);
  out->lane = u32;
  in.ReadU64(&out->lane_seq);
  in.ReadU32(&u32);
  out->class_id = u32;
  in.ReadU64(&u64);
  out->oid = Oid{u64};
  in.ReadU8(&u8);
  out->event.kind = static_cast<BasicEventKind>(u8);
  in.ReadU8(&u8);
  out->event.qualifier = static_cast<EventQualifier>(u8);
  in.ReadU16(&u16);
  in.ReadBytes(u16, &out->event.method_name);
  in.ReadU16(&u16);
  in.ReadBytes(u16, &out->event.time_key);
  in.ReadU64(&out->event.txn);
  in.ReadU64(&u64);
  out->event.time = static_cast<TimeMs>(u64);
  in.ReadU64(&out->event.seq);
  out->event.object = out->oid;
  uint16_t nsyms = 0;
  in.ReadU16(&nsyms);
  if (!in.ok()) {
    return Status::InvalidArgument("order record payload truncated");
  }
  out->syms.clear();
  out->syms.reserve(nsyms);
  for (uint16_t i = 0; i < nsyms; ++i) {
    uint32_t idx = 0;
    uint32_t sym = 0;
    if (!in.ReadU32(&idx) || !in.ReadU32(&sym)) {
      return Status::InvalidArgument("order record symbol list truncated");
    }
    out->syms.push_back(SeqSym{static_cast<int32_t>(idx),
                               static_cast<int32_t>(sym)});
  }
  uint16_t argc = 0;
  if (!in.ReadU16(&argc) || argc > wal::kMaxWalArgs) {
    return Status::InvalidArgument("order record argument count invalid");
  }
  out->event.args.clear();
  out->event.args.reserve(argc);
  for (uint16_t i = 0; i < argc; ++i) {
    EventArg arg;
    if (!in.ReadU16(&u16) || !in.ReadBytes(u16, &arg.name)) {
      return Status::InvalidArgument("order record argument truncated");
    }
    ODE_RETURN_IF_ERROR(wal::ReadValueText(&in, &arg.value));
    out->event.args.push_back(std::move(arg));
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("order record has trailing payload bytes");
  }
  return Status::OK();
}

std::string OrderLogPath(const std::string& dir) {
  return StrFormat("%s/seqorder.log", dir.c_str());
}

Result<wal::LogContents<SeqEvent>> ReadOrderLog(const std::string& path) {
  wal::LogContents<SeqEvent> contents;
  Status s = wal::ReadLogContents(path, DecodeOrderRecord, &contents);
  // Absent file: nothing sequenced yet.
  if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
  return contents;
}

}  // namespace seq
}  // namespace ode
