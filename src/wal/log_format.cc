#include "wal/log_format.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/strutil.h"
#include "ode/snapshot_codec.h"

namespace ode {
namespace wal {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  ///< u32 payload_len | u32 crc32.

/// Table-driven CRC-32 (IEEE, reflected), table built once at startup.
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto& table = CrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kEveryN: return "every-n";
    case FsyncPolicy::kEveryMs: return "every-ms";
    case FsyncPolicy::kNever: return "never";
  }
  return "?";
}

void AppendFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

DecodeStatus DecodeFrame(const char* data, size_t size,
                         std::string_view* payload, size_t* consumed,
                         std::string* error) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  const uint32_t payload_len = GetU32(data);
  if (payload_len > kMaxWalPayload) {
    if (error != nullptr) {
      *error = StrFormat("record length %u exceeds limit %zu", payload_len,
                         kMaxWalPayload);
    }
    return DecodeStatus::kCorrupt;
  }
  if (size - kFrameHeaderBytes < payload_len) {
    return DecodeStatus::kNeedMore;
  }
  *payload = std::string_view(data + kFrameHeaderBytes, payload_len);
  if (Crc32(payload->data(), payload->size()) != GetU32(data + 4)) {
    if (error != nullptr) *error = "record CRC mismatch";
    return DecodeStatus::kCorrupt;
  }
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kRecord;
}

Status PutValueText(std::string* payload, const Value& value) {
  std::string text = EncodeSnapshotValue(value);
  if (text.size() > UINT16_MAX) {
    return Status::InvalidArgument(
        StrFormat("argument value text is %zu bytes, limit %u", text.size(),
                  UINT16_MAX));
  }
  PutU16(payload, static_cast<uint16_t>(text.size()));
  payload->append(text);
  return Status::OK();
}

Status ReadValueText(ByteReader* in, Value* out) {
  uint16_t len = 0;
  std::string_view text;
  if (!in->ReadU16(&len) || !in->ReadBytes(len, &text)) {
    return Status::InvalidArgument("argument value truncated");
  }
  ODE_ASSIGN_OR_RETURN(*out, DecodeSnapshotValue(text));
  return Status::OK();
}

Status EncodeRecordPayload(std::string* payload,
                           const WalRecord& record) {
  if (record.method.size() > kMaxWalMethodLen) {
    return Status::InvalidArgument(
        StrFormat("wal record method is %zu bytes, limit %zu",
                  record.method.size(), kMaxWalMethodLen));
  }
  if (record.args.size() > kMaxWalArgs) {
    return Status::InvalidArgument(StrFormat(
        "wal record has %zu args, limit %zu", record.args.size(),
        kMaxWalArgs));
  }
  if (record.producer_id.size() > kMaxWalIdentityLen) {
    return Status::InvalidArgument(
        StrFormat("wal producer id is %zu bytes, limit %zu",
                  record.producer_id.size(), kMaxWalIdentityLen));
  }
  const size_t start = payload->size();
  PutU64(payload, record.lsn);
  PutU64(payload, record.oid.id);
  PutU64(payload, record.producer_seq);
  PutU16(payload, static_cast<uint16_t>(record.producer_id.size()));
  payload->append(record.producer_id);
  PutU16(payload, static_cast<uint16_t>(record.method.size()));
  payload->append(record.method);
  PutU16(payload, static_cast<uint16_t>(record.args.size()));
  for (const Value& v : record.args) {
    ODE_RETURN_IF_ERROR(PutValueText(payload, v));
  }
  if (payload->size() - start > kMaxWalPayload) {
    return Status::InvalidArgument(
        StrFormat("wal record payload is %zu bytes, limit %zu",
                  payload->size() - start, kMaxWalPayload));
  }
  return Status::OK();
}

Status DecodeRecordPayload(std::string_view payload, WalRecord* out) {
  *out = WalRecord{};
  ByteReader in(payload);
  uint64_t oid = 0;
  uint16_t id_len = 0, method_len = 0, argc = 0;
  bool ok = in.ReadU64(&out->lsn) && in.ReadU64(&oid) &&
            in.ReadU64(&out->producer_seq) && in.ReadU16(&id_len) &&
            id_len <= kMaxWalIdentityLen &&
            in.ReadBytes(id_len, &out->producer_id) &&
            in.ReadU16(&method_len) && method_len <= kMaxWalMethodLen &&
            in.ReadBytes(method_len, &out->method) && in.ReadU16(&argc) &&
            argc <= kMaxWalArgs;
  // The CRC matched, so a payload that fails here is a writer bug or a
  // crafted record rather than disk rot; still corrupt to the reader.
  if (!ok) return Status::InvalidArgument("wal record payload truncated");
  out->oid = Oid{oid};
  out->args.reserve(argc);
  for (uint16_t i = 0; i < argc; ++i) {
    Value v;
    ODE_RETURN_IF_ERROR(ReadValueText(&in, &v));
    out->args.push_back(std::move(v));
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("wal record has trailing payload bytes");
  }
  return Status::OK();
}

void SeqSet::Add(uint64_t seq) {
  // First run with hi >= seq - 1 (the run `seq` joins or extends).
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), seq,
      [](const std::pair<uint64_t, uint64_t>& run, uint64_t s) {
        return run.second + 1 < s && run.second != UINT64_MAX;
      });
  if (it == runs_.end() || seq + 1 < it->first) {
    runs_.insert(it, {seq, seq});
    return;
  }
  if (seq >= it->first && seq <= it->second) return;  // Already present.
  if (seq + 1 == it->first) {
    it->first = seq;  // Extend left; cannot touch the previous run (else
                      // lower_bound would have landed there).
    return;
  }
  // seq == it->second + 1: extend right, then merge with the next run if
  // the gap closed.
  it->second = seq;
  auto next = it + 1;
  if (next != runs_.end() && it->second + 1 == next->first) {
    it->second = next->second;
    runs_.erase(next);
  }
}

bool SeqSet::Contains(uint64_t seq) const {
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), seq,
      [](const std::pair<uint64_t, uint64_t>& run, uint64_t s) {
        return run.second < s;
      });
  return it != runs_.end() && seq >= it->first;
}

uint64_t SeqSet::count() const {
  uint64_t n = 0;
  for (const auto& [lo, hi] : runs_) n += hi - lo + 1;
  return n;
}

std::string SeqSet::ToString() const {
  std::string out;
  for (const auto& [lo, hi] : runs_) {
    if (!out.empty()) out += ',';
    if (lo == hi) {
      out += StrFormat("%llu", static_cast<unsigned long long>(lo));
    } else {
      out += StrFormat("%llu-%llu", static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi));
    }
  }
  return out;
}

Result<SeqSet> SeqSet::Parse(std::string_view text) {
  SeqSet set;
  uint64_t prev_hi = 0;
  bool first = true;
  for (std::string_view part : Split(text, ',')) {
    if (part.empty()) continue;
    uint64_t lo = 0, hi = 0;
    size_t dash = part.find('-');
    bool ok = dash == std::string_view::npos
                  ? ParseNumber(part, &lo) && (hi = lo, true)
                  : ParseNumber(part.substr(0, dash), &lo) &&
                        ParseNumber(part.substr(dash + 1), &hi);
    // Runs must be sorted, disjoint and non-adjacent (adjacent runs would
    // have been merged): lo > prev_hi + 1, written so that a run ending
    // at UINT64_MAX cannot wrap.
    if (!ok || hi < lo || (!first && (lo == 0 || lo - 1 <= prev_hi))) {
      return Status::InvalidArgument(
          StrFormat("bad seq set run '%.*s'", static_cast<int>(part.size()),
                    part.data()));
    }
    set.runs_.emplace_back(lo, hi);
    prev_hi = hi;
    first = false;
  }
  return set;
}

}  // namespace wal
}  // namespace ode
